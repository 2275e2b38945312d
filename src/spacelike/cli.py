"""Command-line surface.

Commands: analyze | lagrangian | solve-maximal | solve-ma | scan | check.
A job is one JSON config file plus flag overrides (--config, --out,
--format, --oracle, --seed).  ``load_config`` checks it before any work
starts against two tables: ``SCHEMA`` (each key's path, type, default and
constraint) and ``REQUIRES`` (what each command needs).

Exit codes: 0 success (warnings allowed), 1 config error, a flag
argparse cannot read included (reported as ``config error: <path>: ...``),
2 numerical failure, 3 invariant violation (check only).

Tables go from the library's columns (name -> values) to text a column at
a time: nodes in lexicographic order, floats by shortest round-trip repr
(``nan`` where not finite), so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bernstein import DecayScanRow, ScanConfig, completeness_probe, decay_scan
from .exprparse import DomainError, ParseError, parse, pretty
from .graphgeom import (
    BasePointError, GraphMap, NotSpacelikeError, adapted_frames, covariant_h, curvature,
    first_bianchi_residual, frame_riemann_oracle, fundamental_forms, pseudo_distance,
    ricci_bound_check, signature, simons_report,
)
from .grassmann import (
    SpacelikePlane, distance, graph_node_table, hyperbolic_distance_n1, pullback_trace,
)
from .jets import MAX_DIM, finite_diff_check
from .lagrangian import (
    NotConvexError, Potential, gradient_graph, lagrangian_forms, moduli_curvature,
    moduli_curvature_oracle, node_table, to_standard,
)
from .lattice import Lattice, LatticeError, active_mask, node_points
from .solver import SolverError, save_field, solve_ma, solve_maximal

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# What a job may hold

class Rule(NamedTuple):
    text: str          # what must hold, as error messages and README print it
    holds: Callable


REQUIRED = "required"  # the default of a key that its object must give
# The most nodes one lattice may have: each node holds jets and Jacobian
# rows, so a larger job exhausts memory before it finishes.  Scan lattices
# are two-dimensional, so theirs is a cap per axis.
MAX_NODES = 2**22
_SCAN_AXIS = math.isqrt(MAX_NODES)
_POSITIVE = Rule("> 0", lambda v: v > 0)
_AT_LEAST_1 = Rule(">= 1", lambda v: v >= 1)
_AT_LEAST_2 = Rule(">= 2", lambda v: all(k >= 2 for k in np.ravel(v)))

# (path, type, default, constraint), each object before its keys.  A key
# that is absent or null takes its default; a list's constraint is on the
# whole list.
SCHEMA = (
    ("m", "integer", 2, _AT_LEAST_1),
    ("n", "integer", 1, _AT_LEAST_1),
    ("components", "[string]", (), None),
    ("potential", "string", None, None),
    ("lattice", "object", None, None),
    ("lattice.lo", "[number]", REQUIRED, None),
    ("lattice.hi", "[number]", REQUIRED, None),
    ("lattice.nodes", "integer or [integer]", None, _AT_LEAST_2),
    ("lattice.spacing", "number", None, _POSITIVE),
    ("lattice.mask", "object", None, None),
    ("lattice.mask.kind", ("disc", "annulus"), REQUIRED, None),
    ("lattice.mask.r_min", "number", None, _POSITIVE),
    ("lattice.mask.r_max", "number", REQUIRED, _POSITIVE),
    ("solver", "object", None, None),
    ("solver.tol", "number", ScanConfig.tol, _POSITIVE),
    ("solver.max_iter", "integer", ScanConfig.max_iter, _AT_LEAST_1),
    ("solver.c", "number", 1.0, _POSITIVE),
    ("solver.delta_safe", "number", 1e-6, Rule("in (0, 1)", lambda v: 0 < v < 1)),
    ("radii", "[number]", (), Rule("0 < a1 < a2 < ...",
                                   lambda v: all(b > a for a, b in zip([0.0] + v, v)))),
    ("scan", "object", None, None),
    ("scan.nodes", "integer", ScanConfig.nodes,
     Rule(f"in [2, {_SCAN_AXIS}]", lambda v: 2 <= v <= _SCAN_AXIS)),
    ("scan.policy", ("fixed-nodes", "fixed-spacing"), ScanConfig.policy, None),
    ("scan.spacing", "number", ScanConfig.spacing, _POSITIVE),
    ("scan.domain", ("disc", "box"), ScanConfig.domain, None),
    ("scan.center_fraction", "number", ScanConfig.center_fraction,
     Rule("in (0, 1]", lambda v: 0 < v <= 1)),
    ("out", "string", None, Rule("a file path", lambda v: v != "")),
    ("format", ("csv", "json"), "csv", None),
    ("oracle", "boolean", False, None),
    ("seed", "integer", 0, Rule(">= 0", lambda v: v >= 0)),
)

_ONE_COMPONENT = ("components", Rule("one expression", lambda c: len(c["components"]) == 1))
_POTENTIAL = ("potential", Rule("a potential", lambda c: c["potential"] is not None))
_LATTICE = ("lattice", Rule("a lattice of dimension {m}",
                            lambda c: c["lattice"] is not None and c["lattice"].m == c["m"]))
_JETS = ("m", Rule(f"m <= {MAX_DIM}", lambda c: c["m"] <= MAX_DIM))  # the jets' dimension cap

# command -> what it needs beyond the defaults, as (path, rule on the job)
REQUIRES = {
    "analyze": (_JETS, ("components", Rule("{n} expressions",
                                           lambda c: len(c["components"]) == c["n"])), _LATTICE),
    "lagrangian": (_JETS, _POTENTIAL, _LATTICE),
    "solve-maximal": (_ONE_COMPONENT, _LATTICE),
    "solve-ma": (_POTENTIAL, _LATTICE),
    "scan": (_ONE_COMPONENT, ("radii", Rule("at least one radius", lambda c: len(c["radii"]) > 0)),
             ("m", Rule("m = 2", lambda c: c["m"] == 2)),
             ("scan.spacing", Rule(f"at most {_SCAN_AXIS} nodes per axis", lambda c: (
                 c["scan.policy"] == "fixed-nodes"
                 or _axis_nodes(2 * c["radii"][-1], c["scan.spacing"]) <= _SCAN_AXIS)))),
    "check": (),
}


def _finite(v) -> bool:
    """A JSON number that is a finite float (a bool is not a number)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# type -> (what a value must be, test, conversion)
_TYPES = {
    "number": ("a finite number", _finite, float),
    "integer": ("an integer", lambda v: _finite(v) and v == int(v), int),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "boolean": ("true or false", lambda v: isinstance(v, bool), bool),
    "object": ("an object", lambda v: isinstance(v, dict), dict),
}


def _convert(kind, value, path: str):
    """``value`` as the schema type ``kind``, or a ConfigError naming ``path``."""
    if kind == "integer or [integer]":
        kind = "[integer]" if isinstance(value, list) else "integer"
    if isinstance(kind, tuple):  # one of the listed strings
        if isinstance(value, str) and value in kind:
            return value
        what = "one of " + ", ".join(kind)
    elif kind.startswith("["):
        if isinstance(value, list):
            return [_convert(kind[1:-1], v, f"{path}[{i}]") for i, v in enumerate(value)]
        what = "an array"
    else:
        what, test, cast = _TYPES[kind]
        if test(value):
            return cast(value)
    raise ConfigError(f"{path}: must be {what}, got {value!r}")


def _validate(raw: dict) -> dict:
    """Every schema path's checked value (an object's is its dict, or None)."""
    cfg = {}
    for path, kind, default, rule in SCHEMA:
        parent, _, key = path.rpartition(".")
        owner = cfg[parent] if parent else raw
        value = None if owner is None else owner.get(key)
        if value is None and default is REQUIRED and owner is not None:
            raise ConfigError(f"{path}: required")
        if value is None:
            cfg[path] = None if default is REQUIRED else default
            continue
        cfg[path] = value = _convert(kind, value, path)
        if rule is not None and not rule.holds(value):
            raise ConfigError(f"{path}: must be {rule.text}, got {value!r}")
    return cfg


def _axis_nodes(width: float, spacing: float) -> int:
    """The nodes a lattice axis of this width gets at this spacing, counted as
    Lattice.from_spacing counts them but saturating above MAX_NODES."""
    return round(min(abs(width) / spacing, MAX_NODES)) + 1


def _lattice(cfg: dict) -> Lattice | None:
    """The lattice that the checked ``lattice.*`` values describe."""
    if cfg["lattice"] is None:
        return None
    lo, hi = tuple(cfg["lattice.lo"]), tuple(cfg["lattice.hi"])
    nodes, spacing = cfg["lattice.nodes"], cfg["lattice.spacing"]
    kind, r_min, r_max = (cfg[f"lattice.mask.{key}"] for key in ("kind", "r_min", "r_max"))
    if kind == "annulus" and not (r_min is not None and r_min < r_max):
        raise ConfigError("lattice.mask.r_min: an annulus needs 0 < r_min < r_max")
    if nodes is None and spacing is None:
        raise ConfigError("lattice: needs spacing or nodes")
    per_axis = ([_axis_nodes(h - l, spacing) for l, h in zip(lo, hi)] if spacing is not None
                else nodes if isinstance(nodes, list) else [nodes] * len(lo))
    if math.prod(per_axis) > MAX_NODES:
        raise ConfigError(f"lattice.{'nodes' if spacing is None else 'spacing'}: "
                          f"a lattice may have at most {MAX_NODES} nodes")
    mask = None if kind is None else (kind, r_max) if kind == "disc" else (kind, r_min, r_max)
    try:
        if spacing is not None:
            return Lattice.from_spacing(lo, hi, spacing, mask=mask)
        return Lattice(lo, hi, tuple(nodes if isinstance(nodes, list) else [nodes] * len(lo)), mask)
    except LatticeError as err:
        raise ConfigError(f"lattice: {err}") from err


def load_config(args) -> dict:
    """The checked job: each schema path's value, the built Lattice under
    "lattice", and "command" and "raw" (the config file's own JSON)."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config: must be an object")
    flags = {"out": args.out, "format": args.format, "oracle": args.oracle, "seed": args.seed}
    cfg = _validate({**raw, **{key: v for key, v in flags.items() if v is not None}})
    cfg.update(command=args.command, raw=raw, lattice=_lattice(cfg))
    for path, rule in REQUIRES[args.command]:
        if not rule.holds(cfg):
            raise ConfigError(f"{path}: {args.command} needs {rule.text.format_map(cfg)}")
    return cfg


def _expressions(cfg: dict, path: str) -> list:
    """The expressions at ``path`` ("components" or "potential"), parsed in m variables."""
    texts = cfg[path] if path == "components" else [cfg[path]]
    try:
        return [parse(text, cfg["m"]) for text in texts]
    except ParseError as err:
        raise ConfigError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# Deterministic writers

def _json_column(values) -> list:
    """A column as JSON values: Python ints and floats, the string "nan"
    for a float that is not finite, and strings as they are."""
    col = np.asarray(values)
    if col.dtype.kind != "f":
        return col.tolist()
    return np.where(np.isfinite(col), col.astype(object), "nan").tolist()


def _csv_column(values) -> list:
    """A column as CSV cells: the repr of a number, or the string, quoted
    only if it holds a comma, a quote or a newline."""
    col = np.asarray(values)
    cells = list(map(str, _json_column(col)))  # str of a Python number is its repr
    if col.dtype.kind not in "OU":  # numbers need no quotes
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\n') else c
            for c in cells]


def _number(v) -> str:
    """One number as the tables spell it."""
    return _csv_column([v])[0]


def write_records(path, table: dict, meta: dict, fmt: str) -> None:
    """Write ``table`` (column name -> values, all of one length) as CSV, or
    as JSON records under ``meta``; to stdout when ``path`` is None."""
    if fmt == "csv":
        rows = zip(*map(_csv_column, table.values()))
        text = "\n".join([",".join(table), *map(",".join, rows)]) + "\n"
    else:
        rows = zip(*map(_json_column, table.values()))
        payload = {"meta": meta, "records": [dict(zip(table, row)) for row in rows]}
        text = json.dumps(payload, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _meta(cfg: dict) -> dict:
    return {"version": __version__, "command": cfg["command"], "config": cfg["raw"]}


def _write_node_table(cfg: dict, pts: np.ndarray, status: np.ndarray, cols: dict) -> None:
    """The node table: each node's index, coordinates, status and columns."""
    table = {"index": np.arange(len(pts)), **{f"x{d+1}": x for d, x in enumerate(pts.T)},
             "status": status, **cols}
    write_records(cfg["out"], table, _meta(cfg), cfg["format"])


# ---------------------------------------------------------------------------
# Commands

def cmd_analyze(cfg: dict) -> int:
    gm = GraphMap.from_strings(cfg["m"], _expressions(cfg, "components")).with_base_point()
    pts = node_points(cfg["lattice"])
    status, cols = graph_node_table(gm, pts, active_mask(cfg["lattice"]).ravel())
    _write_node_table(cfg, pts, status, cols)
    warn = int(np.sum((status != "ok") & (status != "inactive")))
    print(f"analyze: {len(status)} nodes, {warn} warnings")
    return EXIT_OK


def cmd_lagrangian(cfg: dict) -> int:
    P = Potential(cfg["m"], *_expressions(cfg, "potential"), cfg["solver.c"])
    pts = node_points(cfg["lattice"])
    status, cols = node_table(P, pts, cfg["oracle"])
    _write_node_table(cfg, pts, status, cols)
    print(f"lagrangian: {len(status)} nodes, {int(np.sum(status != 'ok'))} flagged")
    return EXIT_OK


def cmd_solve(cfg: dict) -> int:
    tol, max_iter = cfg["solver.tol"], cfg["solver.max_iter"]
    if cfg["command"] == "solve-maximal":
        (boundary,) = _expressions(cfg, "components")
        fld, log = solve_maximal(cfg["lattice"], boundary, tol=tol, max_iter=max_iter,
                                 delta_safe=cfg["solver.delta_safe"])
    else:
        (F,) = _expressions(cfg, "potential")
        fld, log = solve_ma(cfg["lattice"], F, c=cfg["solver.c"], tol=tol, max_iter=max_iter)
    out = cfg["out"] or "field.json"
    save_field(fld, out, cfg["format"])
    for stage, it, res, damp in log.steps:
        print(f"stage={_number(stage)} iter={it} residual={_number(res)} damping={_number(damp)}")
    for stage, kind, detail in log.events:
        print(f"event stage={_number(stage)} {kind}" + (f": {detail}" if detail else ""))
    print(f"final residual {_number(log.final_residual)} (tol {_number(tol)}) -> {out}")
    return EXIT_OK


def cmd_scan(cfg: dict) -> int:
    (boundary,) = _expressions(cfg, "components")
    keys = ("nodes", "policy", "spacing", "domain", "center_fraction")
    scan_cfg = ScanConfig(tol=cfg["solver.tol"], max_iter=cfg["solver.max_iter"],
                          **{key: cfg[f"scan.{key}"] for key in keys})
    scan = decay_scan(boundary, cfg["radii"], scan_cfg)
    slope = np.nan if scan.slope is None else scan.slope
    meta = {**_meta(cfg), "slope": _json_column([slope])[0], "slope_kind": scan.slope_kind}
    table = {f.name: [getattr(row, f.name) for row in scan.rows] for f in fields(DecayScanRow)}
    write_records(cfg["out"], table, meta, cfg["format"])
    slope_txt = "exact-zero" if scan.slope_kind == "exact-zero" else _number(slope)
    print(f"scan: fitted log-log slope {slope_txt}")
    return EXIT_NUMERICAL if any(row.status != "ok" for row in scan.rows) else EXIT_OK


# ---------------------------------------------------------------------------
# check: built-in battery aggregating the per-module invariants

def _battery(seed: int):
    rng = np.random.default_rng(seed)

    def random_graph(m, n, degree=3, sigma=0.5):
        point = rng.uniform(-0.3, 0.3, size=m)
        comps = []
        for _ in range(n):
            parts = []
            for alpha in itertools.product(range(degree + 1), repeat=m):
                if sum(alpha) > degree:
                    continue
                c = float(rng.normal())
                fs = [f"({c!r})"] + [f"x{i+1}^{a}" if a > 1 else f"x{i+1}"
                                     for i, a in enumerate(alpha) if a]
                parts.append("*".join(fs))
            comps.append("+".join(parts))
        gm = GraphMap.from_strings(m, comps)
        _, A, _, _ = gm.jet_data(point)
        lam = float(sigma / (1.0 + np.linalg.svd(A, compute_uv=False)[0]))
        gm = GraphMap.from_strings(m, [f"({lam!r})*({s})" for s in comps])
        return gm, point

    checks = []

    def check(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @check("exprparse-round-trip")
    def _():
        texts = ["x1^2+x2^2", "sqrt(1+x1^2+x2^2)", "sin(x1)*exp(x2)-3/(1+x1^2)",
                 "-(x1^3)+pi*x2", "asinh(sqrt(x1^2+x2^2))"]
        bad = [t for t in texts if parse(pretty(parse(t, 2)), 2) != parse(t, 2)]
        return not bad, f"{len(texts) - len(bad)}/{len(texts)} round-trip"

    @check("jets-vs-finite-differences")
    def _():
        worst = 0.0
        for s in ["exp(x1)*sin(x2)", "log(2+x1)*x2^3", "tanh(x1*x2)"]:
            rep = finite_diff_check(parse(s, 2), rng.uniform(-0.5, 0.5, 2), 1e-4)
            worst = max(worst, rep.max_rel[1], rep.max_rel[2])
        return worst <= 1e-5, f"max rel dev {worst:.2e}"

    @check("frames-pseudo-orthonormal")
    def _():
        worst = 0.0
        for _ in range(5):
            gm, x = random_graph(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            fr = adapted_frames(gm, x)
            sig = signature(gm.m, gm.n)
            worst = max(worst, float(np.max(np.abs((fr.tangent * sig) @ fr.tangent.T - np.eye(gm.m)))))
            worst = max(worst, float(np.max(np.abs((fr.normal * sig) @ fr.normal.T + np.eye(gm.n)))))
            worst = max(worst, float(np.max(np.abs((fr.tangent * sig) @ fr.normal.T))))
        return worst <= 1e-12, f"max residual {worst:.2e}"

    @check("gauss-equation-vs-coordinate-oracle")
    def _():
        worst = 0.0
        for _ in range(10):
            gm, x = random_graph(int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            rf = curvature(gm, x).riemann
            ro = frame_riemann_oracle(gm, x)
            worst = max(worst, float(np.max(np.abs(rf - ro)) / max(np.max(np.abs(ro)), 1e-10)))
        return worst <= 1e-6, f"max rel dev {worst:.2e}"

    @check("bianchi-schwarz-ricci-bound")
    def _():
        ok = True
        for _ in range(10):
            gm, x = random_graph(2, 2)
            pg = curvature(gm, x)
            ok &= first_bianchi_residual(pg.riemann) <= 1e-10 * (1 + np.max(np.abs(pg.riemann)))
            ok &= gm.m * pg.H_norm**2 <= pg.S + 1e-12
            ok &= ricci_bound_check(gm, x) >= -1e-10
        return bool(ok), "bianchi + schwarz + ricci bound on 10 random graphs"

    @check("codazzi-symmetry")
    def _():
        worst = 0.0
        for _ in range(5):
            gm, x = random_graph(2, 2)
            ch = covariant_h(gm, x)
            worst = max(worst, ch.codazzi_asym / (1 + float(np.max(np.abs(ch.h_cov)))))
        return worst <= 1e-6, f"max asymmetry {worst:.2e}"

    @check("hyperboloid-battery")
    def _():
        ok = True
        for m in (2, 3):
            r2 = "+".join(f"x{i+1}^2" for i in range(m))
            gm = GraphMap.from_strings(m, [f"sqrt(1+{r2})"])
            x = np.full(m, 0.3)
            pg = curvature(gm, x)
            ok &= abs(pg.H_norm - 1) <= 1e-9 and abs(pg.S - m) <= 1e-9
            ok &= all(abs(pg.riemann[i, j, i, j] + 1) <= 1e-8
                      for i in range(m) for j in range(m) if i != j)
            ok &= float(np.max(np.abs(covariant_h(gm, x).h_cov))) <= 1e-8
            ok &= ricci_bound_check(gm, x) >= -1e-10
        return bool(ok), "H=1, S=m, K=-1, parallel h, ricci margin"

    @check("catenoid-maximal-from-jets")
    def _():
        gm = GraphMap.from_strings(2, ["asinh(sqrt(x1^2+x2^2))"])
        worst = max(fundamental_forms(gm, [r * np.cos(t), r * np.sin(t)]).H_norm
                    for r in (0.6, 1.0, 1.7) for t in (0.0, 1.1, 2.5))
        return worst <= 1e-9, f"max |H| {worst:.2e}"

    @check("pseudo-distance-identities")
    def _():
        gm1 = GraphMap.from_strings(1, ["0.6*x1"])
        pd1 = pseudo_distance(gm1, [1.0])
        ok = abs(pd1.z - 0.64) <= 1e-12 and abs(pd1.ratio - 1.6 / 1.64) <= 1e-12
        gm2 = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2) - 1"])
        pd2 = pseudo_distance(gm2, [1.0, 0.0])
        ok &= abs(pd2.z - (2 * np.sqrt(2) - 2)) <= 1e-12
        for gm, x in ((gm1, [0.7]), (gm2, [0.5, -0.4])):
            pd = pseudo_distance(gm, x)
            ok &= abs(np.trace(pd.hess) - pd.lap) <= 1e-10 * (1 + abs(pd.lap))
        return bool(ok), "hand values and trace(hess z) = lap z"

    @check("grassmann-distance-oracles")
    def _():
        ok = True
        for _ in range(20):
            m = int(rng.integers(1, 4))
            A = rng.normal(size=(1, m))
            A *= 0.8 * rng.uniform(0.1, 1) / np.linalg.svd(A, compute_uv=False)[0]
            B = rng.normal(size=(1, m))
            B *= 0.8 * rng.uniform(0.1, 1) / np.linalg.svd(B, compute_uv=False)[0]
            P, Q = SpacelikePlane(A), SpacelikePlane(B)
            ok &= abs(distance(P, Q) - hyperbolic_distance_n1(P, Q)) <= 1e-8
        u, v = np.array([1.0]), np.array([0.6, 0.8])
        P = SpacelikePlane(np.tanh(0.4) * np.outer(u, v))
        Q = SpacelikePlane(np.tanh(1.5) * np.outer(u, v))
        ok &= abs(distance(P, Q) - 1.1) <= 1e-9
        return bool(ok), "n=1 arccosh oracle and boost additivity"

    @check("gauss-map-pullback-trace")
    def _():
        worst = 0.0
        for _ in range(3):
            gm, x = random_graph(2, 2)
            tr, S = pullback_trace(gm, x)
            worst = max(worst, abs(tr - S) / (1 + S))
        return worst <= 1e-3, f"max |trace - S| ratio {worst:.2e}"

    @check("lagrangian-cross-module")
    def _():
        worst = 0.0
        for _ in range(5):
            terms = ["0.5*x1^2", "0.5*x2^2"]
            for mono in ("x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^4", "x2^4"):
                terms.append(f"({float(0.1 * rng.normal())!r})*{mono}")
            P = Potential.from_string(2, "+".join(terms))
            x = rng.uniform(-0.3, 0.3, 2)
            if not gradient_graph(P, x).convex:
                continue
            lf = lagrangian_forms(P, x)
            si = to_standard(P, x)
            worst = max(worst, abs(si.geometry.S - lf.S) / (1 + lf.S))
        return worst <= 1e-8, f"max S deviation {worst:.2e}"

    @check("moduli-curvature-oracle")
    def _():
        worst = 0.0
        for _ in range(5):
            terms = ["0.5*x1^2", "0.5*x2^2"]
            for mono in ("x1^3", "x2^3", "x1^2*x2^2", "x1^4", "x2^4"):
                terms.append(f"({float(0.1 * rng.normal())!r})*{mono}")
            P = Potential.from_string(2, "+".join(terms))
            x = rng.uniform(-0.3, 0.3, 2)
            if not gradient_graph(P, x).convex:
                continue
            mc = moduli_curvature(P, x)
            oracle = moduli_curvature_oracle(P, x)
            worst = max(worst, float(np.max(np.abs(mc.riemann - oracle))
                                     / max(np.max(np.abs(oracle)), 1e-10)))
        Pq = Potential.from_string(2, "x1^2 + 0.3*x1*x2 + 0.7*x2^2")
        quad_ok = np.all(moduli_curvature(Pq, [0.4, 0.1]).riemann == 0.0)
        return worst <= 1e-6 and bool(quad_ok), f"max rel dev {worst:.2e}, quadratic exact zero"

    @check("solver-exactness")
    def _():
        lat = Lattice.box((-1, -1), (1, 1), 17)
        fld, log = solve_maximal(lat, parse("0.25*x1 - 0.1*x2", 2))
        pts = node_points(lat)
        exact = 0.25 * pts[:, 0] - 0.1 * pts[:, 1]
        ok = float(np.max(np.abs(fld.values.ravel() - exact))) <= 1e-12
        fld2, log2 = solve_ma(lat, parse("0.5*(x1^2+x2^2)", 2), c=1.0, tol=1e-12)
        exact2 = 0.5 * np.sum(pts**2, axis=1)
        ok &= float(np.max(np.abs(fld2.values.ravel() - exact2))) <= 1e-10
        return bool(ok), "affine maximal data and quadratic MA data reproduced"

    @check("simons-slack-hyperboloid")
    def _():
        gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)"])
        rep = simons_report(gm, Lattice.box((-0.5, -0.5), (0.5, 0.5), 5))
        return rep.min_slack >= -1e-6, f"min slack {rep.min_slack:.4f}"

    @check("completeness-probe-inequality")
    def _():
        gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2) - 1"])
        (rep,) = completeness_probe(gm, [np.array([1.0, 0.0])], T=2.0, n_samples=50)
        return rep.b_emp <= rep.ratio_sup + 1e-3, (
            f"b_emp {rep.b_emp:.4f} <= ratio sup {rep.ratio_sup:.4f}")

    return checks


def cmd_check(cfg: dict) -> int:
    suites, results, details = [], [], []
    for name, fn in _battery(cfg["seed"]):
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {type(err).__name__}: {err}"
        suites.append(name)
        results.append("pass" if ok else "FAIL")
        details.append(detail)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    write_records(cfg["out"], {"suite": suites, "result": results, "detail": details},
                  _meta(cfg), cfg["format"])
    return EXIT_INVARIANT if "FAIL" in results else EXIT_OK


COMMANDS = {"analyze": cmd_analyze, "lagrangian": cmd_lagrangian, "solve-maximal": cmd_solve,
            "solve-ma": cmd_solve, "scan": cmd_scan, "check": cmd_check}


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is a config error (exit 1), not argparse's exit 2."""
        raise ConfigError(message.removeprefix("argument "))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="spacelike",
        description="space-like graph geometry: batch analysis, lattice solvers, "
                    "decay scans and invariant checks",
    )
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("--config", help="path to the JSON job configuration")
    ap.add_argument("--out", help="output file (default: stdout or command default)")
    ap.add_argument("--format", choices=["csv", "json"], default=None)
    ap.add_argument("--oracle", action="store_true", default=None,
                    help="emit independent-oracle comparison columns")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for sample-point jitter in property suites")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](load_config(args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # the output file cannot be written
        print(f"config error: out: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, NotSpacelikeError, NotConvexError, BasePointError,
            DomainError, LatticeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
