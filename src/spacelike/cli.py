"""Command-line surface.

Commands: analyze | lagrangian | solve-maximal | solve-ma | scan | check.
Configuration comes from a single JSON file plus flag overrides
(--config, --out, --format, --oracle, --seed).  Exit codes:
0 success (warnings allowed), 1 config error, 2 numerical failure,
3 invariant violation (check only).

Output is fully deterministic: records are emitted in lexicographic node
order and floats are printed with shortest round-trip repr, so identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import lattice as lat_mod
from .bernstein import ScanConfig, completeness_probe, decay_scan
from .exprparse import DomainError, ParseError, parse
from .graphgeom import (
    SPACELIKE_TOL, BasePointError, GraphMap, NotSpacelikeError, _extremal_residual,
    _pseudo_distance, _ricci_margin, _take, _with_curvature, covariant_h, curvature,
    fundamental_forms, graph_geometry, pseudo_distance, ricci_bound_check, signature,
)
from .grassmann import SpacelikePlane, _distances, distance, gauss_map
from .lagrangian import (
    ORACLE_FD_STEP, NotConvexError, Potential, _gradient_graph, _lagrangian_forms, _moduli_oracle,
    _potential_jets, _shifted_jets, gradient_graph, lagrangian_forms, moduli_curvature,
    moduli_curvature_arrays, moduli_curvature_oracle, to_standard,
)
from .lattice import Lattice, LatticeError
from .solver import SolverError, save_field, solve_ma, solve_maximal

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    pass


@dataclass
class JobConfig:
    command: str
    m: int = 2
    n: int = 1
    components: list = field(default_factory=list)
    potential: str = None
    lattice: Lattice = None
    tol: float = 1e-10
    max_iter: int = 40
    c: float = 1.0
    delta_safe: float = 1e-6
    radii: list = field(default_factory=list)
    scan: ScanConfig = field(default_factory=ScanConfig)
    out: str = None
    format: str = "csv"
    oracle: bool = False
    seed: int = 0
    raw: dict = field(default_factory=dict)


def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _as(kind, value, path):
    """``kind(value)`` (int or float), or a ConfigError naming the entry."""
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}: must be {what}, got {value!r}") from err


def _object(value, path) -> dict:
    _require(isinstance(value, dict), path, "must be an object")
    return value


def _parse_lattice(d: dict, path: str) -> Lattice:
    _object(d, path)
    lo = d.get("lo")
    hi = d.get("hi")
    _require(isinstance(lo, list) and isinstance(hi, list), path, "needs lo and hi arrays")
    _require(len(lo) == len(hi), path, "lo and hi must have equal length")
    lo = tuple(_as(float, v, f"{path}.lo[{i}]") for i, v in enumerate(lo))
    hi = tuple(_as(float, v, f"{path}.hi[{i}]") for i, v in enumerate(hi))
    mask = None
    md = d.get("mask")
    if md is not None:
        kind = _object(md, f"{path}.mask").get("kind")
        if kind == "disc":
            mask = ("disc", _as(float, md.get("r_max"), f"{path}.mask.r_max"))
        elif kind == "annulus":
            r_min = _as(float, md.get("r_min"), f"{path}.mask.r_min")
            r_max = _as(float, md.get("r_max"), f"{path}.mask.r_max")
            _require(0 < r_min < r_max, f"{path}.mask", "needs 0 < r_min < r_max")
            mask = ("annulus", r_min, r_max)
        else:
            raise ConfigError(f"{path}.mask.kind: unknown kind {kind!r}")
    try:
        if d.get("spacing") is not None:
            spacing = _as(float, d["spacing"], f"{path}.spacing")
            _require(spacing > 0, f"{path}.spacing", "must be > 0")
            return Lattice.from_spacing(lo, hi, spacing, mask=mask)
        nodes = d.get("nodes")
        _require(nodes is not None, path, "needs spacing or nodes")
        if not isinstance(nodes, list):
            nodes = [nodes] * len(lo)
        return Lattice(lo, hi, tuple(_as(int, v, f"{path}.nodes") for v in nodes), mask)
    except LatticeError as err:
        raise ConfigError(f"{path}: {err}") from err


def load_config(args) -> JobConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
    _object(raw, "config")
    cfg = JobConfig(command=args.command, raw=raw)
    cfg.m = _as(int, raw.get("m", cfg.m), "m")
    cfg.n = _as(int, raw.get("n", cfg.n), "n")
    _require(cfg.m >= 1, "m", "must be >= 1")
    _require(cfg.n >= 1, "n", "must be >= 1")
    cfg.components = raw.get("components", [])
    _require(isinstance(cfg.components, list), "components", "must be an array")
    for i, text in enumerate(cfg.components):
        _require(isinstance(text, str), f"components[{i}]", "must be an expression string")
    cfg.potential = raw.get("potential")
    _require(cfg.potential is None or isinstance(cfg.potential, str), "potential",
             "must be an expression string")
    if "lattice" in raw:
        cfg.lattice = _parse_lattice(raw["lattice"], "lattice")
    sol = _object(raw.get("solver", {}), "solver")
    cfg.tol = _as(float, sol.get("tol", cfg.tol), "solver.tol")
    cfg.max_iter = _as(int, sol.get("max_iter", cfg.max_iter), "solver.max_iter")
    cfg.c = _as(float, sol.get("c", cfg.c), "solver.c")
    cfg.delta_safe = _as(float, sol.get("delta_safe", cfg.delta_safe), "solver.delta_safe")
    _require(cfg.tol > 0, "solver.tol", "must be > 0")
    radii = raw.get("radii", [])
    _require(isinstance(radii, list), "radii", "must be an array")
    cfg.radii = [_as(float, a, f"radii[{i}]") for i, a in enumerate(radii)]
    if cfg.radii:
        _require(all(b > a for a, b in zip(cfg.radii, cfg.radii[1:])),
                 "radii", "must be strictly increasing")
    sc = _object(raw.get("scan", {}), "scan")
    cfg.scan = ScanConfig(
        nodes=_as(int, sc.get("nodes", 65), "scan.nodes"),
        policy=sc.get("policy", "fixed-nodes"),
        spacing=_as(float, sc.get("spacing", 0.25), "scan.spacing"),
        domain=sc.get("domain", "disc"),
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        center_fraction=_as(float, sc.get("center_fraction", 0.25), "scan.center_fraction"),
    )
    _require(cfg.scan.policy in ("fixed-nodes", "fixed-spacing"), "scan.policy",
             "must be fixed-nodes or fixed-spacing")
    _require(cfg.scan.domain in ("disc", "box"), "scan.domain", "must be disc or box")
    cfg.out = args.out or raw.get("out")
    _require(cfg.out is None or isinstance(cfg.out, str), "out", "must be a path string")
    cfg.format = args.format or raw.get("format", "csv")
    _require(cfg.format in ("csv", "json"), "format", "must be csv or json")
    cfg.oracle = bool(args.oracle or raw.get("oracle", False))
    cfg.seed = _as(int, args.seed if args.seed is not None else raw.get("seed", 0), "seed")
    return cfg


def _graph_map(cfg: JobConfig) -> GraphMap:
    _require(len(cfg.components) == cfg.n, "components",
             f"expected n={cfg.n} expressions, got {len(cfg.components)}")
    try:
        return GraphMap.from_strings(cfg.m, cfg.components)
    except ParseError as err:
        raise ConfigError(f"components: {err}") from err


def _potential(cfg: JobConfig) -> Potential:
    _require(cfg.potential is not None, "potential", "required in potential mode")
    try:
        return Potential.from_string(cfg.m, cfg.potential, cfg.c)
    except ParseError as err:
        raise ConfigError(f"potential: {err}") from err


# ---------------------------------------------------------------------------
# Deterministic writers

def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v)) if np.isfinite(v) else "nan"
    return str(v)


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if np.isfinite(v) else "nan"
    return v


def _csv_cell(s: str) -> str:
    if any(ch in s for ch in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


def write_records(path, columns, records, meta, fmt):
    if fmt == "csv":
        lines = [",".join(columns)]
        for rec in records:
            lines.append(",".join(_csv_cell(_fmt(rec[c])) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "meta": meta,
            "records": [{c: _json_value(rec[c]) for c in columns} for rec in records],
        }
        text = json.dumps(payload, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _meta(cfg: JobConfig) -> dict:
    return {"version": __version__, "command": cfg.command, "config": cfg.raw}


# ---------------------------------------------------------------------------
# analyze

_NAN_COLS_ANALYZE = ["min_eig", "det_g", "H_norm", "S", "ricci_margin",
                     "extremal_residual", "gauss_dist", "z", "grad_ratio"]


def _node_records(cfg: JobConfig, pts: np.ndarray, status: np.ndarray, cols: dict) -> tuple:
    """Column names and one record per node, from per-node arrays."""
    columns = ["index"] + [f"x{d+1}" for d in range(cfg.m)] + ["status"] + list(cols)
    data = [range(pts.shape[0])] + list(pts.T) + [status] + list(cols.values())
    return columns, [dict(zip(columns, row)) for row in zip(*data)]


def _filled(size: int, rows: np.ndarray, values) -> np.ndarray:
    """A node column: ``values`` on the nodes ``rows`` (an index or mask), nan elsewhere."""
    out = np.full(size, np.nan)
    out[rows] = values
    return out


def cmd_analyze(cfg: JobConfig) -> int:
    gm = _graph_map(cfg).with_base_point()
    _require(cfg.lattice is not None, "lattice", "required for analyze")
    _require(cfg.lattice.m == cfg.m, "lattice", "dimension must match m")
    lat = cfg.lattice
    pts = lat_mod.node_points(lat)
    act = lat_mod.active_mask(lat).ravel()
    base = np.zeros(cfg.m)
    if not (np.all(np.asarray(lat.lo) <= 0) and np.all(np.asarray(lat.hi) >= 0)):
        base = 0.5 * (np.asarray(lat.lo) + np.asarray(lat.hi))
    try:
        ref = gauss_map(gm, base)
    except NotSpacelikeError:
        ref = None

    # one pass over the active nodes; each later stage runs on the nodes
    # that passed the earlier ones, and a node's status is its first failure
    k = pts.shape[0]
    nodes = np.flatnonzero(act)
    geo = graph_geometry(gm, pts[nodes])
    domain = np.not_equal(geo.fault, None)
    framed = ~domain & (geo.min_eig > SPACELIKE_TOL)
    on = nodes[framed]
    fr = _with_curvature(_take(geo, framed))
    planes = SpacelikePlane(fr.A)
    if ref is None:  # no reference plane: the Gauss map is not evaluated
        gauss_dist, gauss_bad = np.full(on.size, np.nan), np.zeros(on.size, dtype=bool)
    else:
        gauss_dist, check = _distances(planes, ref)
        gauss_bad = ~(planes.sigma_max < 1.0) | check[0]
    done = on[~gauss_bad]
    pd = _pseudo_distance(_take(fr, ~gauss_bad), gm.position(pts[done]), signature(cfg.m, cfg.n))

    status = np.where(act, "ok", "inactive").astype(object)
    status[nodes[~domain & ~geo.spacelike]] = "not-spacelike"
    status[nodes[geo.spacelike & ~framed]] = "error:NotSpacelikeError"
    status[on[gauss_bad]] = "error:NotSpacelikeError"
    status[nodes[domain]] = "error:DomainError"
    cols = {
        "min_eig": _filled(k, nodes[~domain], geo.min_eig[~domain]),
        "det_g": _filled(k, nodes[~domain], geo.det_g[~domain]),
        "H_norm": _filled(k, on, fr.H_norm),
        "S": _filled(k, on, fr.S),
        "ricci_margin": _filled(k, on, _ricci_margin(fr, cfg.m)),
        "extremal_residual": _filled(k, on, np.linalg.norm(_extremal_residual(fr), axis=-1)),
        "gauss_dist": _filled(k, on, gauss_dist),
        "z": _filled(k, done, pd.z),
        "grad_ratio": _filled(k, done, pd.ratio),
    }
    columns, records = _node_records(cfg, pts, status, cols)
    write_records(cfg.out, columns, records, _meta(cfg), cfg.format)
    warn = int(np.sum((status != "ok") & (status != "inactive")))
    print(f"analyze: {len(records)} nodes, {warn} warnings")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lagrangian

def cmd_lagrangian(cfg: JobConfig) -> int:
    P = _potential(cfg)
    _require(cfg.lattice is not None, "lattice", "required for lagrangian")
    _require(cfg.lattice.m == cfg.m, "lattice", "dimension must match m")
    pts = lat_mod.node_points(cfg.lattice)
    k = pts.shape[0]

    # one pass over the nodes; each later stage runs on the nodes that
    # passed the earlier ones, and a node's status is its first failure
    _, jet, fault = _potential_jets(P, pts)
    gg = _gradient_graph(pts, jet)
    convex = np.flatnonzero(gg.convex)
    jet_c, gg_c = _take(jet, convex), _take(gg, convex)
    forms, forms_fault = _lagrangian_forms(P, pts[convex], jet_c, gg_c)
    mc = moduli_curvature_arrays(gg_c.metric, gg_c.metric_inv, jet_c.third)
    formed = np.equal(forms_fault, None)
    on = convex[formed]

    clean = np.equal(fault, None)
    status = np.where(clean, "not-convex", "error:DomainError").astype(object)
    status[convex] = np.where(formed, "ok", "error:DomainError")
    cols = {
        "det_hess": _filled(k, clean, gg.det[clean]),
        "min_eig_hess": _filled(k, clean, gg.min_eig[clean]),
        "ma_residual": _filled(k, clean, gg.det[clean] - P.c),
        "S": _filled(k, on, forms.S[formed]),
        "H_norm": _filled(k, on, forms.H_norm[formed]),
        "min_ricci_eig": _filled(k, on, mc.min_ricci_eig[formed]),
        "scalar_curv": _filled(k, on, mc.scalar[formed]),
    }
    if cfg.oracle:
        shifted, oracle_fault = _shifted_jets(P, pts[on], ORACLE_FD_STEP)
        oracle = _moduli_oracle(P, _take(jet_c, formed), shifted, ORACLE_FD_STEP)
        axes = (-4, -3, -2, -1)
        scale = np.maximum(np.max(np.abs(oracle), axis=axes), 1e-10)
        err = np.max(np.abs(mc.riemann[formed] - oracle), axis=axes) / scale
        checked = np.equal(oracle_fault, None)
        cols["riemann_oracle_err"] = _filled(k, on[checked], err[checked])
        status[on[~checked]] = "error:DomainError"
    columns, records = _node_records(cfg, pts, status, cols)
    write_records(cfg.out, columns, records, _meta(cfg), cfg.format)
    warn = int(np.sum(status != "ok"))
    print(f"lagrangian: {len(records)} nodes, {warn} flagged")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solvers

def cmd_solve(cfg: JobConfig) -> int:
    _require(cfg.lattice is not None, "lattice", "required for solve commands")
    if cfg.command == "solve-maximal":
        gm_exprs = cfg.components
        _require(len(gm_exprs) == 1, "components", "solve-maximal needs one boundary expression")
        boundary = parse(gm_exprs[0], cfg.m)
        fld, log = solve_maximal(cfg.lattice, boundary, tol=cfg.tol,
                                 max_iter=cfg.max_iter, delta_safe=cfg.delta_safe)
    else:
        P = _potential(cfg)
        fld, log = solve_ma(cfg.lattice, P.F, c=cfg.c, tol=cfg.tol, max_iter=cfg.max_iter)
    out = cfg.out or "field.json"
    save_field(fld, out, cfg.format if cfg.format in ("csv", "json") else "json")
    for stage, it, res, damp in log.steps:
        print(f"stage={_fmt(stage)} iter={it} residual={_fmt(res)} damping={_fmt(damp)}")
    print(f"final residual {_fmt(log.final_residual)} (tol {_fmt(cfg.tol)}) -> {out}")
    return EXIT_OK


def cmd_scan(cfg: JobConfig) -> int:
    _require(len(cfg.components) == 1, "components", "scan needs one boundary expression")
    _require(len(cfg.radii) >= 1, "radii", "scan needs at least one radius")
    boundary = parse(cfg.components[0], cfg.m)
    scan = decay_scan(boundary, cfg.radii, cfg.scan)
    records = []
    for row in scan.rows:
        records.append({
            "a": row.a, "s_center": row.s_center, "s_center_node": row.s_center_node,
            "nodes": row.nodes, "spacing": row.spacing, "status": row.status,
        })
    meta = _meta(cfg)
    meta["slope"] = _json_value(scan.slope if scan.slope is not None else np.nan)
    meta["slope_kind"] = scan.slope_kind
    write_records(cfg.out, ["a", "s_center", "s_center_node", "nodes", "spacing", "status"],
                  records, meta, cfg.format)
    slope_txt = "exact-zero" if scan.slope_kind == "exact-zero" else _fmt(
        scan.slope if scan.slope is not None else np.nan)
    print(f"scan: fitted log-log slope {slope_txt}")
    if any(r.status != "ok" for r in scan.rows):
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# check: built-in battery aggregating the per-module invariants

def _battery(seed: int):
    import itertools as it

    from .exprparse import pretty
    from .graphgeom import (
        adapted_frames, first_bianchi_residual, frame_riemann_oracle, signature,
        simons_report,
    )
    from .grassmann import (
        hyperbolic_distance_n1, pullback_trace,
    )
    from .jets import finite_diff_check
    from .lattice import Lattice

    rng = np.random.default_rng(seed)

    def random_graph(m, n, degree=3, sigma=0.5):
        terms = []
        point = rng.uniform(-0.3, 0.3, size=m)
        comps = []
        for _ in range(n):
            parts = []
            for alpha in it.product(range(degree + 1), repeat=m):
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
        detail = []
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
        quad_ok = True
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
        pts = lat_mod.node_points(lat)
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


def cmd_check(cfg: JobConfig) -> int:
    checks = _battery(cfg.seed)
    records = []
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {type(err).__name__}: {err}"
        all_ok &= ok
        records.append({"suite": name, "result": "pass" if ok else "FAIL", "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    write_records(cfg.out, ["suite", "result", "detail"], records, _meta(cfg), cfg.format)
    return EXIT_OK if all_ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spacelike",
        description="space-like graph geometry: batch analysis, lattice solvers, "
                    "decay scans and invariant checks",
    )
    ap.add_argument("command", choices=["analyze", "lagrangian", "solve-maximal",
                                        "solve-ma", "scan", "check"])
    ap.add_argument("--config", help="path to the JSON job configuration")
    ap.add_argument("--out", help="output file (default: stdout or command default)")
    ap.add_argument("--format", choices=["csv", "json"], default=None)
    ap.add_argument("--oracle", action="store_true", default=None,
                    help="emit independent-oracle comparison columns")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for sample-point jitter in property suites")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "lagrangian":
            return cmd_lagrangian(cfg)
        if cfg.command in ("solve-maximal", "solve-ma"):
            return cmd_solve(cfg)
        if cfg.command == "scan":
            return cmd_scan(cfg)
        return cmd_check(cfg)
    except (ConfigError, ParseError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, NotSpacelikeError, NotConvexError, BasePointError,
            DomainError, LatticeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
