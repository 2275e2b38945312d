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
    BasePointError, GraphMap, NotSpacelikeError, covariant_h, curvature,
    extremal_residual, fundamental_forms, induced_metric, pseudo_distance,
    ricci_bound_check,
)
from .grassmann import distance, gauss_map
from .lagrangian import (
    NotConvexError, Potential, gradient_graph, lagrangian_forms, ma_residual,
    moduli_curvature, moduli_curvature_oracle, to_standard,
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


def _parse_lattice(d: dict, path: str) -> Lattice:
    _require(isinstance(d, dict), path, "must be an object")
    lo = d.get("lo")
    hi = d.get("hi")
    _require(isinstance(lo, list) and isinstance(hi, list), path, "needs lo and hi arrays")
    _require(len(lo) == len(hi), path, "lo and hi must have equal length")
    mask = None
    md = d.get("mask")
    if md is not None:
        kind = md.get("kind")
        if kind == "disc":
            mask = ("disc", float(md["r_max"]))
        elif kind == "annulus":
            _require(0 < md["r_min"] < md["r_max"], f"{path}.mask", "needs 0 < r_min < r_max")
            mask = ("annulus", float(md["r_min"]), float(md["r_max"]))
        else:
            raise ConfigError(f"{path}.mask.kind: unknown kind {kind!r}")
    try:
        if d.get("spacing") is not None:
            _require(d["spacing"] > 0, f"{path}.spacing", "must be > 0")
            return Lattice.from_spacing(lo, hi, float(d["spacing"]), mask=mask)
        nodes = d.get("nodes")
        _require(nodes is not None, path, "needs spacing or nodes")
        if isinstance(nodes, int):
            nodes = [nodes] * len(lo)
        return Lattice(tuple(map(float, lo)), tuple(map(float, hi)),
                       tuple(int(v) for v in nodes), mask)
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
    cfg = JobConfig(command=args.command, raw=raw)
    cfg.m = int(raw.get("m", cfg.m))
    cfg.n = int(raw.get("n", cfg.n))
    _require(cfg.m >= 1, "m", "must be >= 1")
    _require(cfg.n >= 1, "n", "must be >= 1")
    cfg.components = list(raw.get("components", []))
    cfg.potential = raw.get("potential")
    if "lattice" in raw:
        cfg.lattice = _parse_lattice(raw["lattice"], "lattice")
    sol = raw.get("solver", {})
    cfg.tol = float(sol.get("tol", cfg.tol))
    cfg.max_iter = int(sol.get("max_iter", cfg.max_iter))
    cfg.c = float(sol.get("c", cfg.c))
    cfg.delta_safe = float(sol.get("delta_safe", cfg.delta_safe))
    _require(cfg.tol > 0, "solver.tol", "must be > 0")
    cfg.radii = [float(a) for a in raw.get("radii", [])]
    if cfg.radii:
        _require(all(b > a for a, b in zip(cfg.radii, cfg.radii[1:])),
                 "radii", "must be strictly increasing")
    sc = raw.get("scan", {})
    cfg.scan = ScanConfig(
        nodes=int(sc.get("nodes", 65)),
        policy=sc.get("policy", "fixed-nodes"),
        spacing=float(sc.get("spacing", 0.25)),
        domain=sc.get("domain", "disc"),
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        center_fraction=float(sc.get("center_fraction", 0.25)),
    )
    _require(cfg.scan.policy in ("fixed-nodes", "fixed-spacing"), "scan.policy",
             "must be fixed-nodes or fixed-spacing")
    _require(cfg.scan.domain in ("disc", "box"), "scan.domain", "must be disc or box")
    cfg.out = args.out or raw.get("out")
    cfg.format = args.format or raw.get("format", "csv")
    _require(cfg.format in ("csv", "json"), "format", "must be csv or json")
    cfg.oracle = bool(args.oracle or raw.get("oracle", False))
    cfg.seed = int(args.seed if args.seed is not None else raw.get("seed", 0))
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

    def one(flat):
        rec = {"index": int(flat)}
        for d in range(cfg.m):
            rec[f"x{d+1}"] = float(pts[flat, d])
        if not act[flat]:
            rec["status"] = "inactive"
            for c in _NAN_COLS_ANALYZE:
                rec[c] = np.nan
            return rec
        try:
            mp = induced_metric(gm, pts[flat])
            rec["min_eig"] = mp.min_eig
            rec["det_g"] = mp.det_g
            if not mp.spacelike:
                rec["status"] = "not-spacelike"
                for c in _NAN_COLS_ANALYZE[2:]:
                    rec[c] = np.nan
                return rec
            pg = fundamental_forms(gm, pts[flat])
            rec["H_norm"] = pg.H_norm
            rec["S"] = pg.S
            rec["ricci_margin"] = ricci_bound_check(gm, pts[flat])
            rec["extremal_residual"] = float(np.linalg.norm(extremal_residual(gm, pts[flat])))
            rec["gauss_dist"] = distance(gauss_map(gm, pts[flat]), ref) if ref else np.nan
            pd = pseudo_distance(gm, pts[flat])
            rec["z"] = pd.z
            rec["grad_ratio"] = pd.ratio
            rec["status"] = "ok"
        except (DomainError, NotSpacelikeError) as err:
            rec["status"] = f"error:{type(err).__name__}"
            for c in _NAN_COLS_ANALYZE:
                rec.setdefault(c, np.nan)
        return rec

    records = [one(flat) for flat in range(pts.shape[0])]
    columns = ["index"] + [f"x{d+1}" for d in range(cfg.m)] + ["status"] + _NAN_COLS_ANALYZE
    write_records(cfg.out, columns, records, _meta(cfg), cfg.format)
    warn = sum(1 for r in records if r["status"] not in ("ok", "inactive"))
    print(f"analyze: {len(records)} nodes, {warn} warnings")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lagrangian

def cmd_lagrangian(cfg: JobConfig) -> int:
    P = _potential(cfg)
    _require(cfg.lattice is not None, "lattice", "required for lagrangian")
    _require(cfg.lattice.m == cfg.m, "lattice", "dimension must match m")
    lat = cfg.lattice
    pts = lat_mod.node_points(lat)
    cols = ["det_hess", "min_eig_hess", "ma_residual", "S", "H_norm",
            "min_ricci_eig", "scalar_curv"]
    if cfg.oracle:
        cols.append("riemann_oracle_err")

    def one(flat):
        rec = {"index": int(flat)}
        for d in range(cfg.m):
            rec[f"x{d+1}"] = float(pts[flat, d])
        gg = gradient_graph(P, pts[flat])
        rec["det_hess"] = gg.det
        rec["min_eig_hess"] = gg.min_eig
        rec["ma_residual"] = ma_residual(P, pts[flat])
        if not gg.convex:
            rec["status"] = "not-convex"
            for c in cols[3:]:
                rec[c] = np.nan
            return rec
        lf = lagrangian_forms(P, pts[flat])
        mc = moduli_curvature(P, pts[flat])
        rec["S"] = lf.S
        rec["H_norm"] = lf.H_norm
        rec["min_ricci_eig"] = mc.min_ricci_eig
        rec["scalar_curv"] = mc.scalar
        if cfg.oracle:
            oracle = moduli_curvature_oracle(P, pts[flat])
            scale = max(float(np.max(np.abs(oracle))), 1e-10)
            rec["riemann_oracle_err"] = float(np.max(np.abs(mc.riemann - oracle))) / scale
        rec["status"] = "ok"
        return rec

    records = [one(flat) for flat in range(pts.shape[0])]
    columns = ["index"] + [f"x{d+1}" for d in range(cfg.m)] + ["status"] + cols
    write_records(cfg.out, columns, records, _meta(cfg), cfg.format)
    warn = sum(1 for r in records if r["status"] != "ok")
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
        SpacelikePlane, hyperbolic_distance_n1, pullback_trace,
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
