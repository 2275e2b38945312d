"""Seeded inputs, job lists and correctness checks of the benchmark workloads.

A workload is a list of jobs that one client runs back to back (a closed
loop).  A job drives the package only through its public surface:
``spacelike.cli.main`` in-process, or a public library function.  Each job
has two parts:

* ``call`` runs the program and is the only part that is timed;
* ``check`` reads what the call produced and returns the bytes that must
  repeat exactly between repeats of the job, one pass/fail flag per
  operation, and the worst error against an exact reference.

Inputs depend only on the seed and the size.  The seed moves coefficients,
directions and rotations, never the structure of an expression or the
size of a lattice, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spacelike
from spacelike import bernstein, cli, exprparse

WORKLOADS = ("pointwise", "solve", "rigidity")

# Lattice sizes, scaled down from the starting sizes listed in README.md so that one job
# list takes 2 to 4 s and a 30 s run holds several job lists; the layer mix of
# each workload is unchanged.  "smoke" is only for the smoke test.
SIZES = {
    "full": {
        "hyperboloid_nodes": 13, "m3_nodes": 4, "lagrangian_nodes": 7,
        "catenoid_nodes": 97, "ma_nodes": 33, "scan_nodes": 33,
        "estimate_nodes": 21, "simons_nodes": 7, "probe_dirs": 3, "probe_samples": 40,
    },
    "smoke": {
        "hyperboloid_nodes": 7, "m3_nodes": 3, "lagrangian_nodes": 5,
        "catenoid_nodes": 33, "ma_nodes": 9, "scan_nodes": 17,
        "estimate_nodes": 9, "simons_nodes": 5, "probe_dirs": 1, "probe_samples": 10,
    },
}

NON_SPACELIKE_SHARE = 0.25   # target share of m=3 nodes that are not space-like
EXACT_TOL = 1e-9             # closed forms evaluated from exact jets
RICCI_TOL = 1e-10            # Ricci margin >= -RICCI_TOL
ORACLE_TOL = 1e-6            # moduli-curvature oracle (finite-differenced)
PROBE_TOL = 1e-6             # geodesic ODE against 2 cosh(s) - 2, relative
ACCURACY_FLOOR = 1e-12       # errors below this are rounding noise
CATENOID_TOL = 0.15          # max error / spacing^2 (0.072 measured at 97 nodes)
SCAN_SLOPE = (-2.6, -1.4)    # decay slope window of the Bernstein experiment
# Lattice paths are never shorter than the geodesic, so Dijkstra radii
# undershoot asinh(r) only by quadrature rounding.  They overshoot by the
# metrication error, which the anisotropic hyperboloid metric pushes past
# the flat bound of 8.2 percent: 14 percent measured at 21^2 nodes.
DIJKSTRA_UNDERSHOOT = 1e-9
DIJKSTRA_OVERSHOOT = 0.25
SOLVER_TOL = 1e-10


@dataclass
class Outcome:
    blob: bytes          # everything the job produced, compared between repeats
    ok: list             # one bool per operation
    error: float = 0.0   # worst error against an exact reference
    bytes_out: int = 0   # bytes of output files written by the CLI


@dataclass
class Job:
    name: str
    ops: int             # operations attempted per call
    points: int          # points x components the job asks about (jet denominator)
    call: Callable[[], object]
    check: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Helpers shared by the jobs

def _write_config(workdir: Path, name: str, payload: dict) -> str:
    path = workdir / f"{name}.config.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def _cli_job(name, argv, out_path, ops, points, check_text) -> Job:
    """A CLI command run in-process; check_text(stdout, file_text) -> (ok, error)."""

    def call():
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(res):
        code, stdout = res
        data = Path(out_path).read_bytes()
        blob = f"exit={code}\n{stdout}".encode() + data
        if code != 0:
            return Outcome(blob, [False] * ops, 0.0, len(data))
        ok, err = check_text(stdout, data.decode())
        return Outcome(blob, ok, err, len(data))

    return Job(name, ops, points, call, check)


def _csv_rows(text: str) -> list[dict]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _node_coords(lo, hi, shape) -> np.ndarray:
    axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, shape)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _blob(obj) -> bytes:
    """Exact, deterministic bytes of a result made of dataclasses and arrays."""

    def plain(v):
        if is_dataclass(v):
            return {f.name: plain(getattr(v, f.name)) for f in fields(v)}
        if isinstance(v, np.ndarray):
            return [plain(x) for x in v.tolist()] if v.ndim else plain(v.item())
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return int(v)
        return repr(v)

    return json.dumps(plain(obj)).encode()


def _final_residual(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("final residual "):
            return float(line.split()[2])
    return np.inf


def _inside(r, lo, hi, band=1e-9):
    """True inside (lo, hi), False outside, None within the band of an edge,
    where the lattice mask may go either way."""
    if abs(r - lo) <= band or abs(r - hi) <= band:
        return None
    return lo < r < hi


def _square_symmetry(rng) -> np.ndarray:
    """One of the 8 symmetries of a square centred at 0, as y = g x.

    The m=2 inputs are fixed shapes in y, mapped to x by a seeded symmetry
    of their (symmetric) lattice: every seed then asks for the same work and
    reaches the same accuracy, which keeps the runs of different seeds
    comparable, while the program still sees different numbers.
    """
    return np.eye(2)[list(rng.permutation(2))] * rng.choice([-1.0, 1.0], size=(2, 1))


def _in_x(template: str, g: np.ndarray) -> str:
    """Write a template over y1, y2 in the variables x1, x2, with y = g x."""
    for i in range(2):
        j = int(np.argmax(np.abs(g[i])))
        template = template.replace(f"y{i + 1}", f"({'-' if g[i, j] < 0 else ''}x{j + 1})")
    return template


# ---------------------------------------------------------------------------
# pointwise: jets -> frames/h -> curvature -> Gauss map over lattices

def _m3_components(rng) -> list[str]:
    """Two polynomial/trig components over x1..x3 with a fixed term structure."""
    comps = []
    monos = ["x1", "x2", "x3", "x1*x2", "x3^2", "x1*x2*x3"]
    for s in range(2):
        terms = [f"({float(c)!r})*{mono}" for c, mono in zip(rng.normal(size=len(monos)), monos)]
        amp, k1, k2 = rng.normal(), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        trig = "sin" if s == 0 else "cos"
        terms.append(f"({float(amp)!r})*{trig}(({float(k1)!r})*x{s + 1}+({float(k2)!r})*x3)")
        comps.append("+".join(terms))
    return comps


def _max_singular_values(exprs, pts, h=1e-6) -> np.ndarray:
    """Largest singular value of Df at each point, by central differences."""
    m = pts.shape[1]
    D = np.zeros((pts.shape[0], len(exprs), m))
    for d in range(m):
        e = np.zeros(m)
        e[d] = h
        for s, ex in enumerate(exprs):
            D[:, s, d] = (exprparse.eval_values(ex, pts + e) - exprparse.eval_values(ex, pts - e)) / (2 * h)
    return np.linalg.svd(D, compute_uv=False)[:, 0]


def _spacelike_scale(sigma: np.ndarray, share: float) -> tuple[float, int]:
    """Scale lam such that `share` of the nodes have lam * sigma > 1.

    The cut sits halfway between two neighbouring sorted values, so that no
    node is at the space-like threshold; if those two nearly tie, the
    nearest count with a clear gap is taken instead.
    """
    desc = np.sort(sigma)[::-1]
    target = int(round(share * desc.size))
    for k in sorted(range(1, desc.size), key=lambda j: abs(j - target)):
        if desc[k - 1] - desc[k] > 1e-6 * desc[k - 1]:
            return 2.0 / (desc[k - 1] + desc[k]), k
    raise ValueError("no gap in the singular values")


def _pointwise(rng, size, workdir: Path):
    jobs = []
    info = {}

    # analyze on the hyperboloid: H = 1 and S = m at every active node
    R = 2.0
    n1 = size["hyperboloid_nodes"]
    out1 = str(workdir / "hyperboloid.csv")
    cfg1 = _write_config(workdir, "hyperboloid", {
        "m": 2, "n": 1, "components": ["sqrt(1+x1^2+x2^2)-1"],
        "lattice": {"lo": [-R, -R], "hi": [R, R], "nodes": n1, "mask": {"kind": "disc", "r_max": R}},
        "out": out1, "format": "csv",
    })
    exprparse.parse("sqrt(1+x1^2+x2^2)-1", 2)
    coords1 = _node_coords((-R, -R), (R, R), (n1, n1))
    active1 = int(np.sum(np.linalg.norm(coords1, axis=1) <= R * (1 + 1e-9)))

    def check_hyperboloid(stdout, text):
        ok, err = [], 0.0
        for row in _csv_rows(text):
            r = float(np.hypot(float(row["x1"]), float(row["x2"])))
            inside = _inside(r, 0.0, R)
            if row["status"] == "inactive":
                ok.append(inside is not True)
                continue
            H, S = float(row["H_norm"]), float(row["S"])
            e = max(abs(H - 1.0), abs(S - 2.0))
            err = max(err, e)
            ok.append(row["status"] == "ok" and inside is not False and e <= EXACT_TOL
                      and float(row["ricci_margin"]) >= -RICCI_TOL
                      and 2 * H * H <= S * (1 + 1e-12) + 1e-12)
        return ok, err

    jobs.append(_cli_job("analyze-hyperboloid", ["analyze", "--config", cfg1], out1,
                         n1 * n1, active1, check_hyperboloid))

    # analyze on a seeded m=3, n=2 graph, scaled so that a share of nodes is not space-like
    n2 = size["m3_nodes"]
    comps = _m3_components(rng)
    exprs = [exprparse.parse(c, 3) for c in comps]
    coords2 = _node_coords((-1.0,) * 3, (1.0,) * 3, (n2,) * 3)
    sigma = _max_singular_values(exprs, coords2)
    lam, n_bad = _spacelike_scale(sigma, NON_SPACELIKE_SHARE)
    expect_bad = lam * sigma > 1.0
    scaled = [f"({float(lam)!r})*({c})" for c in comps]
    for c in scaled:
        exprparse.parse(c, 3)
    out2 = str(workdir / "graph_m3.csv")
    cfg2 = _write_config(workdir, "graph_m3", {
        "m": 3, "n": 2, "components": scaled,
        "lattice": {"lo": [-1, -1, -1], "hi": [1, 1, 1], "nodes": n2},
        "out": out2, "format": "csv",
    })
    info["m3_non_spacelike_share"] = n_bad / expect_bad.size
    info["m3_non_spacelike_nodes"] = f"{n_bad}/{expect_bad.size}"

    def check_m3(stdout, text):
        ok = []
        for k, row in enumerate(_csv_rows(text)):
            if expect_bad[k]:
                ok.append(row["status"] == "not-spacelike")
                continue
            H, S = float(row["H_norm"]), float(row["S"])
            ok.append(row["status"] == "ok" and float(row["ricci_margin"]) >= -RICCI_TOL
                      and 3 * H * H <= S * (1 + 1e-12) + 1e-12)
        return ok, 0.0

    jobs.append(_cli_job("analyze-m3", ["analyze", "--config", cfg2], out2,
                         expect_bad.size, 2 * expect_bad.size, check_m3))

    # lagrangian --oracle on a convex potential: a quadratic plus two exponential
    # ridges at an angle (one ridge alone gives a flat Hessian metric)
    n3 = size["lagrangian_nodes"]
    potential = _in_x("0.5*(1.1*y1^2+0.9*y2^2)+0.15*exp(0.4777*y1+0.1478*y2)"
                      "+0.12*exp(-0.1616*y1+0.4732*y2)", _square_symmetry(rng))
    exprparse.parse(potential, 2)
    out3 = str(workdir / "lagrangian.csv")
    cfg3 = _write_config(workdir, "lagrangian", {
        "m": 2, "potential": potential,
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": n3},
        "out": out3, "format": "csv",
    })

    def check_lagrangian(stdout, text):
        ok, err = [], 0.0
        for row in _csv_rows(text):
            det, ma = float(row["det_hess"]), float(row["ma_residual"])
            oracle = float(row["riemann_oracle_err"])
            err = max(err, oracle)
            ok.append(row["status"] == "ok" and float(row["min_eig_hess"]) > 0
                      and abs(ma - (det - 1.0)) <= 1e-12 * (1 + abs(det))
                      and oracle <= ORACLE_TOL and float(row["S"]) >= 0)
        return ok, err

    jobs.append(_cli_job("lagrangian-oracle", ["lagrangian", "--config", cfg3, "--oracle"],
                         out3, n3 * n3, n3 * n3, check_lagrangian))
    return jobs, info


# ---------------------------------------------------------------------------
# solve: damped-Newton lattice solves with continuation

def _solve(rng, size, workdir: Path):
    jobs = []

    # catenoid on an annulus: the maximal graph asinh(r)
    r0, r1 = 0.5, 2.0
    n1 = size["catenoid_nodes"]
    out1 = str(workdir / "catenoid.json")
    exprparse.parse("asinh(sqrt(x1^2+x2^2))", 2)
    cfg1 = _write_config(workdir, "catenoid", {
        "m": 2, "n": 1, "components": ["asinh(sqrt(x1^2+x2^2))"],
        "lattice": {"lo": [-r1, -r1], "hi": [r1, r1], "nodes": n1,
                    "mask": {"kind": "annulus", "r_min": r0, "r_max": r1}},
        "solver": {"tol": SOLVER_TOL}, "out": out1, "format": "json",
    })

    def check_catenoid(stdout, text):
        payload = json.loads(text)
        lat = payload["lattice"]
        radius = np.linalg.norm(_node_coords(lat["lo"], lat["hi"], lat["shape"]), axis=1)
        good = _final_residual(stdout) <= SOLVER_TOL
        err = 0.0
        for r, v in zip(radius, payload["values"]):
            inside = _inside(r, r0, r1)
            if v is None:
                good &= inside is not True
            else:
                good &= inside is not False
                err = max(err, abs(v - np.arcsinh(r)))
        spacing = (lat["hi"][0] - lat["lo"][0]) / (lat["shape"][0] - 1)
        return [bool(good and err <= CATENOID_TOL * spacing**2)], err

    jobs.append(_cli_job("solve-maximal-catenoid", ["solve-maximal", "--config", cfg1], out1,
                         1, 0, check_catenoid))

    # Monge-Ampere on a box with non-quadratic convex data
    n2 = size["ma_nodes"]
    data = _in_x("0.5*(y1^2+y2^2)+0.08*sin(1.1*y1)*sin(0.9*y2)+0.05*exp(0.6*y1+0.3*y2)",
                 _square_symmetry(rng))
    data_expr = exprparse.parse(data, 2)
    out2 = str(workdir / "ma.json")
    cfg2 = _write_config(workdir, "ma", {
        "m": 2, "potential": data,
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": n2},
        "solver": {"tol": SOLVER_TOL}, "out": out2, "format": "json",
    })

    def check_ma(stdout, text):
        payload = json.loads(text)
        lat = payload["lattice"]
        shape = tuple(lat["shape"])
        vals = np.array([np.nan if v is None else v for v in payload["values"]]).reshape(shape)
        pts = _node_coords(lat["lo"], lat["hi"], shape)
        edge = np.zeros(shape, dtype=bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        exact = exprparse.eval_values(data_expr, pts).reshape(shape)
        d1 = vals[2:, 1:-1] - 2 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]
        d2 = vals[1:-1, 2:] - 2 * vals[1:-1, 1:-1] + vals[1:-1, :-2]
        good = (_final_residual(stdout) <= SOLVER_TOL and np.all(np.isfinite(vals))
                and np.max(np.abs(vals[edge] - exact[edge])) <= 1e-12
                and np.all(d1 > 0) and np.all(d2 > 0))
        return [bool(good)], 0.0

    jobs.append(_cli_job("solve-ma", ["solve-ma", "--config", cfg2], out2, 1, 0, check_ma))

    # Bernstein decay scan of an affine-plus-sine boundary shape
    radii = [4.0, 8.0, 16.0]
    shape_expr = _in_x("0.3*y1 + 0.1*sin(y2)", _square_symmetry(rng))
    exprparse.parse(shape_expr, 2)
    out3 = str(workdir / "scan.csv")
    cfg3 = _write_config(workdir, "scan", {
        "m": 2, "n": 1, "components": [shape_expr], "radii": radii,
        "scan": {"nodes": size["scan_nodes"]}, "solver": {"tol": SOLVER_TOL},
        "out": out3, "format": "csv",
    })

    def check_scan(stdout, text):
        rows = _csv_rows(text)
        slope = np.nan
        for line in stdout.splitlines():
            if line.startswith("scan: fitted log-log slope "):
                slope = float(line.rsplit(" ", 1)[1])
        slope_ok = SCAN_SLOPE[0] <= slope <= SCAN_SLOPE[1]
        ok = [slope_ok and row["status"] == "ok" and float(row["s_center"]) > 0 for row in rows]
        return ok + [False] * (len(radii) - len(ok)), 0.0

    jobs.append(_cli_job("scan", ["scan", "--config", cfg3], out3, len(radii), 0, check_scan))
    return jobs, {}


# ---------------------------------------------------------------------------
# rigidity: Dijkstra radii, Simons slack and geodesic-ODE probes

def _rigidity(rng, size, workdir: Path):
    jobs = []

    # estimate_report on the hyperboloid: radii asinh(r), S = 2, H = 1
    R, a = 2.0, 1.5
    n1 = size["estimate_nodes"]
    hyp = spacelike.GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)-1"])
    lat1 = spacelike.Lattice.box((-R, -R), (R, R), n1)

    def call_estimate():
        return bernstein.estimate_report(hyp, [0.0, 0.0], a, lat1)

    def check_estimate(rep):
        exact = np.arcsinh(np.linalg.norm(rep.points, axis=1))
        err = float(np.max(np.abs(rep.r - exact)))
        closed = max(float(np.max(np.abs(rep.S - 2.0))), float(np.max(np.abs(rep.H_norm - 1.0))),
                     float(np.max(np.abs(rep.mu_dist - exact))))
        good = (rep.points.shape[0] > 1 and closed <= EXACT_TOL
                and np.all(rep.r >= exact - DIJKSTRA_UNDERSHOOT)
                and np.all(rep.r <= exact * (1 + DIJKSTRA_OVERSHOOT))
                and 0 < rep.ratio28 < np.inf and 0 < rep.ratio29 < np.inf)
        return Outcome(_blob(rep), [bool(good)], max(err, closed))

    jobs.append(Job("estimate-report", 1, n1 * n1, call_estimate, check_estimate))

    # simons_report on the m=3 hyperboloid: parallel h, S = m, nonnegative slack
    n2 = size["simons_nodes"]
    hyp3 = spacelike.GraphMap.from_strings(3, ["sqrt(1+x1^2+x2^2+x3^2)"])
    lat2 = spacelike.Lattice.box((-0.5,) * 3, (0.5,) * 3, n2)

    def call_simons():
        return spacelike.simons_report(hyp3, lat2)

    def check_simons(rep):
        closed = float(np.max(np.abs(rep.s_values - 3.0)))
        good = rep.min_slack >= -1e-6 and rep.dh_max <= 1e-8 and closed <= EXACT_TOL
        return Outcome(_blob(rep), [bool(good)], closed)

    jobs.append(Job("simons-report", 1, n2**3, call_simons, check_simons))

    # completeness_probe on the shifted hyperboloid along seeded directions
    k, ns, T = size["probe_dirs"], size["probe_samples"], 2.0
    shifted = spacelike.GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)"]).with_base_point()
    g = _square_symmetry(rng)
    dirs = [g.T @ (length * np.array([np.cos(t), np.sin(t)]))
            for t, length in zip((0.3, 2.2, 4.1, 5.3), (1.0, 0.7, 1.6, 1.2))][:k]

    def call_probe():
        return bernstein.completeness_probe(shifted, dirs, T=T, n_samples=ns)

    def check_probe(reps):
        ok, err = [], 0.0
        for rep in reps:
            exact = 2 * np.cosh(rep.t) - 2
            e = float(np.max(np.abs(rep.z - exact)))
            err = max(err, e)
            ok.append(rep.status == "ok" and e <= PROBE_TOL * (1 + float(exact.max()))
                      and rep.b_emp <= rep.ratio_sup + 1e-3)
        return Outcome(_blob(reps), ok + [False] * (k - len(ok)), err)

    jobs.append(Job("completeness-probe", k, k * ns, call_probe, check_probe))
    return jobs, {}


_BUILDERS = {"pointwise": _pointwise, "solve": _solve, "rigidity": _rigidity}


def build(workload: str, seed: int, size: str, workdir: Path):
    """Generate the workload's inputs from the seed; returns (jobs, info)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](rng, SIZES[size], workdir)


def accuracy(errors) -> float:
    """Worst error, floored so that rounding noise does not read as a change."""
    return max(ACCURACY_FLOOR, max(errors, default=0.0))

