"""The invariant battery behind ``spacelike check``.

``SUITES`` is one table of (name, suite) rows.  A suite is a function of
the battery's shared random generator that returns (ok, detail): whether
its invariant held on every sample, and one line of the measured values.
The suites draw from the generator in the table's order, so a seed fixes
every sample of the battery.  A suite whose samples a test also draws
takes their count as a keyword, and the test runs it at its own count.

The random-graph sampler ``random_spacelike_graph`` and the closed-form
``hyperboloid`` are the only copies in the package and its tests.  A
suite that bounds a worst deviation folds it with ``_within``, so that a
NaN deviation fails it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .bernstein import completeness_probe
from .exprparse import parse, pretty
from .graphgeom import (
    GraphMap, covariant_h, curvature, first_bianchi_residual, frame_riemann_oracle,
    fundamental_forms, pseudo_distance, ricci_bound_check, signature, simons_report,
)
from .grassmann import SpacelikePlane, distance, hyperbolic_distance_n1, pullback_trace
from .jets import finite_diff_check
from .lagrangian import (
    Potential, gradient_graph, lagrangian_forms, moduli_curvature, moduli_curvature_oracle,
    to_standard,
)
from .lattice import Lattice, node_points
from .solver import solve_ma, solve_maximal


def polynomial_string(rng, m, degree, scale=1.0, low=0):
    """Random polynomial in x1..xm with terms of total degree low..degree,
    coefficients scale * N(0, 1), as DSL text."""
    terms = []
    for alpha in itertools.product(range(degree + 1), repeat=m):
        if not low <= sum(alpha) <= degree:
            continue
        c = float(scale * rng.normal())
        factors = [f"({c!r})"] + [f"x{i+1}^{a}" if a > 1 else f"x{i+1}"
                                  for i, a in enumerate(alpha) if a]
        terms.append("*".join(factors))
    return "+".join(terms)


def random_spacelike_graph(rng, m, n, degree=3, point=None, sigma_target=0.5):
    """Graph map with Jacobian singular values <= sigma_target at `point`
    (drawn in [-0.3, 0.3]^m, before the polynomials, when not given)."""
    if point is None:
        point = rng.uniform(-0.3, 0.3, size=m)
    raw = [polynomial_string(rng, m, degree) for _ in range(n)]
    _, A, _, _ = GraphMap.from_strings(m, raw).jet_data(point, 1)
    lam = float(sigma_target / (1.0 + np.linalg.svd(A, compute_uv=False)[0]))
    scaled = [f"({lam!r})*({s})" for s in raw]
    return GraphMap.from_strings(m, scaled), np.asarray(point, dtype=float)


def hyperboloid(m=2, shifted=False):
    """The graph of sqrt(1 + |x|^2) over R^m, less 1 when ``shifted`` so that X(0) = 0."""
    r2 = "+".join(f"x{i+1}^2" for i in range(m))
    return GraphMap.from_strings(m, [f"sqrt(1+{r2})" + (" - 1" if shifted else "")])


def _within(devs, tol, label):
    """(ok, detail) for the largest of ``devs`` (0 for none) against ``tol``; NaN fails."""
    worst = float(np.max(np.asarray(devs, dtype=float), initial=0.0))
    return worst <= tol, f"{label} {worst:.2e}"


def _convex_potentials(rng, monomials):
    """(P, x) for the convex ones among five potentials 0.5|x|^2 + sum_k c_k monomial_k,
    c_k ~ 0.1 N(0, 1), each drawn with a point x in [-0.3, 0.3]^2."""
    for _ in range(5):
        terms = ["0.5*x1^2", "0.5*x2^2"] + [f"({float(0.1 * rng.normal())!r})*{mono}"
                                            for mono in monomials]
        P = Potential.from_string(2, "+".join(terms))
        x = rng.uniform(-0.3, 0.3, 2)
        if gradient_graph(P, x).convex:
            yield P, x


def exprparse_round_trip(rng):
    """Parsing the pretty-printed form of an expression gives it back."""
    texts = ["x1^2+x2^2", "sqrt(1+x1^2+x2^2)", "sin(x1)*exp(x2)-3/(1+x1^2)",
             "-(x1^3)+pi*x2", "asinh(sqrt(x1^2+x2^2))"]
    bad = [t for t in texts if parse(pretty(parse(t, 2)), 2) != parse(t, 2)]
    return not bad, f"{len(texts) - len(bad)}/{len(texts)} round-trip"


def jets_vs_finite_differences(rng):
    """Jet gradients and Hessians against central differences."""
    reps = [finite_diff_check(parse(s, 2), rng.uniform(-0.5, 0.5, 2), 1e-4)
            for s in ["exp(x1)*sin(x2)", "log(2+x1)*x2^3", "tanh(x1*x2)"]]
    return _within([r.max_rel[k] for r in reps for k in (1, 2)], 1e-5, "max rel dev")


def frame_residual(gm, x) -> float:
    """The largest deviation of the adapted frames at x from
    <e_i, e_j> = delta_ij, <e_s, e_t> = -delta_st and <e_i, e_s> = 0."""
    fr = fundamental_forms(gm, x)
    sig = signature(gm.m, gm.n)
    return float(np.max([np.max(np.abs((fr.tangent * sig) @ fr.tangent.T - np.eye(gm.m))),
                         np.max(np.abs((fr.normal * sig) @ fr.normal.T + np.eye(gm.n))),
                         np.max(np.abs((fr.tangent * sig) @ fr.normal.T))]))


def frames_pseudo_orthonormal(rng):
    """The adapted frames of random graphs are pseudo-orthonormal."""
    return _within([frame_residual(*random_spacelike_graph(
        rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))) for _ in range(5)],
        1e-12, "max residual")


def gauss_equation(rng, graphs=10):
    """Riemann from the Gauss equation against the coordinate oracle, on
    graphs with m in {2, 3} and n in {1, 2} (acceptance 01)."""
    devs = []
    for _ in range(graphs):
        gm, x = random_spacelike_graph(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        ro = frame_riemann_oracle(gm, x)
        devs.append(np.max(np.abs(curvature(gm, x).riemann - ro)) / max(np.max(np.abs(ro)), 1e-10))
    return _within(devs, 1e-6, "max rel dev")


def bianchi_schwarz_ricci_bound(rng):
    """First Bianchi identity, m|H|^2 <= S and the Ricci lower bound."""
    ok = True
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 2, 2)
        pg = curvature(gm, x)
        ok &= first_bianchi_residual(pg.riemann) <= 1e-10 * (1 + np.max(np.abs(pg.riemann)))
        ok &= gm.m * pg.H_norm**2 <= pg.S + 1e-12
        ok &= ricci_bound_check(gm, x) >= -1e-10
    return bool(ok), "bianchi + schwarz + ricci bound on 10 random graphs"


def codazzi_symmetry(rng, graphs=5):
    """The covariant derivative h_sijk is symmetric in i, j, k."""
    chs = [covariant_h(*random_spacelike_graph(rng, 2, 2)) for _ in range(graphs)]
    return _within([ch.codazzi_asym / (1 + float(np.max(np.abs(ch.h_cov)))) for ch in chs],
                   1e-6, "max asymmetry")


def hyperboloid_battery(rng):
    """The hyperboloid: H = 1, S = m, sectional curvature -1, parallel h."""
    ok = True
    for m in (2, 3):
        gm = hyperboloid(m)
        x = np.full(m, 0.3)
        pg = curvature(gm, x)
        ok &= abs(pg.H_norm - 1) <= 1e-9 and abs(pg.S - m) <= 1e-9
        ok &= all(abs(pg.riemann[i, j, i, j] + 1) <= 1e-8
                  for i in range(m) for j in range(m) if i != j)
        ok &= float(np.max(np.abs(covariant_h(gm, x).h_cov))) <= 1e-8
        ok &= ricci_bound_check(gm, x) >= -1e-10
    return bool(ok), "H=1, S=m, K=-1, parallel h, ricci margin"


def catenoid_maximal(rng):
    """The space-like catenoid has H = 0."""
    gm = GraphMap.from_strings(2, ["asinh(sqrt(x1^2+x2^2))"])
    return _within([fundamental_forms(gm, [r * np.cos(t), r * np.sin(t)]).H_norm
                    for r in (0.6, 1.0, 1.7) for t in (0.0, 1.1, 2.5)], 1e-9, "max |H|")


def pseudo_distance_identities(rng):
    """z at hand-computed points, and trace(hess z) = lap z."""
    gm1 = GraphMap.from_strings(1, ["0.6*x1"])
    pd1 = pseudo_distance(gm1, [1.0])
    ok = abs(pd1.z - 0.64) <= 1e-12 and abs(pd1.ratio - 1.6 / 1.64) <= 1e-12
    gm2 = hyperboloid(shifted=True)
    pd2 = pseudo_distance(gm2, [1.0, 0.0])
    ok &= abs(pd2.z - (2 * np.sqrt(2) - 2)) <= 1e-12
    for gm, x in ((gm1, [0.7]), (gm2, [0.5, -0.4])):
        pd = pseudo_distance(gm, x)
        ok &= abs(np.trace(pd.hess) - pd.lap) <= 1e-10 * (1 + abs(pd.lap))
    return bool(ok), "hand values and trace(hess z) = lap z"


def grassmann_distance(rng):
    """Grassmann distance against the n = 1 hyperboloid oracle, and along a boost."""
    ok = True
    for _ in range(20):
        m = int(rng.integers(1, 4))
        P, Q = (SpacelikePlane(A * (0.8 * rng.uniform(0.1, 1)
                                    / np.linalg.svd(A, compute_uv=False)[0]))
                for A in (rng.normal(size=(1, m)) for _ in range(2)))
        ok &= abs(distance(P, Q) - hyperbolic_distance_n1(P, Q)) <= 1e-8
    u, v = np.array([1.0]), np.array([0.6, 0.8])
    P = SpacelikePlane(np.tanh(0.4) * np.outer(u, v))
    Q = SpacelikePlane(np.tanh(1.5) * np.outer(u, v))
    ok &= abs(distance(P, Q) - 1.1) <= 1e-9
    return bool(ok), "n=1 arccosh oracle and boost additivity"


def gauss_map_pullback_trace(rng, graphs=3):
    """The Gauss map's squared stretches over a frame sum to S."""
    traces = [pullback_trace(*random_spacelike_graph(rng, 2, 2)) for _ in range(graphs)]
    return _within([abs(tr - S) / (1 + S) for tr, S in traces], 1e-3, "max |trace - S| ratio")


def lagrangian_cross_module(rng):
    """S of the gradient graph from the potential against the standard-coordinate route."""
    devs = []
    for P, x in _convex_potentials(rng, ("x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^4", "x2^4")):
        S = lagrangian_forms(P, x).S
        devs.append(abs(to_standard(P, x).S - S) / (1 + S))
    return _within(devs, 1e-8, "max S deviation")


def moduli_curvature_check(rng):
    """Moduli-space curvature against its intrinsic oracle; zero for a quadratic."""
    devs = []
    for P, x in _convex_potentials(rng, ("x1^3", "x2^3", "x1^2*x2^2", "x1^4", "x2^4")):
        oracle = moduli_curvature_oracle(P, x)
        devs.append(np.max(np.abs(moduli_curvature(P, x).riemann - oracle))
                    / max(np.max(np.abs(oracle)), 1e-10))
    ok, detail = _within(devs, 1e-6, "max rel dev")
    Pq = Potential.from_string(2, "x1^2 + 0.3*x1*x2 + 0.7*x2^2")
    quad_ok = np.all(moduli_curvature(Pq, [0.4, 0.1]).riemann == 0.0)
    return ok and bool(quad_ok), f"{detail}, quadratic exact zero"


def solver_exactness(rng):
    """The lattice solvers reproduce affine maximal and quadratic Monge-Ampere data."""
    lat = Lattice.box((-1, -1), (1, 1), 17)
    fld, _ = solve_maximal(lat, parse("0.25*x1 - 0.1*x2", 2))
    pts = node_points(lat)
    exact = 0.25 * pts[:, 0] - 0.1 * pts[:, 1]
    ok = float(np.max(np.abs(fld.values.ravel() - exact))) <= 1e-12
    fld2, _ = solve_ma(lat, parse("0.5*(x1^2+x2^2)", 2), c=1.0, tol=1e-12)
    exact2 = 0.5 * np.sum(pts**2, axis=1)
    ok &= float(np.max(np.abs(fld2.values.ravel() - exact2))) <= 1e-10
    return bool(ok), "affine maximal data and quadratic MA data reproduced"


def simons_slack_hyperboloid(rng):
    """The Simons-type inequality holds with slack on the hyperboloid."""
    rep = simons_report(hyperboloid(), Lattice.box((-0.5, -0.5), (0.5, 0.5), 5))
    return rep.min_slack >= -1e-6, f"min slack {rep.min_slack:.4f}"


def completeness_probe_inequality(rng):
    """Along a geodesic, log z / t stays below the sup of the gradient ratio."""
    (rep,) = completeness_probe(hyperboloid(shifted=True), [np.array([1.0, 0.0])], T=2.0,
                                n_samples=50)
    return rep.b_emp <= rep.ratio_sup + 1e-3, (
        f"b_emp {rep.b_emp:.4f} <= ratio sup {rep.ratio_sup:.4f}")


# (name, suite), in the order the suites run and draw from the generator
SUITES = (
    ("exprparse-round-trip", exprparse_round_trip),
    ("jets-vs-finite-differences", jets_vs_finite_differences),
    ("frames-pseudo-orthonormal", frames_pseudo_orthonormal),
    ("gauss-equation-vs-coordinate-oracle", gauss_equation),
    ("bianchi-schwarz-ricci-bound", bianchi_schwarz_ricci_bound),
    ("codazzi-symmetry", codazzi_symmetry),
    ("hyperboloid-battery", hyperboloid_battery),
    ("catenoid-maximal-from-jets", catenoid_maximal),
    ("pseudo-distance-identities", pseudo_distance_identities),
    ("grassmann-distance-oracles", grassmann_distance),
    ("gauss-map-pullback-trace", gauss_map_pullback_trace),
    ("lagrangian-cross-module", lagrangian_cross_module),
    ("moduli-curvature-oracle", moduli_curvature_check),
    ("solver-exactness", solver_exactness),
    ("simons-slack-hyperboloid", simons_slack_hyperboloid),
    ("completeness-probe-inequality", completeness_probe_inequality),
)
