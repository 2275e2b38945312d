import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import random_spacelike_graph
from oracles import chart_metric, plane_distance, transport_slope
from spacelike.checks import gauss_map_pullback_trace
from spacelike.exprparse import DomainError
from spacelike.graphgeom import GraphMap, NotSpacelikeError, induced_metric
from spacelike.grassmann import (
    SpacelikePlane, distance, gauss_map, graph_node_table, hyperbolic_distance_n1, max_modulus,
    pullback_check, pullback_trace,
)


def random_plane(rng, m, n, scale=0.8):
    A = rng.normal(size=(n, m))
    A *= scale * rng.uniform(0.1, 1.0) / (1e-12 + np.linalg.svd(A, compute_uv=False)[0])
    return SpacelikePlane(A)


# -- gauss map ----------------------------------------------------------------

def test_gauss_map_affine_constant():
    gm = GraphMap.from_strings(2, ["0.3*x1 - 0.2*x2"])
    p1 = gauss_map(gm, [0.0, 0.0])
    p2 = gauss_map(gm, [5.0, -3.0])
    assert np.allclose(p1.slope, [[0.3, -0.2]])
    assert np.allclose(p1.slope, p2.slope)


def test_gauss_map_hyperboloid_slope():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)"])
    x = np.array([0.7, -0.4])
    p = gauss_map(gm, x)
    assert np.allclose(p.slope[0], x / np.sqrt(1 + x @ x), atol=1e-14)


def test_spacelike_equivalence_of_tests():
    rng = np.random.default_rng(2)
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 2, 2)
        assert induced_metric(gm, x).spacelike
        assert np.linalg.svd(gauss_map(gm, x).slope, compute_uv=False)[0] < 1.0


# -- distance -----------------------------------------------------------------

def test_distance_self_zero():
    rng = np.random.default_rng(4)
    for _ in range(5):
        P = random_plane(rng, 3, 2)
        assert distance(P, P) <= 1e-12


def test_distance_1d_artanh():
    P = SpacelikePlane([[0.0]])
    Q = SpacelikePlane([[0.5]])
    assert abs(distance(P, Q) - np.arctanh(0.5)) <= 1e-12
    assert abs(distance(P, Q) - 0.549306) <= 1e-6


def test_distance_n1_arccosh_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        P, Q = random_plane(rng, m, 1), random_plane(rng, m, 1)
        assert abs(distance(P, Q) - hyperbolic_distance_n1(P, Q)) <= 1e-8


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(16)
    for _ in range(40):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        P, Q, R = (random_plane(rng, m, n) for _ in range(3))
        dpq, dqp = distance(P, Q), distance(Q, P)
        assert abs(dpq - dqp) <= 1e-9 * (1 + dpq)
        assert dpq <= distance(P, R) + distance(R, Q) + 1e-9


def test_boost_additivity():
    rng = np.random.default_rng(32)
    for m, n in [(1, 1), (2, 1), (3, 2)]:
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        for t1, t2 in [(0.2, 0.9), (-0.5, 1.3), (0.0, 2.0)]:
            P = SpacelikePlane(np.tanh(t1) * np.outer(u, v))
            Q = SpacelikePlane(np.tanh(t2) * np.outer(u, v))
            assert abs(distance(P, Q) - abs(t1 - t2)) <= 1e-9


def test_rotation_invariance():
    rng = np.random.default_rng(64)
    for _ in range(10):
        m, n = 3, 2
        P, Q = random_plane(rng, m, n), random_plane(rng, m, n)
        qm, _ = np.linalg.qr(rng.normal(size=(m, m)))
        qn, _ = np.linalg.qr(rng.normal(size=(n, n)))
        RP = SpacelikePlane(qn @ P.slope @ qm.T)
        RQ = SpacelikePlane(qn @ Q.slope @ qm.T)
        assert abs(distance(RP, RQ) - distance(P, Q)) <= 1e-12 * (1 + distance(P, Q))


def test_distance_rejects_non_spacelike():
    with pytest.raises(NotSpacelikeError):
        distance(SpacelikePlane([[1.2]]), SpacelikePlane([[0.0]]))


def _raised(f):
    try:
        f()
    except (NotSpacelikeError, DomainError) as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("bad", [1e200, 1e160, np.nan])
def test_distance_to_a_slope_that_overflows_is_a_domain_error(bad):
    P, Q = SpacelikePlane([[bad, 0.0]]), SpacelikePlane([[0.1, 0.0]])
    for args in ((P, Q), (Q, P)):
        with pytest.raises(DomainError, match="overflow"):
            distance(*args)


@pytest.mark.parametrize("gap", [1e-13, 3e-16, 1e-16])
def test_plane_within_the_tolerance_of_the_null_cone_has_no_distance(gap):
    # sigma_max = 1 - gap: I - A^T A is positive definite, or rounds to
    # singular, but its smallest eigenvalue is below SPACELIKE_TOL
    rng = np.random.default_rng(5)
    for m, n in [(1, 1), (2, 1), (2, 3), (3, 2)]:
        u, v = (w / np.linalg.norm(w) for w in (rng.normal(size=n), rng.normal(size=m)))
        P = SpacelikePlane((1.0 - gap) * np.outer(u, v))
        Q = random_plane(rng, m, n)
        assert _raised(lambda: distance(P, Q)) == _raised(lambda: distance(Q, P))
        with pytest.raises(NotSpacelikeError):
            distance(P, Q)


def test_reference_plane_within_the_tolerance_gives_a_note_not_failing_nodes():
    # the tangent plane at the origin has I - A^T A = 2e-13: positive, but
    # inside SPACELIKE_TOL, so the table has no reference plane
    gm = GraphMap.from_strings(2, ["(1 - 1e-13)*x1 + x1^2"])
    pts = np.array([[0.0, 0.0], [-0.3, 0.1], [-0.2, -0.4]])
    status, cols, notes = graph_node_table(gm, pts, np.ones(3, dtype=bool))
    assert list(status) == ["error:NotSpacelikeError", "ok", "ok"]
    assert np.all(np.isnan(cols["gauss_dist"])) and np.all(np.isfinite(cols["S"][1:]))
    assert len(notes) == 1 and "x = [0.0, 0.0] is not space-like" in notes[0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       scale=st.floats(0.0, 0.9))
def test_distance_matches_the_frame_free_oracle(seed, m, n, scale):
    rng = np.random.default_rng(seed)
    P, Q = random_plane(rng, m, n, 0.9), random_plane(rng, m, n, scale)
    d = distance(P, Q)
    assume(d >= 1e-3)
    assert abs(d - plane_distance(P, Q)) <= 1e-9 * d


def test_distance_equals_chart_path_length_and_geodesic_ode():
    # The artanh-of-singular-values distance must match (a) the chart-metric
    # length of the claimed geodesic path and (b) direct integration of the
    # geodesic equation of the chart metric.
    rng = np.random.default_rng(128)
    for m, n in [(2, 1), (2, 2)]:
        P, Q = random_plane(rng, m, n, 0.6), random_plane(rng, m, n, 0.6)
        d = distance(P, Q)
        rel = transport_slope(P, Q)
        W, sv, Vt = np.linalg.svd(rel)
        theta = np.arctanh(sv)

        def path_slope(t):
            sig = np.zeros((n, m))
            np.fill_diagonal(sig, np.tanh(t * theta))
            return W @ sig @ Vt

        # (a) quadrature of the path speed
        ts = np.linspace(0, 1, 200)
        speed = []
        for t in ts:
            dA = (path_slope(t + 1e-6) - path_slope(t - 1e-6)) / 2e-6
            speed.append(np.sqrt(chart_metric(path_slope(t), dA)))
        length = (np.trapezoid if hasattr(np, "trapezoid") else np.trapz)(speed, ts)
        assert abs(length - d) <= 1e-5 * (1 + d)

        # (b) shoot the geodesic ODE from the base plane with the claimed
        # initial velocity; it must land on the transported slope at t = 1
        def metric_matrix(q):
            A = q.reshape(n, m)
            Pm = np.linalg.inv(np.eye(m) - A.T @ A)
            Qm = np.linalg.inv(np.eye(n) - A @ A.T)
            return np.einsum("ij,st->sitj", Pm, Qm).reshape(n * m, n * m)

        def ode(t, y):
            q, dq = y[: n * m], y[n * m:]
            h = 1e-6
            G = metric_matrix(q)
            dG = np.zeros((n * m, n * m, n * m))
            for a in range(n * m):
                e = np.zeros(n * m)
                e[a] = h
                dG[a] = (metric_matrix(q + e) - metric_matrix(q - e)) / (2 * h)
            Ginv = np.linalg.inv(G)
            # Christoffel action assembled directly: dG[p][a,b] = d_p G_ab
            acc = np.zeros(n * m)
            for k in range(n * m):
                total = 0.0
                for a in range(n * m):
                    for b in range(n * m):
                        chris = 0.0
                        for l in range(n * m):
                            chris += Ginv[k, l] * (dG[a][b, l] + dG[b][a, l] - dG[l][a, b])
                        total += 0.5 * chris * dq[a] * dq[b]
                acc[k] = -total
            return np.concatenate([dq, acc])

        sig0 = np.zeros((n, m))
        np.fill_diagonal(sig0, theta)
        v0 = (W @ sig0 @ Vt).ravel()
        sol = solve_ivp(ode, (0, 1), np.concatenate([np.zeros(n * m), v0]),
                        rtol=1e-9, atol=1e-11)
        end = sol.y[: n * m, -1].reshape(n, m)
        assert np.max(np.abs(end - rel)) <= 1e-6 * (1 + np.max(np.abs(rel)))


def test_distance_field_smooth_along_paths():
    # the composed map t -> d(gamma(x0), gamma(x0 + t v)) is smooth where the
    # graph is: second differences stay bounded, no jumps above O(step^2)
    rng = np.random.default_rng(1024)
    gm, x0 = random_spacelike_graph(rng, 2, 2, degree=3)
    base = gauss_map(gm, x0)
    v = rng.normal(size=2)
    v /= np.linalg.norm(v)
    ts = np.linspace(0.0, 0.2, 41)
    d = np.array([distance(base, gauss_map(gm, x0 + t * v)) for t in ts])
    step = ts[1] - ts[0]
    second = np.abs(d[2:] - 2 * d[1:-1] + d[:-2]) / step**2
    assert np.max(second) <= 50.0  # bounded curvature of the composed map


# -- pullback -----------------------------------------------------------------

def test_pullback_affine_zero():
    gm = GraphMap.from_strings(2, ["0.2*x1+0.3*x2"])
    rep = pullback_check(gm, [0.1, 0.1], 0)
    assert rep.stretch_formula == 0.0
    assert abs(rep.stretch_fd) <= 1e-9


def test_pullback_hyperboloid_rate_one():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)"])
    for k in range(2):
        rep = pullback_check(gm, [0.0, 0.0], k)
        assert abs(rep.stretch_formula - 1.0) <= 1e-12
        assert rep.rel_error <= 1e-4


def test_pullback_random_cubic_richardson():
    rng = np.random.default_rng(256)
    for _ in range(5):
        gm, x = random_spacelike_graph(rng, 2, 2, degree=3)
        rep = pullback_check(gm, x, rng.normal(size=2))
        assert rep.rel_error <= 1e-3
        # linear convergence of the raw quotients
        errs = [abs(q - rep.stretch_formula) for q in rep.quotients]
        if errs[0] > 1e-6:
            assert errs[-1] <= 0.75 * errs[0]


def test_pullback_trace_equals_S():
    ok, detail = gauss_map_pullback_trace(np.random.default_rng(512), graphs=5)
    assert ok, detail


def test_pullback_trace_is_one_geometry_pass(monkeypatch):
    import spacelike.grassmann as grassmann
    from spacelike.graphgeom import fundamental_forms

    gm, x = random_spacelike_graph(np.random.default_rng(1024), 3, 2)
    parts = sum(pullback_check(gm, x, k).stretch_fd**2 for k in range(gm.m))
    S_ref = fundamental_forms(gm, x).S
    calls, real = [], grassmann.graph_geometry
    monkeypatch.setattr(grassmann, "graph_geometry",
                        lambda *args: calls.append(args) or real(*args))
    tr, S = pullback_trace(gm, x)
    assert len(calls) == 1
    assert abs(tr - parts) <= 1e-14 * parts
    assert abs(S - S_ref) <= 1e-14 * S_ref


def test_positions_come_from_the_one_jet_pass(monkeypatch):
    # X(0) is the origin row of the table's one pass, so f is not evaluated
    # on its own; where the jets fail at the origin and the value exists,
    # X(0) is evaluated on its own, once per component whose jet fails there
    import spacelike.graphgeom as graphgeom
    from spacelike.graphgeom import pseudo_distance

    pts = np.stack(np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)), -1).reshape(-1, 2)
    calls, real = [], graphgeom.eval_values
    monkeypatch.setattr(graphgeom, "eval_values",
                        lambda node, x: calls.append(np.shape(x)) or real(node, x))
    # the second graph has no plane at the origin (a note) and no frames at the origin node
    for components, own, notes_seen, ok in (
            (["0.3*x1*x2 + 1", "0.2*sin(x2)"], [], 0, len(pts)),
            (["asinh(sqrt(x1^2+x2^2))", "0.2*sin(x2)"], [(2,)], 1, len(pts) - 1)):
        gm = GraphMap.from_strings(2, components)
        calls.clear()
        status, cols, notes = graph_node_table(gm, pts, np.ones(len(pts), dtype=bool))
        assert calls == own
        assert len(notes) == notes_seen and list(status).count("ok") == ok
        done = status == "ok"
        assert np.all(np.isfinite(cols["z"]) == done)
        calls.clear()
        z = pseudo_distance(gm.with_base_point(), pts[done]).z
        assert calls == own * 2  # the offset, then the base-point check
        assert np.array_equal(z, cols["z"][done])


def test_z_vanishes_exactly_at_the_origin_node():
    # X(0) and the nodes' positions come from the same jet pass, so X(0) = 0
    # at the origin node even where f(0) is a quotient: order-0 values
    # divide, jets multiply by a reciprocal, and the two may differ by an ulp
    gm = GraphMap.from_strings(2, ["x1/3+5/(3+x2)"])
    pts = np.array([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.25]])
    status, cols, notes = graph_node_table(gm, pts, np.ones(3, dtype=bool))
    assert notes == [] and np.all(status == "ok")
    assert cols["z"][0] == 0.0 and cols["grad_ratio"][0] == 0.0


# -- maximum modulus ----------------------------------------------------------

def test_max_modulus_affine_zero():
    gm = GraphMap.from_strings(2, ["0.4*x1"])
    ref = gauss_map(gm, [0.0, 0.0])
    mu = max_modulus(gm, [[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]], ref)
    assert mu <= 1e-12


def test_max_modulus_hyperboloid_geodesic_sphere():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)"])
    ref = gauss_map(gm, [0.0, 0.0])
    for a in [0.5, 1.0, 1.7]:
        R = np.sinh(a)  # coordinate radius of the geodesic sphere of radius a
        thetas = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        samples = [[R * np.cos(t), R * np.sin(t)] for t in thetas]
        mu = max_modulus(gm, samples, ref)
        assert abs(mu - a) <= 1e-3 * (1 + a)


def test_max_modulus_monotone_in_sample_set():
    gm = GraphMap.from_strings(2, ["0.3*sin(x1)*x2"])
    ref = gauss_map(gm, [0.0, 0.0])
    inner = [[0.1 * i, 0.05 * i] for i in range(5)]
    outer = inner + [[0.8, 0.9], [1.0, -1.0]]
    assert max_modulus(gm, inner, ref) <= max_modulus(gm, outer, ref)


def test_max_modulus_empty_error():
    gm = GraphMap.from_strings(1, ["0"])
    with pytest.raises(ValueError):
        max_modulus(gm, [], gauss_map(gm, [0.0]))
