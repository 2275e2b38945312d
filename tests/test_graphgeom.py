import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spacelike_graph
from spacelike.checks import codazzi_symmetry, frame_residual, gauss_equation, hyperboloid
from spacelike.exprparse import DomainError, eval_values, pretty
from spacelike.failures import Failures
from spacelike.graphgeom import (
    BasePointError, GraphMap, NotSpacelikeError, covariant_h,
    curvature, extremal_residual, first_bianchi_residual, fundamental_forms, graph_geometry,
    induced_metric, integrate_geodesic, pseudo_distance, ricci_bound_check, riemann_from_metric,
    signature, simons_report,
)
from spacelike.jets import jet_rows
from spacelike.lattice import Lattice, LatticeError


def catenoid():
    return GraphMap.from_strings(2, ["asinh(sqrt(x1^2+x2^2))"])


# -- induced metric ----------------------------------------------------------

def test_metric_zero_map():
    gm = GraphMap.from_strings(2, ["0"])
    mp = induced_metric(gm, [0.7, -0.3])
    assert np.allclose(mp.g, np.eye(2))
    assert np.isclose(mp.det_g, 1.0)
    assert mp.spacelike


def test_metric_linear_1d():
    gm = GraphMap.from_strings(1, ["0.6*x1"])
    mp = induced_metric(gm, [2.0])
    assert np.isclose(mp.g[0, 0], 0.64)


def test_metric_hyperboloid_closed_form():
    mp = induced_metric(hyperboloid(2), [1.0, 0.0])
    assert np.allclose(mp.g, np.diag([0.5, 1.0]), atol=1e-12)


def test_metric_inverse_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 3, 2)
        mp = induced_metric(gm, x)
        assert np.max(np.abs(mp.g @ mp.g_inv - np.eye(3))) <= 1e-12


def test_metric_not_spacelike_flagged():
    gm = GraphMap.from_strings(1, ["2*x1"])
    mp = induced_metric(gm, [0.0])
    assert not mp.spacelike and mp.min_eig < 0
    with pytest.raises(NotSpacelikeError):
        fundamental_forms(gm, [0.0])


# -- frames ------------------------------------------------------------------

def test_frames_flat():
    gm = GraphMap.from_strings(2, ["0"])
    fr = fundamental_forms(gm, [0.1, 0.2])
    assert np.allclose(fr.tangent, np.eye(3)[:2])
    assert np.allclose(fr.normal, np.eye(3)[2:])


def test_frames_hyperboloid_origin():
    fr = fundamental_forms(hyperboloid(2), [0.0, 0.0])
    assert np.allclose(fr.tangent, np.eye(3)[:2], atol=1e-14)
    assert np.allclose(fr.normal, np.eye(3)[2:], atol=1e-14)


def test_frames_random_linear():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n = rng.integers(1, 4), rng.integers(1, 3)
        B = rng.normal(size=(n, m))
        B *= 0.8 / (1e-9 + np.linalg.svd(B, compute_uv=False)[0])
        comps = [
            "+".join(f"({float(B[s, i])!r})*x{i+1}" for i in range(m)) for s in range(n)
        ]
        gm = GraphMap.from_strings(m, comps)
        assert frame_residual(gm, rng.uniform(-1, 1, size=m)) <= 1e-12


# -- second fundamental form -------------------------------------------------

def test_affine_totally_geodesic():
    gm = GraphMap.from_strings(2, ["0.3*x1 - 0.2*x2 + 1"])
    pg = fundamental_forms(gm, [0.4, 0.6])
    assert np.allclose(pg.h, 0.0, atol=1e-14)
    assert pg.S == 0.0 and pg.H_norm == 0.0


@pytest.mark.parametrize("m", [2, 3])
def test_hyperboloid_umbilic(m):
    gm = hyperboloid(m)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(-1.0, 1.0, size=m)
        pg = fundamental_forms(gm, x)
        assert abs(pg.H_norm - 1.0) <= 1e-9
        assert abs(pg.S - m) <= 1e-9
        # umbilic: h proportional to identity in the adapted frame
        assert np.max(np.abs(np.abs(pg.h[0]) - np.eye(m))) <= 1e-9


def test_catenoid_is_maximal():
    gm = catenoid()
    rng = np.random.default_rng(11)
    for _ in range(6):
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(0, 2 * np.pi)
        x = [r * np.cos(th), r * np.sin(th)]
        pg = fundamental_forms(gm, x)
        assert pg.H_norm <= 1e-9
        assert pg.S > 0


# -- extremality residual ----------------------------------------------------

def test_residual_affine_zero():
    gm = GraphMap.from_strings(2, ["0.1*x1+0.2*x2"])
    assert np.allclose(extremal_residual(gm, [0.3, 0.4]), 0.0, atol=1e-14)


def test_residual_catenoid_zero():
    assert np.abs(extremal_residual(catenoid(), [1.0, 0.0])[0]) <= 1e-9


def test_residual_parabola_value():
    gm = GraphMap.from_strings(1, ["x1^2"])
    res = extremal_residual(gm, [0.1])
    assert np.isclose(res[0], 2.0 / 0.96)
    pg = fundamental_forms(gm, [0.1])
    assert pg.H_norm > 1e-3  # nonzero mean curvature matches nonzero residual


def test_residual_vanishes_iff_mean_curvature_does():
    rng = np.random.default_rng(17)
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 2, 2)
        res = np.linalg.norm(extremal_residual(gm, x))
        H = fundamental_forms(gm, x).H_norm
        S = fundamental_forms(gm, x).S
        if res <= 1e-12:
            assert H <= 1e-9 * (1 + S)
        if H <= 1e-12:
            assert res <= 1e-9


# -- curvature ---------------------------------------------------------------

def test_curvature_affine_zero():
    gm = GraphMap.from_strings(3, ["0.2*x1", "0.1*x3"])
    pg = curvature(gm, [0.5, -0.2, 0.3])
    assert np.allclose(pg.riemann, 0.0, atol=1e-14)
    assert np.allclose(pg.ricci, 0.0, atol=1e-14)
    assert np.allclose(pg.normal_curv, 0.0, atol=1e-14)


@pytest.mark.parametrize("m", [2, 3])
def test_hyperboloid_constant_curvature(m):
    gm = hyperboloid(m)
    x = np.full(m, 0.4)
    pg = curvature(gm, x)
    for i in range(m):
        for j in range(m):
            if i != j:
                assert abs(pg.riemann[i, j, i, j] + 1.0) <= 1e-8
    assert np.allclose(pg.ricci, -(m - 1) * np.eye(m), atol=1e-8)


def test_frame_curvature_matches_coordinate_oracle():
    ok, detail = gauss_equation(np.random.default_rng(23), graphs=12)
    assert ok, detail


def test_riemann_from_metric_poincare_half_plane():
    # g = I / y^2 on y > 0 has constant curvature K = -1, so in the package's
    # slot order R_ijkl = K (g_ik g_jl - g_il g_jk) and R_1212 = -1 / y^4
    y = np.array([0.7, 1.0, 2.5])
    eye = np.eye(2)
    g = eye / y[:, None, None] ** 2
    dg = np.zeros((3, 2, 2, 2))
    dg[:, 1] = -2.0 * eye / y[:, None, None] ** 3                 # d_y g_ij
    ddg = np.zeros((3, 2, 2, 2, 2))
    ddg[:, 1, 1] = 6.0 * eye / y[:, None, None] ** 4              # d_y d_y g_ij
    R = riemann_from_metric(g, dg, ddg)
    assert R.shape == (3, 2, 2, 2, 2)
    assert np.allclose(R[:, 0, 1, 0, 1], -1.0 / y**4, rtol=1e-14, atol=0)
    expected = -(np.einsum("...ik,...jl->...ijkl", g, g) - np.einsum("...il,...jk->...ijkl", g, g))
    assert np.allclose(R, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))


def test_first_bianchi():
    rng = np.random.default_rng(29)
    for _ in range(8):
        gm, x = random_spacelike_graph(rng, 3, 2)
        pg = curvature(gm, x)
        assert first_bianchi_residual(pg.riemann) <= 1e-10 * (1 + np.max(np.abs(pg.riemann)))


def test_schwarz_inequality():
    rng = np.random.default_rng(31)
    for _ in range(20):
        gm, x = random_spacelike_graph(rng, 3, 2)
        pg = fundamental_forms(gm, x)
        assert gm.m * pg.H_norm**2 <= pg.S + 1e-12


def test_ricci_bound():
    assert abs(ricci_bound_check(GraphMap.from_strings(2, ["0.2*x1"]), [0.1, 0.1])) <= 1e-14
    # umbilic equality case: eigenvalue -1 vs bound -m^2/4 = -1 at m = 2
    assert abs(ricci_bound_check(hyperboloid(2), [0.3, -0.5])) <= 1e-9
    rng = np.random.default_rng(37)
    for _ in range(20):
        gm, x = random_spacelike_graph(rng, 2, 2)
        assert ricci_bound_check(gm, x) >= -1e-10


def test_normal_curvature_antisymmetries():
    rng = np.random.default_rng(41)
    gm, x = random_spacelike_graph(rng, 2, 2)
    R = curvature(gm, x).normal_curv
    assert np.allclose(R, -R.transpose(1, 0, 2, 3), atol=1e-14)
    assert np.allclose(R, -R.transpose(0, 1, 3, 2), atol=1e-14)


# -- covariant derivative of h ------------------------------------------------

def test_covariant_h_affine():
    gm = GraphMap.from_strings(2, ["0.4*x1 - 0.1*x2"])
    ch = covariant_h(gm, [0.2, 0.3])
    assert np.allclose(ch.h_cov, 0.0, atol=1e-14)


@pytest.mark.parametrize("m", [2, 3])
def test_covariant_h_hyperboloid_parallel(m):
    ch = covariant_h(hyperboloid(m), np.full(m, 0.35))
    assert np.max(np.abs(ch.h_cov)) <= 1e-8
    assert np.linalg.norm(ch.mean_curv_deriv) <= 1e-8


def test_codazzi_symmetry_random_cubics():
    ok, detail = codazzi_symmetry(np.random.default_rng(43), graphs=8)
    assert ok, detail


def test_covariant_h_fully_symmetric_tensor():
    rng = np.random.default_rng(47)
    gm, x = random_spacelike_graph(rng, 3, 1, degree=3)
    hc = covariant_h(gm, x).h_cov
    scale = 1.0 + np.max(np.abs(hc))
    assert np.max(np.abs(hc - hc.transpose(0, 2, 1, 3))) <= 1e-6 * scale
    assert np.max(np.abs(hc - hc.transpose(0, 3, 2, 1))) <= 1e-6 * scale


def _finite_difference_h_cov(gm, x, eps=1e-5):
    """h_sijk from central differences of the frames and h along each e_k."""
    sig = signature(gm.m, gm.n)
    fr = fundamental_forms(gm, x)
    h = fundamental_forms(gm, x).h
    d_tan, d_nor, d_h = [], [], []
    for v in fr.tangent_coeff:  # e_k = sum_p tangent_coeff[k, p] d/dx^p
        fp, fm = fundamental_forms(gm, x + eps * v), fundamental_forms(gm, x - eps * v)
        d_tan.append((fp.tangent - fm.tangent) / (2 * eps))
        d_nor.append((fp.normal - fm.normal) / (2 * eps))
        d_h.append((fundamental_forms(gm, x + eps * v).h
                    - fundamental_forms(gm, x - eps * v).h) / (2 * eps))
    w_tt = np.einsum("kiB,B,jB->kij", np.array(d_tan), sig, fr.tangent)
    w_nn = np.einsum("ksB,B,tB->kst", np.array(d_nor), sig, fr.normal)
    return (np.array(d_h).transpose(1, 2, 3, 0)
            + np.einsum("slj,kli->sijk", h, w_tt)
            + np.einsum("sil,klj->sijk", h, w_tt)
            - np.einsum("tij,kts->sijk", h, w_nn))


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_covariant_h_matches_finite_difference_oracle(m, n):
    rng = np.random.default_rng(100 + 10 * m + n)
    for _ in range(5):
        gm, x = random_spacelike_graph(rng, m, n, degree=3)
        hc = covariant_h(gm, x).h_cov
        oracle = _finite_difference_h_cov(gm, x)
        assert np.max(np.abs(hc - oracle)) <= 1e-6 * np.max(np.abs(oracle))


def test_covariant_h_not_spacelike_raises():
    gm = GraphMap.from_strings(2, ["2*x1 + x2^2"])
    with pytest.raises(NotSpacelikeError):
        fundamental_forms(gm, [0.1, 0.2])
    with pytest.raises(NotSpacelikeError):
        covariant_h(gm, [0.1, 0.2])


# -- pseudo-distance ----------------------------------------------------------

def test_pseudo_distance_origin():
    gm = GraphMap.from_strings(2, ["0.5*x1 + 0.1*x2"])
    pd = pseudo_distance(gm, [0.0, 0.0])
    assert pd.z == 0.0
    assert np.allclose(pd.grad, 0.0)
    assert np.allclose(pd.hess, 2.0 * np.eye(2), atol=1e-14)
    assert np.isclose(pd.lap, 4.0)


def test_pseudo_distance_linear_hand_value():
    gm = GraphMap.from_strings(1, ["0.6*x1"])
    pd = pseudo_distance(gm, [1.0])
    assert abs(pd.z - 0.64) <= 1e-12
    assert abs(pd.grad_norm - 1.6) <= 1e-12
    assert abs(pd.ratio - 1.6 / 1.64) <= 1e-12


def test_pseudo_distance_shifted_hyperboloid():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2) - 1"])
    pd = pseudo_distance(gm, [1.0, 0.0])
    assert abs(pd.z - (2 * np.sqrt(2) - 2)) <= 1e-12


def test_pseudo_distance_requires_base_point():
    gm = hyperboloid(2)  # X(0) = (0,0,1) != 0
    with pytest.raises(BasePointError):
        pseudo_distance(gm, [0.5, 0.5])
    pd = pseudo_distance(gm.with_base_point(), [1.0, 0.0])
    assert abs(pd.z - (2 * np.sqrt(2) - 2)) <= 1e-12


def test_trace_hess_equals_lap():
    rng = np.random.default_rng(53)
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 2, 2)
        gm = gm.with_base_point()
        pd = pseudo_distance(gm, x)
        assert abs(np.trace(pd.hess) - pd.lap) <= 1e-10 * (1 + abs(pd.lap))


def test_pseudo_distance_nonnegative_through_origin():
    rng = np.random.default_rng(59)
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 2, 1, sigma_target=0.4, point=np.zeros(2))
        gm = gm.with_base_point()
        # verify space-likeness along the segment before asserting z >= 0
        ts = np.linspace(0, 1, 8)
        if all(induced_metric(gm, t * x).spacelike for t in ts):
            assert pseudo_distance(gm, x).z >= -1e-12


def test_hess_z_matches_geodesic_second_differences():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2) - 1"])
    x0 = np.array([0.4, -0.2])
    pd = pseudo_distance(gm, x0)
    fr = fundamental_forms(gm, x0)
    for k in range(2):
        v = fr.tangent_coeff[k]  # coordinate components of frame vector e_k
        vals = {}
        for t in (-0.02, 0.0, 0.02):
            sol = integrate_geodesic(gm, x0, np.sign(t) * v if t else v,
                                     (0.0, abs(t) if t else 1e-9))
            xt = sol.state(0, abs(t))[:2] if t else x0
            vals[t] = pseudo_distance(gm, xt).z
        fd = (vals[0.02] - 2 * vals[0.0] + vals[-0.02]) / 0.02**2
        assert abs(fd - pd.hess[k, k]) <= 5e-3 * (1 + abs(pd.hess[k, k]))


def test_geodesic_batch_stitches_each_direction_across_restarts():
    # on 0.3*x1 the geodesics are the lines x = v t, v = d / sqrt(d^T g d):
    # (1, 0) leaves |x_i| <= 1 first, and (0, 1) runs on in a second segment
    gm = GraphMap.from_strings(2, ["0.3*x1"])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    sol = integrate_geodesic(gm, np.zeros(2), dirs, (0.0, 3.0), region_halfwidth=1.0)
    v = dirs / np.sqrt([0.91, 1.0])[:, None]
    assert np.allclose(sol.t_end, 1.0 / np.abs(v).max(axis=1), rtol=0.0, atol=1e-12)
    assert [len(te) for te in sol.t_events] == [1, 1]
    ts = np.linspace(0.0, 3.0, 31)
    for j in range(2):
        state = sol.state(j, ts)
        # held at its end state after its own end time
        assert np.allclose(state[:2], np.outer(v[j], np.minimum(ts, sol.t_end[j])), atol=1e-9)


def test_geodesic_start_outside_the_box_is_rejected():
    # on 0.3*x1 from x0 = (3, 0) the run would reach t_end = 1 with no exit event
    gm = GraphMap.from_strings(2, ["0.3*x1"])
    with pytest.raises(ValueError, match="x0 must lie in the box"):
        integrate_geodesic(gm, [3.0, 0.0], [[0.0, 1.0]], (0.0, 1.0), region_halfwidth=2.0)


def test_batched_jet_data_rows_equal_single_points():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)", "0.3*sin(x1)*x2 + 2"]).with_base_point()
    pts = np.array([[0.3, -0.2], [-0.5, 0.7]])  # k == n, so a wrong axis still broadcasts
    batch = gm.jet_data(pts)
    assert [a.shape for a in batch] == [(2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)]
    for row, p in enumerate(pts):
        for b, single in zip(batch, gm.jet_data(p)):
            assert np.array_equal(b[row], single)


def _per_component_jet_rows(gm, x, order):
    """GraphMap.jet_rows built from its parts: one jets.jet_rows per
    component, stacked, and the components' failure records folded in order."""
    jets, fails = zip(*(jet_rows(c, x, order) for c in gm.components))
    vals = np.stack([j.value for j in jets], axis=-1)
    if gm.offset is not None:
        vals = vals - np.asarray(gm.offset)
    derivs = [None if getattr(jets[0], name) is None else
              np.stack([getattr(j, name) for j in jets], axis=-1 - k)
              for k, name in enumerate(("grad", "hess", "third"), 1)]
    return (vals, *derivs, functools.reduce(Failures.then, fails))


def _raised(call):
    try:
        call()
    except DomainError as err:
        return str(err), err.span
    return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
       k=st.integers(1, 6), order=st.integers(0, 3), single=st.booleans(),
       based=st.booleans())
def test_graph_jet_rows_equal_the_per_component_fold(seed, m, n, k, order, single, based):
    # a log term, on a variable drawn per component, makes the components
    # fail at different points, so the fold shifts error indices
    rng = np.random.default_rng(seed)
    gm = random_spacelike_graph(rng, m, n)[0]
    gm = GraphMap.from_strings(m, [pretty(c) + f"+0.01*log(x{rng.integers(1, m + 1)}+0.5)"
                                   for c in gm.components])
    gm = gm.with_base_point() if based else gm
    pts = rng.uniform(-1.0, 1.0, size=(m,) if single else (k, m))
    *data, fails = gm.jet_rows(pts, order)
    *ref, ref_fails = _per_component_jet_rows(gm, pts, order)
    for got, want in zip(data, ref):
        assert (got is None and want is None) or (
            got.shape == want.shape and np.array_equal(got, want))
    assert np.array_equal(fails.code, ref_fails.code)
    assert np.array_equal(fails.value, ref_fails.value, equal_nan=True)
    assert ([(str(e), e.span) for e in fails.errors]
            == [(str(e), e.span) for e in ref_fails.errors])
    assert _raised(lambda: gm.jet_data(pts, order)) == _raised(ref_fails.raise_first)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 2),
       k=st.integers(1, 6))
def test_geometry_positions_are_the_values_of_f(seed, m, n, k):
    # without a division the jets compute the values as eval_values does
    rng = np.random.default_rng(seed)
    gm = random_spacelike_graph(rng, m, n)[0].with_base_point()
    pts = rng.uniform(-1.0, 1.0, size=(k, m))
    f = np.stack([eval_values(c, pts) for c in gm.components], axis=-1)
    assert np.array_equal(graph_geometry(gm, pts).X, np.concatenate([pts, f - gm.offset], -1))


# -- Simons slack -------------------------------------------------------------

def test_simons_affine_zero():
    gm = GraphMap.from_strings(2, ["0.2*x1+0.1*x2"])
    rep = simons_report(gm, Lattice.box((-1, -1), (1, 1), 7))
    assert np.allclose(rep.slack, 0.0, atol=1e-12)
    assert rep.dh_max <= 1e-12


def test_simons_hyperboloid_slack_value():
    gm = hyperboloid(2)
    rep = simons_report(gm, Lattice.box((-0.5, -0.5), (0.5, 0.5), 7))
    expected = 2 * 2**1.5 - 4.0  # m |H| S^{3/2} - S^2/n with S = m = 2
    assert np.allclose(rep.slack, expected, atol=1e-6)
    assert rep.min_slack >= 0
    assert rep.dh_max <= 1e-8


def test_simons_catenoid_nonnegative_at_moderate_h():
    gm = catenoid()
    lat = Lattice.annulus(0.5, 2.0, 129)
    rep = simons_report(gm, lat)
    assert rep.min_slack >= -1e-2
    assert rep.dh_max <= 1e-8


def test_simons_lattice_too_coarse():
    gm = hyperboloid(2)
    with pytest.raises(LatticeError):
        simons_report(gm, Lattice.box((-1, -1), (1, 1), 4))
