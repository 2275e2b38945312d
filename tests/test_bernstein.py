import warnings

import numpy as np
import pytest

from spacelike.bernstein import (
    DIJKSTRA_METRICATION, ScanConfig, completeness_probe, decay_scan,
    estimate_report, geodesic_radius,
)
from spacelike.checks import hyperboloid
from spacelike.exprparse import DomainError, parse
from spacelike.graphgeom import GraphMap, NotSpacelikeError
from spacelike.lattice import Lattice, LatticeError


# -- geodesic radius -----------------------------------------------------------

def test_radius_flat_metrication_bound():
    gm = GraphMap.from_strings(2, ["0"])
    lat = Lattice.box((-1, -1), (1, 1), 33)
    rf = geodesic_radius(gm, lat, [0.0, 0.0])
    import spacelike.lattice as lm

    pts = lm.node_points(lat)
    exact = np.linalg.norm(pts, axis=1).reshape(lat.shape)
    sel = exact > 0.2  # skip the near field where h dominates
    ratio = rf.r[sel] / exact[sel]
    assert np.nanmax(ratio) - 1.0 <= DIJKSTRA_METRICATION + 0.01
    assert np.nanmin(ratio) >= 1.0 - 1e-9  # lattice paths never beat the line


def test_radius_hyperboloid_radial_closed_form():
    gm = hyperboloid()
    lat = Lattice.box((-1.0, -1.0), (1.0, 1.0), 129)  # h = 1/64
    rf = geodesic_radius(gm, lat, [0.0, 0.0])
    xs = np.asarray(lat.axes()[0])
    mid = lat.shape[1] // 2
    for i, x in enumerate(xs):
        if abs(x) < 0.3:
            continue
        expected = np.arcsinh(abs(x))  # radial metric coefficient 1/(1+r^2)
        assert abs(rf.r[i, mid] - expected) <= 0.02 * expected


def test_radius_refinement_improves():
    gm = hyperboloid()
    errs = []
    for nodes in (17, 33, 65):
        lat = Lattice.box((-1.0, -1.0), (1.0, 1.0), nodes)
        rf = geodesic_radius(gm, lat, [0.0, 0.0])
        xs = np.asarray(lat.axes()[0])
        mid = lat.shape[1] // 2
        errs.append(abs(rf.r[-1, mid] - np.arcsinh(1.0)))
    assert errs[2] < errs[1] < errs[0]
    # the midpoint metric makes the radial radius second order
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((1.8 <= orders) & (orders <= 2.2))


def test_radius_triangle_inequality_on_samples():
    gm = GraphMap.from_strings(2, ["0.3*sin(x1)"])
    lat = Lattice.box((-1, -1), (1, 1), 21)
    r0 = geodesic_radius(gm, lat, [0.0, 0.0]).r
    r1 = geodesic_radius(gm, lat, [0.5, 0.5]).r
    # d(0, x) <= d(0, p) + d(p, x) with p the second source
    p_from_0 = r0[15, 15]
    assert np.nanmax(r0 - (p_from_0 + r1)) <= 1e-9


def test_radius_flat_3d_axes_exact():
    gm = GraphMap.from_strings(3, ["0"])
    lat = Lattice.box((-1, -1, -1), (1, 1, 1), 9)
    rf = geodesic_radius(gm, lat, [0.0, 0.0, 0.0])
    import spacelike.lattice as lm

    exact = np.linalg.norm(lm.node_points(lat), axis=1).reshape(lat.shape)
    mid = 4
    for axis_line in (rf.r[:, mid, mid], rf.r[mid, :, mid], rf.r[mid, mid, :]):
        assert np.array_equal(axis_line, np.abs(lat.axes()[0]))
    assert np.all(rf.r >= exact - 1e-12)  # lattice paths never beat the line


def test_radius_not_spacelike_raises():
    gm = GraphMap.from_strings(2, ["2*x1"])
    with pytest.raises(NotSpacelikeError):
        geodesic_radius(gm, Lattice.box((-1, -1), (1, 1), 5), [0.0, 0.0])


def test_radius_overflowing_metric_is_a_domain_error():
    # g = 1 - 1e320 at every edge midpoint
    gm = GraphMap.from_strings(2, ["1e160*x1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite metric"):
            geodesic_radius(gm, Lattice.box((-1, -1), (1, 1), 5), [0.0, 0.0])


def test_radius_disconnected_lattice():
    gm = GraphMap.from_strings(2, ["0"])
    # annulus hole wider than the box: only four corner patches survive,
    # mutually disconnected
    lat = Lattice((-2.0, -2.0), (2.0, 2.0), (13, 13), mask=("annulus", 2.45, 4.0))
    with pytest.raises(LatticeError):
        geodesic_radius(gm, lat, [2.0, 2.0])


# -- estimate report -----------------------------------------------------------

def test_report_affine_zero_ratios():
    gm = GraphMap.from_strings(2, ["0.2*x1+0.1*x2"])
    lat = Lattice.box((-2, -2), (2, 2), 33)
    rep = estimate_report(gm, [0.0, 0.0], 1.0, lat)
    assert rep.ratio29 == 0.0
    assert rep.ratio28 == 0.0
    assert np.all(rep.r <= 1.0 + 1e-12)


def test_report_hyperboloid_stable_under_refinement():
    gm = hyperboloid()
    vals = []
    for nodes in (33, 65):
        lat = Lattice.box((-2, -2), (2, 2), nodes)
        rep = estimate_report(gm, [0.0, 0.0], 1.0, lat)
        assert np.isfinite(rep.ratio29) and rep.ratio29 > 0
        vals.append(rep.ratio29)
        assert abs(rep.h_bar - 1.0) <= 1e-9
    assert abs(vals[1] - vals[0]) <= 0.1 * vals[0]


def test_report_catenoid_ratio28_finite():
    gm = GraphMap.from_strings(2, ["asinh(sqrt(x1^2+x2^2))"])
    lat = Lattice.annulus(0.5, 2.0, 65)
    rep = estimate_report(gm, [1.2, 0.0], 0.5, lat)
    assert np.isfinite(rep.ratio28) and rep.ratio28 > 0
    assert rep.mu > 0


def test_report_scale_covariance():
    # rescaling the ambient by lam maps (a, S) -> (lam a, S / lam^2) and
    # leaves ratio29 invariant
    gm1 = GraphMap.from_strings(2, ["0.3*x1^2 + 0.2*x2^2"])
    lam = 2.0
    gm2 = GraphMap.from_strings(2, [f"({lam!r})*(0.3*(x1/{lam})^2 + 0.2*(x2/{lam})^2)"])
    lat1 = Lattice.box((-1, -1), (1, 1), 41)
    lat2 = Lattice.box((-lam, -lam), (lam, lam), 41)
    rep1 = estimate_report(gm1, [0.0, 0.0], 0.6, lat1)
    rep2 = estimate_report(gm2, [0.0, 0.0], lam * 0.6, lat2)
    assert abs(rep2.ratio29 - rep1.ratio29) <= 1e-9 * (1 + rep1.ratio29)


def test_report_ball_exceeds_lattice():
    gm = GraphMap.from_strings(2, ["0"])
    lat = Lattice.box((-1, -1), (1, 1), 9)
    with pytest.raises(LatticeError):
        estimate_report(gm, [0.0, 0.0], 10.0, lat)


# -- decay scan ------------------------------------------------------------------

def test_decay_scan_affine_exact_zero():
    scan = decay_scan(parse("0.3*x1 - 0.1*x2", 2), [2.0, 4.0, 8.0],
                      ScanConfig(nodes=33))
    for row in scan.rows:
        assert row.status == "ok"
        assert row.s_center <= 1e-10
    assert scan.slope_kind == "exact-zero"


def test_decay_scan_slope_near_minus_two():
    scan = decay_scan(parse("0.3*x1 + 0.1*sin(x2)", 2), [4.0, 8.0, 16.0],
                      ScanConfig(nodes=49))
    assert scan.slope_kind == "fit"
    assert -2.6 <= scan.slope <= -1.4
    # and the signal is well above solver noise
    assert all(row.s_center > 1e-8 for row in scan.rows)


def test_decay_scan_amplitude_robustness():
    cfg = ScanConfig(nodes=33)
    s1 = decay_scan(parse("0.3*x1 + 0.1*sin(x2)", 2), [4.0, 8.0], cfg)
    s2 = decay_scan(parse("0.3*x1 + 0.2*sin(x2)", 2), [4.0, 8.0], cfg)
    assert abs(s1.slope - s2.slope) <= 0.3
    assert s2.rows[0].s_center > s1.rows[0].s_center


def test_decay_scan_partial_failure_reported():
    # slope > 1 data cannot be space-like; every radius fails but a table
    # still comes back
    scan = decay_scan(parse("2*x1", 2), [2.0, 4.0], ScanConfig(nodes=17))
    assert all(r.status.startswith("solver-failed") for r in scan.rows)
    assert scan.slope_kind == "insufficient"


# -- completeness probe ------------------------------------------------------------

def test_probe_flat_graph_quadratic_z():
    gm = GraphMap.from_strings(1, ["0.6*x1"])
    (rep,) = completeness_probe(gm, [np.array([1.0])], T=5.0)
    assert rep.status == "ok"
    # unit-speed straight line: z(t) = t^2 exactly
    assert np.max(np.abs(rep.z - rep.t**2)) <= 1e-6 * (1 + rep.z[-1])
    assert rep.b_emp <= rep.ratio_sup + 1e-3


def test_probe_shifted_hyperboloid_closed_form():
    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2) - 1"])
    dirs = [np.array([1.0, 0.0]), np.array([0.6, 0.8])]
    reports = completeness_probe(gm, dirs, T=3.0)
    for rep in reports:
        assert rep.status == "ok"
        # radial geodesics: z(t) = 2 cosh t - 2
        assert np.max(np.abs(rep.z - (2 * np.cosh(rep.t) - 2.0))) <= 1e-5 * np.cosh(3.0)
        assert rep.b_emp <= rep.ratio_sup + 1e-3
        # the same quantities from z = 2cosh t - 2 and |grad z| = 2 sinh t
        b_exact = np.max(np.log(2 * np.cosh(rep.t) - 1) / rep.t)
        ratio_exact = np.max(2 * np.sinh(rep.t) / (2 * np.cosh(rep.t) - 1))
        assert abs(rep.b_emp - b_exact) <= 1e-8 * b_exact
        assert abs(rep.ratio_sup - ratio_exact) <= 1e-8 * ratio_exact


def test_probe_region_exit_reported():
    gm = GraphMap.from_strings(1, ["0.0*x1"])
    (rep,) = completeness_probe(gm, [np.array([1.0])], T=10.0, region_halfwidth=2.0)
    assert rep.status == "left-region"
    assert rep.t[-1] <= 2.1


def test_probe_integrates_all_directions_as_one_ode(monkeypatch):
    import spacelike.graphgeom as graphgeom

    calls, real = [], graphgeom.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graphgeom, "solve_ivp", counted)
    dirs = [np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([-0.3, 1.1])]
    reports = completeness_probe(hyperboloid(shifted=True), dirs, T=1.0, n_samples=20)
    assert len(calls) == 1 and len(reports) == 3


def test_probe_region_exit_is_per_direction():
    # on the flat graph 0.3*x1, (1, 0) runs at coordinate speed 1/sqrt(0.91)
    # and leaves |x_i| <= 2 at t = 2 sqrt(0.91) < T; (0, 1) stays inside
    gm = GraphMap.from_strings(2, ["0.3*x1"])
    out, inside = completeness_probe(gm, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                                     T=1.95, n_samples=50, region_halfwidth=2.0)
    assert out.status == "left-region"
    assert out.t[-1] <= 2 * np.sqrt(0.91) + 1e-6
    assert inside.status == "ok"
    assert abs(inside.t[-1] - 1.95) <= 1e-12
    assert np.max(np.abs(inside.z - inside.t**2)) <= 1e-6


def test_probe_integration_failure_is_not_a_region_exit():
    # 0.4*x1^2 stops being space-like at |x1| = 1.25, inside the box: the
    # integrator fails near there for the whole batch, and only a
    # direction whose own exit event fired may be called "left-region"
    gm = GraphMap.from_strings(2, ["0.4*x1^2"])
    reports = completeness_probe(gm, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                                 T=3.0, n_samples=20, region_halfwidth=1.7)
    for rep in reports:
        assert rep.t[-1] < 3.0
        assert rep.status.startswith("integration-failed: ")
    assert "step size" in reports[1].status


@pytest.fixture
def probe_calls(monkeypatch):
    """Counts of GraphMap.jet_data (one per right-hand side, plus the start)
    and solve_ivp calls made while a test runs."""
    import spacelike.graphgeom as graphgeom

    counts = {"jet_data": 0, "solve_ivp": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(GraphMap, "jet_data", counted("jet_data", GraphMap.jet_data))
    monkeypatch.setattr(graphgeom, "solve_ivp", counted("solve_ivp", graphgeom.solve_ivp))
    return counts


def test_probe_region_exits_are_cheap_and_exact(probe_calls):
    # on 0.3*x1, g = diag(0.91, 1) everywhere: the unit-speed line along
    # d / sqrt(d^T g d) leaves |x_i| <= 2 at t = 2 / max_i |v_i|
    gm = GraphMap.from_strings(2, ["0.3*x1"])
    dirs = [np.array([1.0, 0.0]), np.array([-0.6, 0.8]), np.array([0.3, -1.0])]
    reports = completeness_probe(gm, dirs, T=10.0, n_samples=40, region_halfwidth=2.0)
    g = np.diag([0.91, 1.0])
    exits = [2.0 / np.max(np.abs(d / np.sqrt(d @ g @ d))) for d in dirs]
    for rep, t_exit in zip(reports, exits):
        assert rep.status == "left-region"
        assert abs(rep.t[-1] - t_exit) <= 5e-9
        # the samples after the first exit come from the restarted segments
        assert np.max(np.abs(rep.z - rep.t**2)) <= 1e-6
    assert probe_calls["jet_data"] <= 300
    # one call, then one restart at each exit that leaves a direction running
    assert probe_calls["solve_ivp"] == len(set(exits))


def test_probe_benchmark_shape_jet_count(probe_calls):
    # the benchmark's probe: shifted hyperboloid, 3 directions, T = 2, 40
    # samples; an RK45 run, or a right-hand side with a kink, costs ~400
    dirs = [length * np.array([np.cos(t), np.sin(t)])
            for t, length in zip((0.3, 2.2, 4.1), (1.0, 0.7, 1.6))]
    reports = completeness_probe(hyperboloid(shifted=True), dirs, T=2.0, n_samples=40)
    assert all(rep.status == "ok" for rep in reports)
    assert probe_calls["jet_data"] <= 150 and probe_calls["solve_ivp"] == 1


@pytest.mark.parametrize("expr, error", [("1e160*x1", DomainError), ("2*x1", NotSpacelikeError)],
                         ids=["overflow", "not-spacelike"])
def test_probe_checks_the_start_metric(expr, error):
    # RuntimeWarnings are errors here: the check must come before v0 is normalised
    with pytest.raises(error):
        completeness_probe(GraphMap.from_strings(1, [expr]), [np.array([1.0])], T=1.0)


def test_overflow_names_no_subexpression():
    with pytest.raises(DomainError) as err:
        completeness_probe(GraphMap.from_strings(1, ["1e160*x1"]), [np.array([1.0])], T=1.0)
    assert str(err.value) == "non-finite metric (overflow)" and err.value.span is None


@pytest.mark.parametrize("halfwidth", [-1.0, np.nan, 0.0])
def test_probe_rejects_a_region_halfwidth_that_is_not_positive(halfwidth):
    gm = GraphMap.from_strings(2, ["0.3*x1"])
    with pytest.raises(ValueError, match="region_halfwidth"):
        completeness_probe(gm, [np.array([1.0, 0.0])], T=1.0, region_halfwidth=halfwidth)


@pytest.mark.parametrize("kwargs, message", [
    ({"T": 0.0}, "t_span must be finite and increasing"),
    ({"T": -1.0}, "t_span must be finite and increasing"),
    ({"T": np.nan}, "t_span must be finite and increasing"),
    ({"n_samples": 0}, "n_samples must be at least 1"),
    ({"directions": [[0.0, 0.0]]}, "each v0 must be finite and nonzero"),
], ids=["T-zero", "T-negative", "T-nan", "no-samples", "zero-direction"])
def test_probe_rejects_arguments_it_cannot_use(kwargs, message):
    # each failed otherwise: a divide warning, a report of "integration-failed: The
    # solver successfully reached the end", a non-finite jet, or numpy's empty reduction
    args = {"directions": [[1.0, 0.0]], "T": 1.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        completeness_probe(hyperboloid(shifted=True), **args)


@pytest.mark.parametrize("gm", [
    hyperboloid(shifted=True),
    GraphMap.from_strings(2, ["0.2*x1*x2 + 0.1*x1^2", "0.3*sin(x2)*x1"]).with_base_point(),
], ids=["shifted-hyperboloid", "m2-n2"])
def test_probe_batch_rows_equal_single_directions(gm):
    dirs = [np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([-0.5, 0.2])]
    batch = completeness_probe(gm, dirs, T=1.5, n_samples=40)
    for d, rep in zip(dirs, batch):
        (single,) = completeness_probe(gm, [d], T=1.5, n_samples=40)
        assert rep.status == single.status == "ok"
        assert np.array_equal(rep.t, single.t)
        for row, ref in ((rep.z, single.z), (rep.ratio, single.ratio)):
            assert np.max(np.abs(row - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_probe_requires_base_point():
    from spacelike.graphgeom import BasePointError

    gm = GraphMap.from_strings(2, ["sqrt(1+x1^2+x2^2)"])
    with pytest.raises(BasePointError):
        completeness_probe(gm, [np.array([1.0, 0.0])], T=1.0)
