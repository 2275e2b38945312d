"""Every per-point function over a batch of points equals the function at
each point alone: the same exception, and the same numbers up to the order
of summation.  numpy's reductions (einsum, matmul) may add in another order
for a row inside a batch than for the same data alone, depending on where
the row sits in memory; elementwise arithmetic, and hence the jets, agree
bit for bit (tests/test_jets.py)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polynomial_string, random_spacelike_graph
from test_exprparse import _exprs

from spacelike.bernstein import completeness_probe
from spacelike.checks import frame_residual
from spacelike.exprparse import BinOp, DomainError, parse
from spacelike.failures import OK
from spacelike.graphgeom import (
    SPACELIKE_TOL, GraphMap, NotSpacelikeError, _take, covariant_h, curvature, extremal_residual,
    frame_riemann_oracle, fundamental_forms, graph_geometry, induced_metric, integrate_geodesic,
    pseudo_distance, ricci_bound_check,
)
from spacelike.grassmann import distance, gauss_map, graph_node_table, max_modulus, pullback_check
from spacelike.jets import _taylor, jet_stack
from spacelike.lagrangian import (
    NotConvexError, Potential, gradient_graph, lagrangian_forms, ma_residual, moduli_curvature,
    moduli_curvature_oracle, node_table, to_standard,
)


def pullback_along_e1(gm, x):
    return pullback_check(gm, x, 0)


GRAPH_FUNCTIONS = (induced_metric, fundamental_forms, curvature,
                   ricci_bound_check, extremal_residual, frame_riemann_oracle,
                   pseudo_distance, covariant_h, gauss_map, pullback_along_e1)
POTENTIAL_FUNCTIONS = (gradient_graph, ma_residual, lagrangian_forms, moduli_curvature,
                       moduli_curvature_oracle, to_standard)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:  # the package's errors are ValueErrors
        return (type(err), str(err))


# relative to the largest entry of a result: a few ulps of summation order,
# amplified by the condition number of the metric (up to ~1e3 near the
# space-like or convex boundary) in the functions that invert it
TOL = 1e-12


def _scale(v) -> float:
    if dataclasses.is_dataclass(v):
        return max([_scale(getattr(v, f.name)) for f in dataclasses.fields(v)], default=1.0)
    a = np.asarray(v) if v is not None else np.zeros(0)
    if a.dtype.kind != "f":
        return 1.0
    return max(1.0, float(np.max(np.abs(a[~np.isnan(a)]), initial=0.0)))


def _same(a, b, scale=None) -> bool:
    """Equal up to TOL times the largest entry of the whole result (so a
    rounding-level field such as codazzi_asym is judged on the scale of h)."""
    if isinstance(a, tuple):  # an exception
        return a == b
    scale = _scale(a) if scale is None else scale
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name), scale) for f in dataclasses.fields(a))
    if a is None or b is None:
        return a is b
    if type(a) is not type(b) or np.shape(a) != np.shape(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind != "f":
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and bool(np.all(np.abs(a[~nan] - b[~nan]) <= TOL * scale)))


def _check_rows(fn, owner, pts):
    """fn over the batch raises the first failing point's error; over the
    points that pass it, each row equals the single-point result."""
    singles = [_outcome(fn, owner, p) for p in pts]
    failing = [s for s in singles if isinstance(s, tuple)]
    if failing:
        assert _outcome(fn, owner, pts) == failing[0], fn.__name__
    keep = [i for i, s in enumerate(singles) if not isinstance(s, tuple)]
    if keep:
        batch = fn(owner, pts[keep])
        for row, i in enumerate(keep):
            assert _same(_take(batch, row), singles[i]), (fn.__name__, i)


def _with_log_term(gm: GraphMap) -> GraphMap:
    """The same graph plus a small log term: points with x1 <= -0.5 are out
    of its domain."""
    log = parse("0.01*log(x1+0.5)", gm.m)
    comps = [BinOp(op="+", lhs=c, rhs=log) for c in gm.components]
    return GraphMap.from_strings(gm.m, comps).with_base_point()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 2),
       k=st.integers(1, 6))
def test_graph_batches_equal_single_points(seed, m, n, k):
    rng = np.random.default_rng(seed)
    gm, _ = random_spacelike_graph(rng, m, n)
    gm = _with_log_term(gm)
    # a spread wide enough for non-space-like and out-of-domain points
    pts = rng.uniform(-1.5, 1.5, size=(k, m))
    for fn in GRAPH_FUNCTIONS:
        _check_rows(fn, gm, pts)
    ref = _outcome(gauss_map, gm, np.zeros(m))
    planes = [_outcome(gauss_map, gm, p) for p in pts]
    keep = [i for i, p in enumerate(planes) if not isinstance(p, tuple)]
    if keep and not isinstance(ref, tuple):
        batch = distance(gauss_map(gm, pts[keep]), ref)
        for row, i in enumerate(keep):
            assert _same(_take(batch, row), _outcome(distance, planes[i], ref))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 2),
       k=st.integers(1, 6))
def test_frames_and_ricci_bound_on_random_batches(seed, m, n, k):
    # the drawn point and the others near it with Jacobian singular values <= 0.5
    rng = np.random.default_rng(seed)
    gm, x = random_spacelike_graph(rng, m, n)
    pts = np.vstack([x, x + rng.uniform(-0.2, 0.2, size=(k - 1, m))])
    pts = pts[induced_metric(gm, pts).min_eig >= 0.75]
    margins = ricci_bound_check(gm, pts)
    assert margins.shape == (len(pts),) and np.all(margins >= -1e-10)
    assert max(frame_residual(gm, p) for p in pts) <= 1e-12


def test_pullback_check_takes_a_batch():
    gm, _ = random_spacelike_graph(np.random.default_rng(4), 2, 2)
    pts = np.array([[0.1, 0.2], [0.0, 0.1]])
    rep = pullback_check(gm, pts, [1.0, 2.0])
    assert rep.quotients.shape == (2, 3) and rep.rel_error.shape == (2,)
    for row, p in enumerate(pts):
        assert _same(_take(rep, row), pullback_check(gm, p, [1.0, 2.0]))


# each entry point that takes points of the m = 2 graph 0.3*x1*x2 or the
# m = 2 potential below, called with x in place of one of them
WRONG_DIMENSION_CALLS = {
    "graph_geometry": lambda gm, P, x: graph_geometry(gm, x),
    "fundamental_forms": lambda gm, P, x: fundamental_forms(gm, x),
    "gauss_map": lambda gm, P, x: gauss_map(gm, x),
    "pullback_check": lambda gm, P, x: pullback_check(gm, x, 0),
    "max_modulus": lambda gm, P, x: max_modulus(gm, x, gauss_map(gm, [0.0, 0.0])),
    "gradient_graph": lambda gm, P, x: gradient_graph(P, x),
    "moduli_curvature": lambda gm, P, x: moduli_curvature(P, x),
    "integrate_geodesic-x0": lambda gm, P, x: integrate_geodesic(
        gm, x, np.ones(np.shape(x)[:-1] + (2,)), (0.0, 1.0)),
    "integrate_geodesic-v0": lambda gm, P, x: integrate_geodesic(gm, [0.1, 0.2], x, (0.0, 1.0)),
    "completeness_probe": lambda gm, P, x: completeness_probe(gm, x, T=1.0),
}


@pytest.mark.parametrize("x", [[0.5, 0.5, 0.1, 0.1], [0.5, 0.5, 9.0, 9.0],
                               [[0.1, 0.2, 0.3], [0.0, 0.1, -0.2], [0.3, 0.0, 0.1]]],
                         ids=["2m-point", "2m-point-far", "batch-of-m+1"])
@pytest.mark.parametrize("call", WRONG_DIMENSION_CALLS.values(), ids=WRONG_DIMENSION_CALLS.keys())
def test_a_point_of_the_wrong_dimension_is_refused(call, x):
    # reshaped to (-1, m), a (2m,) point was read as two points and a
    # (k, m + 1) batch as other points, or as a point of dimension m + 1
    gm = GraphMap.from_strings(2, ["0.3*x1*x2"])
    P = Potential.from_string(2, "0.5*x1^2+0.5*x2^2+0.1*x1^3")
    with pytest.raises(ValueError, match=r"m = 2 coordinates, got shape \((4,|3, 3)\)"):
        call(gm, P, np.array(x))


def _random_potential(rng, m: int) -> Potential:
    """A potential convex near the origin, with the log term of _with_log_term."""
    square = "+".join(f"0.5*x{i + 1}^2" for i in range(m))
    text = f"{square}+{polynomial_string(rng, m, 3, scale=0.2)}+0.01*log(x1+0.5)"
    return Potential.from_string(m, text)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), k=st.integers(1, 6))
def test_potential_batches_equal_single_points(seed, m, k):
    rng = np.random.default_rng(seed)
    P = _random_potential(rng, m)
    pts = rng.uniform(-1.5, 1.5, size=(k, m))
    for fn in POTENTIAL_FUNCTIONS:
        _check_rows(fn, P, pts)


# defined for x1 >= -0.5, convex near there and not convex at (0, 1)
EDGE_POTENTIAL = "0.5*x1^2+0.5*x2^2+sqrt(x1+0.5)^4-x2^4"


@pytest.mark.parametrize("fn, text, pts", [
    (moduli_curvature_oracle, EDGE_POTENTIAL, [[-0.5 + 5e-5, 0.0], [0.0, 1.0]]),
    (to_standard, "0.5*x1^2+x2^4/12-x1^4", [[0.0, 1e-7], [1.0, 0.0]]),
], ids=["shifted-point", "standard-frames"])
def test_a_batch_raises_its_first_failing_point_at_a_later_check(fn, text, pts):
    # point 0 fails only a later check (a shifted point is out of the domain;
    # the frames see min_eig 1e-14), point 1 an earlier one (not convex)
    P, pts = Potential.from_string(2, text), np.array(pts)
    first = _outcome(fn, P, pts[0])
    assert isinstance(first, tuple) and first != _outcome(fn, P, pts[1])
    assert _outcome(fn, P, pts) == first


def test_lagrangian_forms_raise_exactly_where_moduli_curvature_raises():
    # both read the jets at the points alone, so a point 5e-7 from the edge
    # of F's domain gets its forms
    P = Potential.from_string(2, EDGE_POTENTIAL)
    pts = np.array([[-0.5 + 5e-7, 0.0], [0.0, 1.0]])
    assert not isinstance(_outcome(lagrangian_forms, P, pts[0]), tuple)
    for x in (pts[0], pts[1], pts):
        forms, moduli = _outcome(lagrangian_forms, P, x), _outcome(moduli_curvature, P, x)
        assert isinstance(forms, tuple) == isinstance(moduli, tuple)
        if isinstance(moduli, tuple):
            assert forms == moduli


# -- the node table is what the per-point functions give, node by node --------

GRAPH_COLUMNS = ("min_eig", "det_g", "H_norm", "S", "ricci_margin", "extremal_residual",
                 "gauss_dist", "z", "grad_ratio")


def _graph_reference(gm: GraphMap, pts, active):
    """Status, columns and notes of graph_node_table, from the per-point
    functions one node at a time.  A node's status is the frames' error,
    told apart by the sign of min_eig, then a failed Gauss-map distance to
    the table's reference plane: the tangent plane at the origin, or at the
    centre of the nodes' box when the origin is outside it, unless that
    plane is undefined or within the tolerance of the null cone."""
    k, m, notes = len(pts), gm.m, []
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    base = np.zeros(m) if np.all(lo <= 0) and np.all(hi >= 0) else 0.5 * (lo + hi)
    ref = _outcome(gauss_map, gm, base)
    if not isinstance(ref, tuple) and isinstance(_outcome(distance, ref, ref), tuple):
        ref = _outcome(distance, ref, ref)
    if isinstance(ref, tuple):
        why = "undefined" if ref[0] is DomainError else "not space-like"
        notes.append(f"gauss_dist is nan, as the tangent plane at x = {base.tolist()} "
                     f"is {why}: {ref[1]}")
    based = _outcome(GraphMap.with_base_point, gm)
    if isinstance(based, tuple):
        notes.append(f"z and grad_ratio are nan, as X(0) is undefined: {based[1]}")
    cols = {name: np.full(k, np.nan) for name in GRAPH_COLUMNS}

    def node(i, p):
        try:
            metric = induced_metric(gm, p)
        except DomainError:
            return "error:DomainError"
        cols["min_eig"][i], cols["det_g"][i] = metric.min_eig, metric.det_g
        try:
            fr = curvature(gm, p)
        except DomainError:
            return "error:DomainError"
        except NotSpacelikeError:
            return "not-spacelike" if metric.min_eig <= 0 else "error:NotSpacelikeError"
        cols["H_norm"][i], cols["S"][i] = fr.H_norm, fr.S
        cols["ricci_margin"][i] = ricci_bound_check(gm, p)
        cols["extremal_residual"][i] = np.linalg.norm(extremal_residual(gm, p), axis=-1)
        if not isinstance(ref, tuple):
            d = _outcome(distance, gauss_map(gm, p), ref)
            if isinstance(d, tuple):
                return "error:NotSpacelikeError"
            cols["gauss_dist"][i] = d
        if not isinstance(based, tuple):
            pd = pseudo_distance(based, p)
            cols["z"][i], cols["grad_ratio"][i] = pd.z, pd.ratio
        return "ok"

    status = [node(i, p) if on else "inactive" for i, (p, on) in enumerate(zip(pts, active))]
    return status, cols, notes


def _check_graph_table(gm: GraphMap, pts, active):
    status, cols, notes = graph_node_table(gm, pts, active)
    ref_status, ref_cols, ref_notes = _graph_reference(gm, pts, active)
    assert list(status) == ref_status
    assert notes == ref_notes
    assert list(cols) == list(GRAPH_COLUMNS)
    for name in GRAPH_COLUMNS:
        assert np.array_equal(cols[name], ref_cols[name], equal_nan=True), name
    return status, cols, notes


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 2),
       k=st.integers(1, 8))
def test_graph_node_statuses_are_what_the_points_raise(seed, m, n, k):
    rng = np.random.default_rng(seed)
    gm, _ = random_spacelike_graph(rng, m, n)
    gm = _with_log_term(gm)
    pts = rng.uniform(-1.5, 1.5, size=(k, m))
    active = rng.random(k) < 0.8
    _check_graph_table(gm, pts, active)


def _grid(lo, hi, nodes=5):
    axis = np.linspace(lo, hi, nodes)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)


@pytest.mark.parametrize("component, pts, notes", [
    # the origin outside the box: the base point and the origin are two rows
    ("sqrt(1+x1^2+x2^2)", _grid(0.5, 1.5), 0),
    # the jets fail at the origin, its value exists
    ("asinh(sqrt(x1^2+x2^2))", _grid(-1.0, 1.0, 4), 1),
    # the Hessian overflows at the origin, the plane there is valid
    ("1e308*x1^2", _grid(-1.0, 1.0), 0),
    # the same at the origin only: the other nodes reach every column
    ("0.3*x1+0.1*x2^2+1e308*exp(-1e4*(x1^2+x2^2))*x2^2", _grid(-1.0, 1.0), 0),
    # no plane and no X(0) at the origin
    ("log(x1)", _grid(-1.0, 1.0), 2),
    ("sin(4*x1)", _grid(0.3, 0.7), 1),
], ids=["origin-outside", "asinh", "hessian-overflow", "overflow-at-origin", "log", "sin"])
def test_graph_node_table_fixed_cases(component, pts, notes):
    active = np.ones(len(pts), dtype=bool)
    active[1] = False
    _, _, got = _check_graph_table(GraphMap.from_strings(2, [component]), pts, active)
    assert len(got) == notes


def test_graph_node_statuses_at_the_space_like_boundary():
    # |grad f| = |x1| on x2 = 0, so min_eig = 1 - x1^2; log(x2 + 1) fails at x2 = -1.5
    gm = GraphMap.from_strings(2, ["0.5*x1^2+0.1*log(x2+1)-0.1*x2"])
    pts = np.array([[0.0, 0.0], [1.0 - 2.5e-13, 0.0], [1.0, 0.0], [1.5, 0.0], [0.0, -1.5],
                    [0.5, 0.5]])
    active = np.array([True] * 5 + [False])
    status, cols, _ = _check_graph_table(gm, pts, active)
    assert list(status) == ["ok", "error:NotSpacelikeError", "not-spacelike", "not-spacelike",
                            "error:DomainError", "inactive"]
    assert 0.0 < cols["min_eig"][1] <= SPACELIKE_TOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), k=st.integers(1, 8))
def test_potential_node_statuses_are_what_the_points_raise(seed, m, k):
    rng = np.random.default_rng(seed)
    P = _random_potential(rng, m)
    pts = rng.uniform(-1.5, 1.5, size=(k, m))
    names = {DomainError: "error:DomainError", NotConvexError: "not-convex"}
    for oracle, fn in ((True, moduli_curvature_oracle), (False, moduli_curvature)):
        status, _ = node_table(P, pts, oracle)
        outcomes = [_outcome(fn, P, p) for p in pts]
        assert list(status) == [names[o[0]] if isinstance(o, tuple) else "ok" for o in outcomes]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 3), k=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
def test_lower_order_jets_are_the_leading_coefficients(data, m, k, seed):
    # order 0 is left out: values divide where jets multiply by a reciprocal
    leaf = st.one_of(st.integers(1, m).map(lambda i: f"x{i}"),
                     st.floats(min_value=0.001, max_value=100.0).map(repr), st.just("pi"))
    expr = parse(data.draw(_exprs(3, leaf)), m)
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(k, m))
    with np.errstate(all="ignore"):
        full, _ = _taylor(expr, pts, 3)
        for order in (1, 2):
            coeffs, _ = _taylor(expr, pts, order)
            assert len(coeffs) == order + 1
            for c, ref in zip(coeffs, full):
                assert np.array_equal(c, ref, equal_nan=True)
    # a point clean at order 3 is clean below it, with the same jet
    full, fails3 = jet_stack((expr,), pts)
    clean = fails3.code == OK
    for order in (1, 2):
        coeffs, fails = jet_stack((expr,), pts, order)
        assert np.all(fails.code[clean] == OK)
        assert len(coeffs) == order + 1
        for c, ref in zip(coeffs, full):
            assert np.array_equal(c[clean], ref[clean])
