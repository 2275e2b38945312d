"""Every per-point function over a batch of points equals the function at
each point alone: the same exception, and the same numbers up to the order
of summation.  numpy's reductions (einsum, matmul) may add in another order
for a row inside a batch than for the same data alone, depending on where
the row sits in memory; elementwise arithmetic, and hence the jets, agree
bit for bit (tests/test_jets.py)."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polynomial_string, random_spacelike_graph
from test_exprparse import _exprs

from spacelike.checks import frame_residual
from spacelike.exprparse import BinOp, parse
from spacelike.graphgeom import (
    GraphMap, _take, adapted_frames, covariant_h, curvature, extremal_residual,
    frame_riemann_oracle, fundamental_forms, induced_metric, pseudo_distance, ricci_bound_check,
)
from spacelike.grassmann import distance, gauss_map, pullback_check
from spacelike.jets import _taylor, jet_rows
from spacelike.lagrangian import (
    Potential, gradient_graph, lagrangian_forms, ma_residual, moduli_curvature,
    moduli_curvature_oracle, to_standard,
)


def pullback_along_e1(gm, x):
    return pullback_check(gm, x, 0)


GRAPH_FUNCTIONS = (induced_metric, adapted_frames, fundamental_forms, curvature,
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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), k=st.integers(1, 6))
def test_potential_batches_equal_single_points(seed, m, k):
    rng = np.random.default_rng(seed)
    square = "+".join(f"0.5*x{i + 1}^2" for i in range(m))
    text = f"{square}+{polynomial_string(rng, m, 3, scale=0.2)}+0.01*log(x1+0.5)"
    P = Potential.from_string(m, text)
    pts = rng.uniform(-1.5, 1.5, size=(k, m))
    for fn in POTENTIAL_FUNCTIONS:
        _check_rows(fn, P, pts)


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
    jet3, fault3 = jet_rows(expr, pts)
    clean = np.equal(fault3, None)
    names = ("value", "grad", "hess", "third")
    for order in (1, 2):
        jet, fault = jet_rows(expr, pts, order)
        assert np.all(np.equal(fault[clean], None))
        for name in names[:order + 1]:
            assert np.array_equal(getattr(jet, name)[clean], getattr(jet3, name)[clean])
        assert all(getattr(jet, name) is None for name in names[order + 1:])
