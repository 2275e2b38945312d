import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from test_exprparse import _exprs

from spacelike.exprparse import DomainError, eval_values, parse
from spacelike.graphgeom import GraphMap, fundamental_forms
from spacelike.jets import evaluate_jet, finite_diff_check


def test_square_jet():
    jet = evaluate_jet(parse("x1^2", 1), [3.0])
    assert jet.value == 9.0
    assert jet.grad[0] == 6.0
    assert jet.hess[0, 0] == 2.0
    assert jet.third[0, 0, 0] == 0.0


def test_hyperboloid_jet_at_origin():
    jet = evaluate_jet(parse("sqrt(1 + x1^2 + x2^2)", 2), [0.0, 0.0])
    assert jet.value == 1.0
    assert np.allclose(jet.grad, 0.0, atol=1e-15)
    assert np.allclose(jet.hess, np.eye(2), atol=1e-15)
    assert np.allclose(jet.third, 0.0, atol=1e-15)


def test_mixed_product_against_finite_differences():
    rng = np.random.default_rng(7)
    expr = parse("exp(x1)*sin(x2)", 2)
    for _ in range(5):
        p = rng.uniform(-1.0, 1.0, size=2)
        rep = finite_diff_check(expr, p, 1e-4)
        assert rep.max_rel[1] <= 1e-5
        assert rep.max_rel[2] <= 1e-5


def test_cubic_finite_diff_orders():
    rep = finite_diff_check(parse("x1^3", 1), [1.0], 1e-3)
    assert rep.max_rel[1] <= 1e-6
    assert rep.max_rel[2] <= 1e-6


def test_constant_all_orders_zero():
    rep = finite_diff_check(parse("5", 3), [0.3, -0.2, 1.0], 0.01)
    assert rep.max_rel == {1: 0.0, 2: 0.0, 3: 0.0}


def test_sin_third_order():
    rep = finite_diff_check(parse("sin(x1)", 1), [0.7], 1e-4)
    assert rep.max_rel[3] <= 1e-4


def test_all_elementary_functions_vs_fd():
    exprs = [
        "sin(x1)", "cos(x1)", "exp(x1)", "log(x1+2)", "sqrt(x1+2)",
        "sinh(x1)", "cosh(x1)", "tanh(x1)", "asinh(x1)", "atanh(x1/2)",
    ]
    for s in exprs:
        rep = finite_diff_check(parse(s, 1), [0.37], 1e-4)
        assert rep.max_rel[1] <= 1e-6, s
        assert rep.max_rel[2] <= 1e-5, s
        assert rep.max_rel[3] <= 1e-3, s


def test_division_and_negative_power():
    rep = finite_diff_check(parse("1/(1+x1^2)", 1), [0.5], 1e-4)
    assert rep.max_rel[2] <= 1e-6
    jet = evaluate_jet(parse("x1^-2", 1), [2.0])
    assert jet.value == 0.25
    assert np.isclose(jet.grad[0], -2.0 * 2.0**-3)


def test_domain_error_identifies_subexpression():
    expr = parse("x1 + log(x2)", 2)
    with pytest.raises(DomainError) as err:
        evaluate_jet(expr, [1.0, -1.0])
    # the span points at log(x2), not the whole sum
    assert err.value.span == (5, 12)


def test_sqrt_jet_at_zero_rejected():
    with pytest.raises(DomainError):
        evaluate_jet(parse("sqrt(x1)", 1), [0.0])


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
)
def test_linearity_exact(a, b, p1, p2):
    e1 = parse("sin(x1)*x2", 2)
    e2 = parse("x1^2 - x2^3", 2)
    combo = parse(f"({a!r})*(sin(x1)*x2) + ({b!r})*(x1^2 - x2^3)", 2)
    x = np.array([p1, p2])
    j1, j2, jc = evaluate_jet(e1, x), evaluate_jet(e2, x), evaluate_jet(combo, x)
    ja, jb = evaluate_jet(parse(f"({a!r})", 2), x), evaluate_jet(parse(f"({b!r})", 2), x)
    ref = ja * j1 + jb * j2
    assert jc.value == ref.value
    assert np.array_equal(jc.grad, ref.grad)
    assert np.array_equal(jc.hess, ref.hess)
    assert np.array_equal(jc.third, ref.third)


def test_product_rule_truncated_taylor():
    x = np.array([0.4, -0.3])
    e1, e2 = parse("exp(x1)+x2", 2), parse("sin(x2)*x1", 2)
    j = evaluate_jet(parse("(exp(x1)+x2)*(sin(x2)*x1)", 2), x)
    jp = evaluate_jet(e1, x) * evaluate_jet(e2, x)
    for a, b in [(j.value, jp.value)]:
        assert abs(a - b) <= 1e-14 * max(1, abs(a))
    assert np.allclose(j.grad, jp.grad, rtol=1e-14, atol=1e-16)
    assert np.allclose(j.hess, jp.hess, rtol=1e-14, atol=1e-16)
    assert np.allclose(j.third, jp.third, rtol=1e-13, atol=1e-15)


def test_packed_storage_sizes():
    m = 4
    jet = evaluate_jet(parse("x1*x2*x3*x4", m), [1.0, 2.0, 3.0, 4.0])
    # dense views are exactly symmetric
    assert np.array_equal(jet.hess, jet.hess.T)
    t = jet.third
    assert np.array_equal(t, t.transpose(1, 0, 2))
    assert np.array_equal(t, t.transpose(0, 2, 1))


def test_overflowing_jet_raises_domain_error():
    gm = GraphMap.from_strings(1, ["exp(x1)^40"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            fundamental_forms(gm, [30.0])
    assert err.value.span == (0, 10)


def test_overflowing_value_raises_domain_error():
    with pytest.raises(DomainError) as err:
        eval_values(parse("exp(x1)^40", 1), [30.0])
    assert err.value.span == (0, 10)


@pytest.mark.parametrize("u", [5.0, 10.0, 20.0, 30.0])
def test_tanh_derivatives_do_not_cancel(u):
    # closed forms in e = exp(-2u), free of cancellation for u > 0
    e = np.exp(-2.0 * u)
    ref = (4 * e / (1 + e) ** 2, -8 * e * (1 - e) / (1 + e) ** 3,
           16 * e * (1 - 4 * e + e * e) / (1 + e) ** 4)
    jet = evaluate_jet(parse("tanh(x1)", 1), [u])
    for got, want in zip((jet.grad[0], jet.hess[0, 0], jet.third[0, 0, 0]), ref):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_deep_left_sum_evaluates():
    # a 3000-term sum is far deeper than the interpreter's recursion limit
    expr = parse("+".join(["x1"] * 3000), 1)
    assert eval_values(expr, np.array([0.5])) == 1500.0
    jet = evaluate_jet(expr, [0.5])
    assert jet.value == 1500.0
    assert jet.grad[0] == 3000.0
    assert jet.hess[0, 0] == 0.0 and jet.third[0, 0, 0] == 0.0


@settings(max_examples=100, deadline=None)
@given(
    _exprs(3),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4),
)
def test_batched_rows_equal_single_point_jets(text, points):
    expr = parse(text, 2)
    pts = np.array(points)
    try:
        batch = evaluate_jet(expr, pts)
    except DomainError:
        reject()
    for row, p in enumerate(pts):
        single = evaluate_jet(expr, p)
        assert np.array_equal(batch.value[row], single.value)
        assert np.array_equal(batch.grad[row], single.grad)
        assert np.array_equal(batch.hess[row], single.hess)
        assert np.array_equal(batch.third[row], single.third)
    assert np.array_equal(batch.hess, batch.hess.transpose(0, 2, 1))
    for perm in ((0, 2, 1, 3), (0, 1, 3, 2)):
        assert np.array_equal(batch.third, batch.third.transpose(perm))
