import copy
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from oracles import _mul, dense_taylor, sparse_taylor
from test_exprparse import _exprs

import spacelike.jets as jets
from spacelike.bernstein import geodesic_radius
from spacelike.checks import hyperboloid, random_spacelike_graph
from spacelike.exprparse import (FUNCTIONS, BinOp, Const, DomainError, Unary, Var, eval_values,
                                 parse)
from spacelike.failures import OK
from spacelike.graphgeom import (GraphMap, fundamental_forms, graph_geometry, integrate_geodesic,
                                 simons_report)
from spacelike.grassmann import gauss_map, graph_node_table
from spacelike.jets import evaluate_jet, finite_diff_check, jet_stack
from spacelike.lagrangian import Potential, node_table
from spacelike.lattice import Lattice, active_mask, node_points


def _coeffs(jet):
    return jet.value, jet.grad, jet.hess, jet.third


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


def test_nan_difference_is_reported(monkeypatch):
    import spacelike.jets as jets

    monkeypatch.setattr(jets, "eval_values", lambda expr, p: np.nan)
    rep = finite_diff_check(parse("x1*x2", 2), [0.3, -0.2], 1e-4)
    assert all(np.isnan(v) for v in rep.max_rel.values())


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


def test_batch_raises_the_error_of_its_first_failing_point():
    # point 1 fails first in evaluation order (sqrt, the left operand), point 0 at log
    expr = parse("sqrt(x1)+log(x2)", 2)
    gm = GraphMap(2, 1, (expr,))
    pts = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for fn in (lambda: eval_values(expr, pts), lambda: evaluate_jet(expr, pts),
               lambda: jet_stack(gm.components, pts)[1].raise_first(),
               lambda: graph_geometry(gm, pts).fails.raise_first(), lambda: gauss_map(gm, pts)):
        with pytest.raises(DomainError, match="log argument out of range") as err:
            fn()
        assert err.value.span == (9, 16)


def test_sqrt_jet_at_zero_rejected():
    with pytest.raises(DomainError):
        evaluate_jet(parse("sqrt(x1)", 1), [0.0])


def test_the_dimension_cap_guards_the_derivative_orders():
    # m = 9 is the boundary data of a 9-dimensional lattice, which has no m
    # cap; only the derivative blocks, m^3 per point at order 3, are capped
    m = jets.MAX_DIM + 1
    expr = parse("+".join(f"x{i}^2" for i in range(1, m + 1)), m)
    pts = np.arange(2.0 * m).reshape(2, m)
    assert eval_values(expr, pts[0]) == float(np.sum(pts[0] ** 2))
    assert np.array_equal(eval_values(expr, pts), np.sum(pts**2, axis=-1))
    assert np.array_equal(evaluate_jet(expr, pts, 0).value, eval_values(expr, pts))
    for order in (1, 2, 3):
        with pytest.raises(ValueError, match=f"dimension {m} exceeds the supported cap"):
            evaluate_jet(expr, pts, order)


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
    value, grad, hess, third = (p + q for p, q in zip(_mul(_coeffs(ja), _coeffs(j1)),
                                                      _mul(_coeffs(jb), _coeffs(j2))))
    assert jc.value == value
    assert np.array_equal(jc.grad, grad)
    assert np.array_equal(jc.hess, hess)
    assert np.array_equal(jc.third, third)


def test_product_rule_truncated_taylor():
    x = np.array([0.4, -0.3])
    e1, e2 = parse("exp(x1)+x2", 2), parse("sin(x2)*x1", 2)
    j = evaluate_jet(parse("(exp(x1)+x2)*(sin(x2)*x1)", 2), x)
    value, grad, hess, third = _mul(_coeffs(evaluate_jet(e1, x)), _coeffs(evaluate_jet(e2, x)))
    for a, b in [(j.value, value)]:
        assert abs(a - b) <= 1e-14 * max(1, abs(a))
    assert np.allclose(j.grad, grad, rtol=1e-14, atol=1e-16)
    assert np.allclose(j.hess, hess, rtol=1e-14, atol=1e-16)
    assert np.allclose(j.third, third, rtol=1e-13, atol=1e-15)


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


def test_an_evaluated_expression_pickles_and_copies():
    # the jet programs an expression keeps are not part of its value
    expr = parse("sqrt(1+x1^2)*sin(x2)/x1", 2)
    x = np.array([[0.5, 0.3], [1.5, -0.2]])
    jet = evaluate_jet(expr, x)
    for other in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
        assert other == expr and other.span == expr.span
        for got, want in zip(_coeffs(evaluate_jet(other, x)), _coeffs(jet)):
            assert np.array_equal(got, want)


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


_literal = st.one_of(st.floats(min_value=1e-3, max_value=100.0).map(repr), st.just("pi"))


def _trees(leaf, max_leaves):
    """Expression texts over ``leaf`` with up to ``max_leaves`` leaves, every
    function and operator of the language, exponents -2 to 4."""
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(sub, st.integers(min_value=-2, max_value=4)).map(lambda t: f"({t[0]})^{t[1]}"),
    ), max_leaves=max_leaves)


@st.composite
def _taylor_cases(draw):
    """An expression in x1..xm (m 1 to 3) whose leaves are variables,
    literals, pi and constant subtrees such as sin(2.0) or (3)^2, at 1 to 6
    points, and an order from 0 to 3."""
    m = draw(st.integers(min_value=1, max_value=3))
    var = st.integers(min_value=1, max_value=m).map(lambda i: f"x{i}")
    text = draw(_trees(st.one_of(var, _literal, _trees(_literal, 3)), 8))
    k = draw(st.integers(min_value=1, max_value=6))
    pts = draw(st.lists(st.floats(-2.0, 2.0), min_size=k * m, max_size=k * m))
    return parse(text, m), np.reshape(pts, (k, m)), draw(st.sampled_from((3, 2, 1, 0)))


def _constant_subtrees(expr):
    """The subtrees whose derivatives are zero by their form: literals,
    anything built from literals alone, and a power u^0."""
    found = []

    def visit(node):
        if isinstance(node, (Const, Var)):
            const = isinstance(node, Const)
        elif isinstance(node, Unary):
            const = visit(node.child)
        elif isinstance(node, BinOp):
            const = visit(node.lhs) & visit(node.rhs)
        else:
            const = visit(node.base) or node.exponent == 0
        if const:
            found.append(node)
        return const

    visit(expr)
    return found


_POINTS = np.array([[0.3, -0.7], [1.1, 0.4]])


@settings(max_examples=300, deadline=None)
@given(_taylor_cases())
# one example per kind of term that has an exact-zero factor
@example((parse("x1*sin(x2) + x2*x1", 2), _POINTS, 3))
@example((parse("(sin(x1) - 2.5) + (pi - x2)", 2), _POINTS, 3))
@example((parse("cos(2*x1) + (x1 - x2)^3", 2), _POINTS, 3))
@example((parse("-(1.5)*sin(2.0)*x1^2 + (3)^2/x2 + (x1*x2)^0 - (x2)^1", 2), _POINTS, 3))
def test_taylor_equals_the_dense_evaluator(case):
    # _taylor skips the derivative blocks that are exactly zero; the dense
    # evaluator forms them.  Where the dense one passes, both give the same
    # numbers; and both fail at the same points with the same errors, except
    # where a dense constant subtree's zero derivatives meet an infinite
    # factor (0 * inf = nan), which _taylor never forms.
    expr, pts, order = case
    with np.errstate(all="ignore"):
        got, got_fails = jets._taylor(expr, pts, order)
        want, want_fails = dense_taylor(expr, pts, order)
        nan_zeros = np.zeros(len(pts), dtype=bool)
        for sub in _constant_subtrees(expr):
            for c in dense_taylor(sub, pts, order)[0][1:]:
                nan_zeros |= ~np.isfinite(c.reshape(len(pts), -1)).all(axis=-1)
    assert len(got) == len(want) == order + 1

    def errors(fails):
        found = [None] * len(pts) if fails is None else [fails[p] for p in range(len(pts))]
        return [None if e is None else str(e) for e in found]

    got_errors, want_errors = errors(got_fails), errors(want_fails)
    for p in range(len(pts)):
        if not nan_zeros[p]:
            assert got_errors[p] == want_errors[p]
        if want_errors[p] is None:
            assert got_errors[p] is None
            for g, w in zip(got, want):
                assert np.array_equal(g[p], w[p], equal_nan=True)


def _bits(result):
    coeffs, fails = result
    return ([(c.shape, c.tobytes()) for c in coeffs], None if fails is None else (
        fails.code.tobytes(), fails.value.tobytes(), [(str(e), e.span) for e in fails.errors]))


@settings(max_examples=300, deadline=None)
@given(_taylor_cases())
@example((parse("x1*sin(x2) + x2*x1", 2), _POINTS, 3))
@example((parse("-(1.5)*sin(2.0)*x1^2 + (3)^2/x2 + (x1*x2)^0 - (x2)^1", 2), _POINTS, 3))
@example((parse("-(x1 - x1) * (0 - x2) / (x1 - 1.1)^3", 2), _POINTS, 3))
def test_taylor_equals_the_walk_bit_for_bit(case):
    # the program makes the walk's numpy operations on the walk's operands,
    # so its coefficients and failures are the walk's, the sign of a zero
    # included; it is built at the first point set and run at the second
    expr, pts, order = case
    more = np.concatenate([pts[::-1], 1.5 * pts - 0.25])
    with np.errstate(all="ignore"):
        for x in (pts, more):
            assert _bits(jets._taylor(expr, x, order)) == _bits(sparse_taylor(expr, x, order))


_POWERS = ["x1^1", "x1^2", "x1^3", "(x1-1)^2", "(x1+x2)^3"]
# x1 at 0, -0.0, 1 and 1e200 (whose powers above 1 overflow), x2 = 0.0 * x1
# so that x1 + x2 keeps the sign of a zero, then a random batch
_BASES = np.array([0.0, -0.0, 1.0, 1e200])
_POWER_POINTS = [np.stack([_BASES, 0.0 * _BASES], axis=-1),
                 np.random.default_rng(31).uniform(-2.0, 2.0, size=(6, 2))]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("text", _POWERS)
def test_power_rule_equals_the_walk_and_the_dense_evaluator(text, order):
    # the program forms c u^1 as c*u and c u^0 as the constant c, where the
    # walk and the dense evaluator compute u**1 and u**0: the same numbers,
    # the sign of a zero and the failure records of an overflow included;
    # only x1 = 1e200 fails, for every power above 1
    expr = parse(text, 2)
    for pts, failing in zip(_POWER_POINTS, ([False] * 3 + [text != "x1^1"], [False] * 6)):
        with np.errstate(all="ignore"):
            got, fails = jets._taylor(expr, pts, order)
            assert _bits((got, fails)) == _bits(sparse_taylor(expr, pts, order))
            want, want_fails = dense_taylor(expr, pts, order)
        assert _bits((got, fails))[1] == _bits((want, want_fails))[1]
        assert ([False] * len(pts) if fails is None else list(fails.code != OK)) == failing
        for p in np.flatnonzero(failing):
            assert str(fails[p]).startswith("non-finite jet (overflow or NaN)")
        ok = ~np.array(failing)
        for g, w in zip(got, want):
            assert np.allclose(g[ok], w[ok], rtol=1e-15, atol=0.0)


def test_power_rule_emits_no_pow_for_u1_or_u0():
    # d_k = c u^(p-k) takes a pow step only for an exponent p - k outside 0
    # and 1; the probe's order-2 program of the hyperboloid has 19 steps,
    # as the constant 1, the unit gradients and the Hessians 2 e_i e_i^T of
    # the x_i^2 are folded at build time
    program = jets._build(parse("sqrt(1+x1^2+x2^2)", 2), 2, 2)
    assert len(program.steps) == 19

    def at_run_time(x):
        return x != 0 and program.regs[x] is None

    # the fold is complete: every step reads the points' values or a block
    # that a step computes
    assert all(at_run_time(a) or at_run_time(b) or (a == 0 and fn is operator.getitem)
               for _, fn, a, b in program.steps)

    def exponents(program):
        return [program.regs[b] for _, fn, _, b in program.steps if fn is operator.pow]

    assert exponents(program) == [2, 2]
    for p in range(-2, 5):
        for order in range(4):
            value, *derivs = exponents(jets._build(parse(f"x1^{p}", 1), order, 1))
            assert value == p and not {0, 1} & set(derivs)


def test_constant_derivatives_are_exact_zeros():
    # sqrt(1e-320) and log(5e-324) have finite values and infinite
    # derivatives; a constant's zero gradient never meets them, so no 0 * inf
    x = np.array([[0.5, 0.25], [-1.5, 2.0]])
    var = evaluate_jet(parse("x1", 2), x)
    jet = evaluate_jet(parse("x1 + sqrt(1e-320)", 2), x)
    assert np.array_equal(jet.value, x[:, 0] + np.sqrt(1e-320))
    for got, want in zip(_coeffs(jet)[1:], _coeffs(var)[1:]):
        assert np.array_equal(got, want)
    c = np.log(5e-324)
    jet = evaluate_jet(parse("x1*log(5e-324)", 2), x)
    assert np.array_equal(jet.value, x[:, 0] * c)
    assert np.array_equal(jet.grad, c * var.grad)
    assert not jet.hess.any() and not jet.third.any()
    # sqrt(0) has a value but no derivative, constant or not
    with pytest.raises(DomainError, match="sqrt argument must be positive for differentiation"):
        evaluate_jet(parse("sqrt(0)*x1", 2), x)


# -- blocks folded at build time ---------------------------------------------

_FOLDED = ["sin(0.9)*x1 + exp(2)", "2", "x1^2", "(3*x1*x2)^2", "x1*x2*x3",
           "log(0)*x1", "x1/(2-2)", "sqrt(0)*x1"]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("text", _FOLDED)
def test_folded_blocks_equal_the_walk_bit_for_bit(text, order):
    # functions of constants, a constant root, the constant Hessians and
    # third derivatives of monomials, and constants outside a domain, which
    # fail at every point: the build computes each once, on one row, and
    # the run broadcasts it over a batch, a single point and an empty batch
    expr = parse(text, 3)
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 3))
    with np.errstate(all="ignore"):
        for x in (pts, pts[1:2], pts[:0]):
            assert _bits(jets._taylor(expr, x, order)) == _bits(sparse_taylor(expr, x, order))
        # each call returns arrays of its own, a folded root's too
        for c in jets._taylor(expr, pts, order)[0]:
            c[...] = np.nan
        assert _bits(jets._taylor(expr, pts, order)) == _bits(sparse_taylor(expr, pts, order))
    folded = [r for r in expr._jet_programs[order, 3].regs if isinstance(r, np.ndarray)]
    assert folded or order == 0
    assert not any(r.flags.writeable for r in folded)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_a_negative_literal_is_folded_from_its_value(order):
    # the parser reads (-2.5) as the negation of the constant 2.5: the build
    # folds -2.5 straight from the literal's value, so the program holds one
    # row per constant and no dead row of 2.5; -0 keeps its sign
    expr = parse("(-2.5)*x1 + x2*(-0.5) - 3 + (-0)*x1*x2", 2)
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(5, 2))
    for x in (pts, pts[:1], pts[:0]):
        assert _bits(jets._taylor(expr, x, order)) == _bits(sparse_taylor(expr, x, order))
    rows = sorted(float(r[0]) for r in expr._jet_programs[order, 2].regs
                  if isinstance(r, np.ndarray) and r.shape == (1,))
    assert rows == [-2.5, -0.5, 0.0, 3.0] and np.signbit(rows[2])


def test_programs_are_kept_per_order_and_dimension():
    # a unit gradient has m entries, so one expression evaluated at 2-D and
    # at 3-D points keeps a program for each m, with one unit gradient per
    # variable however often it occurs; a copy builds its own
    expr = parse("x1*x2 + x2 + 1", 2)
    for m in (2, 3):
        x = np.arange(2.0 * m).reshape(2, m)
        grad = np.zeros((2, m))
        grad[:, 0], grad[:, 1] = x[:, 1], x[:, 0] + 1.0
        assert np.array_equal(evaluate_jet(expr, x, order=2).grad, grad)
    assert sorted(expr._jet_programs) == [(2, 2), (2, 3)]
    for (_, m), program in expr._jet_programs.items():
        units = [r for r in program.regs if isinstance(r, np.ndarray) and r.ndim == 2]
        assert len(units) == 2 and all(r.shape == (1, m) for r in units)
    for other in (pickle.loads(pickle.dumps(expr)), copy.copy(expr), copy.deepcopy(expr)):
        assert other == expr and "_jet_programs" not in other.__dict__


def test_order3_pass_peak_memory():
    # an order-3 pass of an m = 3 polynomial-plus-sine component at 40k
    # points peaks at 46.7 MiB when every step runs and 37.0 MiB with the
    # point-independent blocks folded at build time
    expr = parse("0.6*x1 - 1.2*x2 + 0.8*x3 + 0.5*x1*x2 - 0.7*x3^2 + 0.9*x1*x2*x3"
                 " + 1.1*sin(0.8*x1 + 1.3*x3)", 3)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40_000, 3))
    jet_stack((expr,), pts[:1], 3)  # the build is not measured
    tracemalloc.start()
    try:
        jet_stack((expr,), pts, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * 2**20


# -- orders below 3 -----------------------------------------------------------

def test_unread_orders_are_not_checked():
    # the third derivative 2.4e308 overflows; the lower orders do not
    expr = parse("2e307*x1^4", 2)
    _, fault = jet_stack((expr,), [[0.5, 0.0]], order=2)
    assert fault[0] is None
    _, fault = jet_stack((expr,), [[0.5, 0.0]], order=3)
    assert "non-finite jet" in str(fault[0])
    for order in (1, 2, 3):
        _, fault = jet_stack((parse("sqrt(x1)", 1),), [[0.0]], order=order)
        assert "sqrt argument must be positive" in str(fault[0])


def _requested_orders(monkeypatch):
    """The orders of every Taylor pass from here on, in call order."""
    seen, real = [], jets._taylor

    def recording(expr, pts, order):
        seen.append(order)
        return real(expr, pts, order)

    monkeypatch.setattr(jets, "_taylor", recording)
    return seen


def test_each_caller_asks_for_the_order_it_reads(monkeypatch):
    gm = hyperboloid()
    lat = Lattice.box((-1.0, -1.0), (1.0, 1.0), 7)
    pts = node_points(lat)
    seen = _requested_orders(monkeypatch)

    def orders(call):
        seen.clear()
        call()
        return list(seen)

    assert max(orders(lambda: graph_node_table(gm, pts, active_mask(lat).ravel()))) <= 2
    # the start normalisation reads the Jacobian, each right-hand side the Hessians
    geodesic = orders(lambda: integrate_geodesic(gm, np.zeros(2), [[1.0, 0.0]], (0.0, 0.5)))
    assert geodesic[0] == 1 and set(geodesic[1:]) == {2}
    assert set(orders(lambda: geodesic_radius(gm, lat, [0.0, 0.0]))) == {1}
    assert set(orders(lambda: gauss_map(gm, pts))) == {1}
    assert set(orders(lambda: random_spacelike_graph(np.random.default_rng(0), 2, 1))) == {1}
    assert set(orders(lambda: simons_report(gm, lat))) == {3}
    P = Potential.from_string(2, "0.5*x1^2+0.5*x2^2+0.1*x1^3")
    assert set(orders(lambda: node_table(P, pts, oracle=False))) == {3}
