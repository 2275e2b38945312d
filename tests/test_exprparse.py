import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacelike.exprparse import (
    BinOp, DomainError, ParseError, Pow, Unary, Var, eval_values, parse, pretty,
)


def test_parse_sum_of_squares():
    e = parse("x1^2 + x2^2", 2)
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.lhs, Pow) and e.lhs.exponent == 2
    assert isinstance(e.lhs.base, Var) and e.lhs.base.index == 1


def test_parse_hyperboloid():
    e = parse("sqrt(1 + x1^2 + x2^2)", 2)
    assert isinstance(e, Unary) and e.op == "sqrt"
    assert eval_values(e, np.zeros(2)) == 1.0


def test_variable_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("x3", 2)


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("y1 + 2", 2)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 + ", 1)
    assert err.value.offset == 5


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="integer exponent"):
        parse("x1^1.5", 1)


@pytest.mark.parametrize("text, offset", [("1e400*x1", 0), ("x1 + 2e308", 5)])
def test_non_finite_literal_rejected(text, offset):
    with pytest.raises(ParseError, match="not a finite number") as err:
        parse(text, 1)
    assert err.value.offset == offset


@pytest.mark.parametrize("text", ["(" * 2000 + "x1" + ")" * 2000, "-" * 3000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(text, 1)


def test_constants():
    assert eval_values(parse("pi", 1), np.zeros(1)) == math.pi
    assert eval_values(parse("e", 1), np.zeros(1)) == math.e


def test_unary_minus_binds_at_base():
    # the grammar puts '-' below '^': -x1^2 is (-x1)^2
    e = parse("-x1^2", 1)
    assert isinstance(e, Pow)
    assert isinstance(e.base, Unary) and e.base.op == "neg"
    assert eval_values(e, np.array([3.0])) == 9.0


def test_negative_exponent():
    e = parse("x1^-2", 1)
    assert eval_values(e, np.array([2.0])) == 0.25


def test_parenthesization_idempotent():
    for text in ["x1+x2*x1", "sin(x1)", "x1^3", "1/x1-2"]:
        assert parse(f"({text})", 2) == parse(text, 2)


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_values(parse("log(x1)", 1), np.array([-1.0]))
    with pytest.raises(DomainError):
        eval_values(parse("sqrt(x1)", 1), np.array([-1.0]))
    with pytest.raises(DomainError):
        eval_values(parse("atanh(x1)", 1), np.array([2.0]))
    with pytest.raises(DomainError):
        eval_values(parse("1/x1", 1), np.array([0.0]))


def test_vectorized_eval():
    e = parse("x1*x2 + exp(x1)", 2)
    pts = np.array([[0.0, 1.0], [1.0, 2.0]])
    out = eval_values(e, pts)
    assert np.allclose(out, [1.0, 2.0 + math.e])


# -- round trip property -----------------------------------------------------

_leaf = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda k: f"x{k % 2 + 1}"),
    st.floats(min_value=0.001, max_value=100.0, allow_nan=False).map(repr),
    st.just("pi"),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh", "tanh"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        sub.map(lambda s: f"-({s})"),
        st.tuples(sub, st.integers(min_value=0, max_value=4)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs(3))
def test_pretty_round_trip(text):
    ast = parse(text, 2)
    printed = pretty(ast)
    assert parse(printed, 2) == ast
