import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse
from spacelike.exprparse import (
    BinOp, Const, DomainError, Expr, ParseError, Pow, Unary, Var, eval_values, parse, pretty,
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


def _exprs(depth, leaf=_leaf):
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1, leaf)
    return st.one_of(
        leaf,
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


# the smallest subnormal, the smallest normal, the largest finite and values
# whose repr has an exponent
_extreme = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(min_value=1e16, max_value=1.7976931348623157e308),
).map(repr)


@settings(max_examples=200, deadline=None)
@given(st.tuples(_exprs(3, st.one_of(_leaf, _extreme)), _extreme))
def test_pretty_round_trip_extreme_literals(parts):
    ast = parse(f"({parts[0]})*{parts[1]}", 2)
    assert parse(pretty(ast), 2) == ast


@pytest.mark.parametrize("value", [-1.5, -0.0, math.inf, -math.inf, math.nan])
def test_const_is_finite_and_not_negative(value):
    # the parser builds -1.5 as Unary("neg", Const(1.5)); a Const(-1.5) would
    # print as "(-1.5)" and parse back as that Unary
    with pytest.raises(ValueError, match="finite and not negative"):
        Const(value=value)
    assert parse(pretty(Unary(op="neg", child=Const(value=1.5))), 1) == parse("-1.5", 1)


def test_pretty_parenthesizes_every_compound_operand():
    for text, printed in [("-x1^2", "(-x1)^2"), ("x1 - -x2", "x1-(-x2)"),
                          ("x1-x2-x1", "(x1-x2)-x1"), ("-sin(x1)*2.0", "(-sin(x1))*2.0")]:
        assert pretty(parse(text, 2)) == printed


# -- the token-by-token reference parser ---------------------------------------

# a token of the texts that _exprs generates: a number (its exponent included),
# a name, or one character
_PIECE = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?|[A-Za-z]\w*|\S")
_BLANKS = st.text(alphabet=" \t\n\u00a0", max_size=3)
_EDIT_CHARS = st.one_of(st.sampled_from(list("()+-*/^.eEx0129 \t\n\u00a0,$")), st.characters())


def _spans(node: Expr) -> list:
    """The span of every node of the tree, in preorder (spans take no part in ==)."""
    return [node.span] + [s for child in vars(node).values() if isinstance(child, Expr)
                          for s in _spans(child)]


def _outcome(parser, text: str, dim: int = 2):
    """What ``parser`` makes of ``text``: the AST and its spans, or the
    error's type, message and offset."""
    try:
        ast = parser(text, dim)
    except Exception as err:
        return type(err), str(err), getattr(err, "offset", None)
    return ast, _spans(ast)


def _spaced(data, text: str) -> str:
    """``text`` with a drawn run of blanks before, between and after its tokens."""
    return "".join(data.draw(_BLANKS) + piece for piece in _PIECE.findall(text)) + data.draw(_BLANKS)


@settings(max_examples=200, deadline=None)
@given(_exprs(3), st.data())
def test_parse_matches_the_reference_on_valid_texts(text, data):
    spaced = _spaced(data, text)
    ast, spans = _outcome(parse, spaced)
    assert isinstance(ast, Expr)
    assert (ast, spans) == _outcome(reference_parse, spaced)


@settings(max_examples=300, deadline=None)
@given(_exprs(3), st.sampled_from(["insert", "delete", "replace"]), _EDIT_CHARS, st.data())
def test_parse_matches_the_reference_on_malformed_texts(text, edit, char, data):
    text = _spaced(data, text)
    i = data.draw(st.integers(min_value=0, max_value=len(text) - (edit != "insert")))
    after = text[i:] if edit == "insert" else text[i + 1:]
    edited = text[:i] + ("" if edit == "delete" else char) + after
    assert _outcome(parse, edited) == _outcome(reference_parse, edited)


@pytest.mark.parametrize("text", [
    "", "   ", " \t\n\u00a0", "x1 + x2 \t\n\u00a0 ", "(x1", "sin(x1 + x2", "((x1)", "x1 $",
    "x1^", "x1^1.5", "x1 ^ - 2", "x3", "y1", "1e400", "sin x1", "()", "x1 x2",
    "(" * 2000 + "x1" + ")" * 2000, "-" * 3000 + "x1", "sin(" * 500 + "x1" + ")" * 500,
    "(-" * 1500 + "x1" + ")" * 1500,
], ids=lambda text: repr(text[:12]))
def test_parse_matches_the_reference_on_fixed_texts(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)
