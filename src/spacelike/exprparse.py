"""Parser, AST and evaluator for the scalar expression mini-language.

Every other module consumes these ASTs: graph components f^s(x1..xm),
potentials F(x1..xm), Dirichlet boundary data.  The grammar is fixed:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' intlit)?
    base   := number | 'pi' | 'e' | var | func '(' expr ')' | '(' expr ')' | '-' base
    var    := 'x' intlit                          (x1 .. xm, 1-based)
    func   in {sin, cos, exp, log, sqrt, sinh, cosh, tanh, asinh, atanh}

Only integer literal exponents are accepted after '^'; fractional powers
must be written with sqrt.  Note that unary minus binds at the 'base'
level, so "-x1^2" parses as (-x1)^2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "asinh", "atanh")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """An elementary function was evaluated outside its domain, or a result
    overflowed.

    ``span`` locates the offending subexpression in the original source; it
    is None, and the message names none, when no subexpression is at fault.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message if span is None
                         else f"{message} (subexpression at offsets {span[0]}..{span[1]})")
        self.span = span


# ---------------------------------------------------------------------------
# AST nodes.  Spans are source byte ranges and do not take part in equality,
# so pretty-printed round trips compare structurally identical.

@dataclass(frozen=True)
class Expr:
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Const(Expr):
    """A literal, finite and not negative (not -0.0 either): the parser
    builds a negative number as Unary("neg", Const(...)), so that
    parse(pretty(e)) == e holds for every e."""

    value: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.copysign(1.0, self.value) > 0):
            raise ValueError(f"a Const is finite and not negative, not {self.value!r}")


@dataclass(frozen=True)
class Var(Expr):
    index: int = 1  # 1-based


@dataclass(frozen=True)
class Unary(Expr):
    op: str = "neg"  # 'neg' or a function tag
    child: Expr = None


@dataclass(frozen=True)
class BinOp(Expr):
    op: str = "+"
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr = None
    exponent: int = 1


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        for kind in ("num", "ident", "op"):
            if mo.group(kind) is not None:
                tokens.append(_Token(kind, mo.group(kind), mo.start(kind)))
                break
        pos = mo.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            node = BinOp(span=(node.span[0], rhs.span[1]), op=op, lhs=node, rhs=rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.factor()
            node = BinOp(span=(node.span[0], rhs.span[1]), op=op, lhs=node, rhs=rhs)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            k, end = self.intlit()
            node = Pow(span=(node.span[0], end), base=node, exponent=k)
        return node

    def intlit(self) -> tuple[int, int]:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            sign = -1
            tok = self.peek()
        if tok.kind != "num":
            raise ParseError("expected integer literal", tok.pos)
        self.take()
        if any(c in tok.text for c in ".eE"):
            raise ParseError("integer exponent required (use sqrt for fractional powers)", tok.pos)
        return sign * int(tok.text), tok.pos + len(tok.text)

    def base(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"literal {tok.text!r} is not a finite number", tok.pos)
            return Const(span=(tok.pos, tok.pos + len(tok.text)), value=value)
        if tok.kind == "ident":
            name = tok.text
            span = (tok.pos, tok.pos + len(name))
            if name in CONSTANTS:
                return Const(span=span, value=CONSTANTS[name])
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                close = self.expect_op(")")
                return Unary(span=(tok.pos, close.pos + 1), op=name, child=arg)
            if name[0] == "x" and name[1:].isdigit():
                idx = int(name[1:])
                if not 1 <= idx <= self.dim:
                    raise ParseError(
                        f"variable index out of range: {name} with dimension {self.dim}", tok.pos
                    )
                return Var(span=span, index=idx)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "op":
            if tok.text == "(":
                node = self.expr()
                close = self.expect_op(")")
                return _with_span(node, (tok.pos, close.pos + 1))
            if tok.text == "-":
                child = self.base()
                return Unary(span=(tok.pos, child.span[1]), op="neg", child=child)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def _with_span(node: Expr, span: tuple[int, int]) -> Expr:
    import dataclasses

    return dataclasses.replace(node, span=span)


def parse(text: str, dim: int) -> Expr:
    """Parse ``text`` into an AST over the variables x1..x<dim>."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    parser = _Parser(text, dim)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.tokens[min(parser.i, len(parser.tokens) - 1)]
        raise ParseError("expression nested too deeply", tok.pos) from None


# ---------------------------------------------------------------------------
# Pretty printer.  Every operand that is not a variable, a literal or a
# function call is parenthesized, so no precedence, associativity or
# unary-minus rule is needed for parse(pretty(e)) to be structurally
# identical to e: "-x1^2" prints as "(-x1)^2" and "x1 - -x2" as "x1-(-x2)".

def pretty(node: Expr) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-{_operand(node.child)}"
        return f"{node.op}({pretty(node.child)})"
    if isinstance(node, Pow):
        return f"{_operand(node.base)}^{node.exponent}"
    if isinstance(node, BinOp):
        return f"{_operand(node.lhs)}{node.op}{_operand(node.rhs)}"
    raise TypeError(f"not an Expr: {node!r}")


def _operand(node: Expr) -> str:
    atom = isinstance(node, (Var, Const)) or isinstance(node, Unary) and node.op != "neg"
    return pretty(node) if atom else f"({pretty(node)})"


# ---------------------------------------------------------------------------
# Plain (vectorized) evaluation: the value-only case of the Taylor evaluator in
# spacelike.jets, which also computes the jets.  This is the cheap path used
# for boundary data on lattices.

def eval_values(node: Expr, points: np.ndarray):
    """Evaluate at one point (shape (m,)) or a batch (shape (k, m)); raises
    DomainError outside a function's domain and for a non-finite value, over
    a batch the error of the first failing point."""
    from .jets import _taylor  # jets imports this module

    pts = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        (out,), fails = _taylor(node, np.atleast_2d(pts), 0)
    if fails is not None:
        fails.raise_first()
    return float(out[0]) if pts.ndim == 1 else np.array(out, dtype=float)
