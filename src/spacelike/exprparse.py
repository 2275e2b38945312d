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

    def __getstate__(self):
        # the jet programs that spacelike.jets keeps on an expression are
        # not part of it: a copy or an unpickled one builds its own
        return {k: v for k, v in self.__dict__.items() if k != "_jet_programs"}


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
# Lexer: one scan of one pattern.  Each match is a run of blanks and then a
# number, a name, an operator, or any other character, which is an error.
# Trailing blanks are cut off before the scan, so the matches tile the text.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as (kind, text, offset), kind 'num', 'ident',
    'op' or, last, 'end'.  An operator's text alone tells it apart, since
    no other token's text is one of the operator characters."""
    tokens = []
    for mo in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = mo.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {mo[kind]!r}", mo.start(kind))
        tokens.append((kind, mo[kind], mo.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list, read by index.  ``base`` takes
    its first token through ``take`` and a function's '(' through
    ``expect_op``: these calls decide at which token a too-deep nesting
    stops, the offset of its ParseError."""

    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        tokens = self.tokens
        while (op := tokens[self.i][1]) in ("+", "-"):
            self.i += 1
            rhs = self.term()
            node = BinOp(span=(node.span[0], rhs.span[1]), op=op, lhs=node, rhs=rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        tokens = self.tokens
        while (op := tokens[self.i][1]) in ("*", "/"):
            self.i += 1
            rhs = self.factor()
            node = BinOp(span=(node.span[0], rhs.span[1]), op=op, lhs=node, rhs=rhs)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.tokens[self.i][1] == "^":
            self.i += 1
            k, end = self.intlit()
            node = Pow(span=(node.span[0], end), base=node, exponent=k)
        return node

    def intlit(self) -> tuple[int, int]:
        sign = 1
        kind, text, pos = self.tokens[self.i]
        if text == "-":
            self.i += 1
            sign = -1
            kind, text, pos = self.tokens[self.i]
        if kind != "num":
            raise ParseError("expected integer literal", pos)
        self.i += 1
        if any(c in text for c in ".eE"):
            raise ParseError("integer exponent required (use sqrt for fractional powers)", pos)
        return sign * int(text), pos + len(text)

    def base(self) -> Expr:
        kind, text, pos = self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"literal {text!r} is not a finite number", pos)
            return Const(span=(pos, pos + len(text)), value=value)
        if kind == "ident":
            span = (pos, pos + len(text))
            if text in CONSTANTS:
                return Const(span=span, value=CONSTANTS[text])
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                close = self.expect_op(")")
                return Unary(span=(pos, close[2] + 1), op=text, child=arg)
            if text[0] == "x" and text[1:].isdigit():
                idx = int(text[1:])
                if not 1 <= idx <= self.dim:
                    raise ParseError(
                        f"variable index out of range: {text} with dimension {self.dim}", pos
                    )
                return Var(span=span, index=idx)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if text == "(":
            node = self.expr()
            close = self.expect_op(")")
            # the node is this parse's own, not yet seen by anyone: widen its
            # span to the parentheses in place, as a frozen __init__ sets it
            object.__setattr__(node, "span", (pos, close[2] + 1))
            return node
        if text == "-":
            child = self.base()
            return Unary(span=(pos, child.span[1]), op="neg", child=child)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text: str, dim: int) -> Expr:
    """Parse ``text`` into an AST over the variables x1..x<dim>."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    parser = _Parser(text, dim)
    try:
        return parser.parse()
    except RecursionError:
        pos = parser.tokens[min(parser.i, len(parser.tokens) - 1)][2]
        raise ParseError("expression nested too deeply", pos) from None


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
    """Evaluate at one point (shape (m,)) or a batch (shape (k, m)): the
    order-0 view of ``jets.jet_stack``.  Raises DomainError outside a
    function's domain and for a non-finite value, over a batch the error of
    the first failing point."""
    from .jets import jet_stack  # jets imports this module

    (out,), fails = jet_stack((node,), points, 0)
    fails.raise_first()
    return float(out[0]) if np.ndim(points) == 1 else out[..., 0]
