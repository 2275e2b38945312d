"""Oracles that only tests read, kept out of the package."""

import math
import re
from dataclasses import dataclass

import numpy as np

from spacelike.exprparse import (
    CONSTANTS, FUNCTIONS, BinOp, Const, DomainError, Expr, ParseError, Pow, Unary, Var,
)
from spacelike.failures import Failures
from spacelike.grassmann import SpacelikePlane
from spacelike.jets import _ELEMENTARY, _OUT_OF_DOMAIN


def transport_slope(P: SpacelikePlane, Q: SpacelikePlane) -> np.ndarray:
    """Slope of Q after the boost that moves P's Cholesky frame to the base
    plane: L_N^-1 (B - A) (I - A^T B)^-1 L_M, with I - A^T A = L_M L_M^T and
    I - A A^T = L_N L_N^T; its singular values are tanh of the angles."""
    A, B = P.slope, Q.slope
    m, n = A.shape[1], A.shape[0]
    L_M = np.linalg.cholesky(np.eye(m) - A.T @ A)
    L_N = np.linalg.cholesky(np.eye(n) - A @ A.T)
    return np.linalg.solve(L_N, (B - A) @ np.linalg.solve(np.eye(m) - A.T @ B, L_M))


def plane_distance(P: SpacelikePlane, Q: SpacelikePlane) -> float:
    """|theta| over the angles theta_i whose cosh^2 are the eigenvalues of
    (I - A^T A)^-1 (I - A^T B) (I - B^T B)^-1 (I - B^T A), in no frame."""
    A, B = P.slope, Q.slope
    eye = np.eye(A.shape[1])
    M = np.linalg.solve(eye - A.T @ A,
                        (eye - A.T @ B) @ np.linalg.solve(eye - B.T @ B, eye - B.T @ A))
    cosh = np.sqrt(np.maximum(np.linalg.eigvals(M).real, 1.0))
    return float(np.sqrt(np.sum(np.arccosh(cosh) ** 2)))


def chart_metric(A: np.ndarray, dA: np.ndarray) -> float:
    """Squared length of the chart velocity dA at the plane with slope A."""
    m, n = A.shape[1], A.shape[0]
    P = np.linalg.inv(np.eye(m) - A.T @ A)
    Q = np.linalg.inv(np.eye(n) - A @ A.T)
    return float(np.trace(P @ dA.T @ Q @ dA))


def moduli_ricci_from_riemann(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """g-contraction Ric_ik = g^{jl} R_jilk of the slot-ordered tensor."""
    return np.einsum("jl,jilk->ik", g_inv, riemann)


# ---------------------------------------------------------------------------
# The dense Taylor evaluator: every derivative block is an array, the zero
# gradient of a constant and the zero Hessian of a variable included.

def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _sym3(g, H):
    """g_i H_jk + g_j H_ik + g_k H_ij over the trailing axes (H symmetric)."""
    return (g[..., :, None, None] * H[..., None, :, :]
            + g[..., None, :, None] * H[..., :, None, :]
            + g[..., None, None, :] * H[..., :, :, None])


def _mul(a, b):
    """Truncated Taylor product of two coefficient tuples of one order k,
    (value, grad, hess, third)[:k + 1]; only those k + 1 are computed."""
    a0, b0 = a[0], b[0]
    out = [a0 * b0]
    if len(a) > 1:
        (ag, bg), a1, b1 = (a[1], b[1]), a0[..., None], b0[..., None]
        out.append(a1 * bg + b1 * ag)
    if len(a) > 2:
        aH, bH = a[2], b[2]
        out.append(a1[..., None] * bH + b1[..., None] * aH + _outer(ag, bg) + _outer(bg, ag))
    if len(a) > 3:
        out.append(a1[..., None, None] * b[3] + b1[..., None, None] * a[3]
                   + _sym3(ag, bH) + _sym3(bg, aH))
    return tuple(out)


def _compose(u, d):
    """Chain rule through a univariate function with derivatives d = (d0, d1,
    d2, d3) at u's value, to the order of u; the unused d are not read."""
    out = [d[0]]
    if len(u) > 1:
        g, d1 = u[1], d[1][..., None]
        out.append(d1 * g)
    if len(u) > 2:
        H, d2, gg = u[2], d[2][..., None], _outer(g, g)
        out.append(d1[..., None] * H + d2[..., None] * gg)
    if len(u) > 3:
        d3 = d[3][..., None]
        out.append(d1[..., None, None] * u[3] + d2[..., None, None] * _sym3(g, H)
                   + d3[..., None, None] * gg[..., None] * g[..., None, None, :])
    return tuple(out)


def _power(u, p: int):
    """Chain rule for u^p; a vanishing coefficient of the derivatives stays exactly 0."""
    u0 = u[0]
    coeffs = (p, p * (p - 1), p * (p - 1) * (p - 2))[:len(u) - 1]
    return _compose(u, (u0 ** p,) + tuple(c * u0 ** (p - k) if c else np.zeros_like(u0)
                                          for k, c in enumerate(coeffs, 1)))


def dense_taylor(expr: Expr, pts: np.ndarray, order: int) -> tuple:
    """Truncated Taylor data of ``expr`` at points of shape (..., m), as
    ``jets._taylor`` returns it.

    Returns (coeffs, fails): coeffs is (value, grad, hess, third)[:order + 1],
    for an order from 0 to 3, each led by the batch shape of ``pts``; the
    higher derivatives are never formed.  A point that leaves a function's
    domain, or whose computed coefficients end up not finite, is recorded
    instead of raised: ``fails`` gives each point's first DomainError,
    carrying the span of the offending subexpression (the whole expression
    for a non-finite result).  The record is built at the first failing
    point; ``fails`` is None where every point passes.
    """
    shape, m = pts.shape[:-1], pts.shape[-1]
    zeros = tuple(np.zeros(shape + (m,) * k) for k in range(1, order + 1))
    fails = None

    def mark(bad, message, span):
        nonlocal fails
        if bad.any():  # one DomainError only where a point fails
            if fails is None:
                fails = Failures.clean(shape)
            fails.add(bad, DomainError(message, span))

    post, todo = [], [expr]
    while todo:
        node = todo.pop()
        post.append(node)
        if isinstance(node, Unary):
            todo.append(node.child)
        elif isinstance(node, BinOp):
            todo += (node.lhs, node.rhs)
        elif isinstance(node, Pow):
            todo.append(node.base)
    stack = []
    for node in reversed(post):
        if isinstance(node, Const):
            t = (np.full(shape, node.value),) + zeros
        elif isinstance(node, Var):
            t = (pts[..., node.index - 1],)
            if order:
                g = np.zeros(shape + (m,))
                g[..., node.index - 1] = 1.0
                t += (g,) + zeros[1:]
        elif isinstance(node, Unary):
            u = stack.pop()
            if node.op == "neg":
                t = tuple(-c for c in u)
            else:
                bad = _OUT_OF_DOMAIN.get(node.op)
                if bad is not None:
                    mark(bad(u[0]), f"{node.op} argument out of range", node.span)
                if order and node.op == "sqrt":
                    mark(u[0] == 0, "sqrt argument must be positive for differentiation",
                         node.span)
                fn, derivs = _ELEMENTARY[node.op]
                v = fn(u[0])
                t = _compose(u, (v, *(d(u[0], v) for d in derivs[:order])))
        elif isinstance(node, BinOp):
            b, a = stack.pop(), stack.pop()
            if node.op == "+":
                t = tuple(x + y for x, y in zip(a, b))
            elif node.op == "-":
                t = tuple(x - y for x, y in zip(a, b))
            elif node.op == "*":
                t = _mul(a, b)
            else:
                mark(b[0] == 0, "division by zero", node.span)
                t = _mul(a, _power(b, -1)) if order else (a[0] / b[0],)
        elif isinstance(node, Pow):
            u = stack.pop()
            if node.exponent < 0:
                mark(u[0] == 0, "zero raised to a negative power", node.span)
            t = _power(u, node.exponent)
        else:
            raise TypeError(f"not an Expr: {node!r}")
        stack.append(t)
    coeffs = stack[0]
    if not math.isfinite(sum(c.sum() for c in coeffs)):  # a sum with a non-finite term is not finite
        rows = [c.reshape(shape + (m**k,)) for k, c in enumerate(coeffs)]  # m^k entries each
        finite = np.isfinite(np.concatenate(rows, axis=-1)).all(axis=-1)
        mark(~finite, f"non-finite {'jet' if order else 'value'} (overflow or NaN)", expr.span)
    return coeffs, fails


# ---------------------------------------------------------------------------
# The Taylor walk that skips exact-zero blocks: every node of the AST, in
# post-order, dispatched on its type, with None for a derivative block that
# is zero by the form of the expression.  A jet program must give its
# numbers bit for bit, the sign of a zero included, and its failures.

def _sp_times(c, x):
    if c is None or x is None:
        return None
    return c[(...,) + (None,) * (x.ndim - c.ndim)] * x


def _sp_sum(*terms):
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _sp_sub(x, y):
    if y is None:
        return x
    return -y if x is None else x - y


def _sp_outer(a, b):
    return None if a is None or b is None else _outer(a, b)


def _sp_sym3(g, H):
    return None if g is None or H is None else _sym3(g, H)


def _sp_mul(a, b):
    a0, b0 = a[0], b[0]
    out = [a0 * b0]
    if len(a) > 1:
        ag, bg = a[1], b[1]
        out.append(_sp_sum(_sp_times(a0, bg), _sp_times(b0, ag)))
    if len(a) > 2:
        aH, bH = a[2], b[2]
        out.append(_sp_sum(_sp_times(a0, bH), _sp_times(b0, aH),
                           _sp_outer(ag, bg), _sp_outer(bg, ag)))
    if len(a) > 3:
        out.append(_sp_sum(_sp_times(a0, b[3]), _sp_times(b0, a[3]),
                           _sp_sym3(ag, bH), _sp_sym3(bg, aH)))
    return tuple(out)


def _sp_compose(u, d):
    out = [d[0]]
    if len(u) > 1:
        g = u[1]
        out.append(_sp_times(d[1], g))
    if len(u) > 2:
        H, gg = u[2], _sp_outer(g, g)
        out.append(_sp_sum(_sp_times(d[1], H), _sp_times(d[2], gg)))
    if len(u) > 3:
        d3gg = None if gg is None else _sp_times(d[3], gg[..., None])
        out.append(_sp_sum(_sp_times(d[1], u[3]), _sp_times(d[2], _sp_sym3(g, H)),
                           None if d3gg is None else d3gg * g[..., None, None, :]))
    return tuple(out)


def _sp_power(u, p: int):
    u0 = u[0]
    coeffs = (p, p * (p - 1), p * (p - 1) * (p - 2))[:len(u) - 1]
    return _sp_compose(u, (u0 ** p,) + tuple(c * u0 ** (p - k) if c else None
                                             for k, c in enumerate(coeffs, 1)))


def sparse_taylor(expr: Expr, pts: np.ndarray, order: int) -> tuple:
    """``jets._taylor`` as a walk over the AST: (coeffs, fails), fails None
    where every point passes."""
    shape, m = pts.shape[:-1], pts.shape[-1]
    fails = None

    def mark(bad, message, span):
        nonlocal fails
        if bad.any():
            if fails is None:
                fails = Failures.clean(shape)
            fails.add(bad, DomainError(message, span))

    post, todo = [], [expr]
    while todo:
        node = todo.pop()
        post.append(node)
        if isinstance(node, Unary):
            todo.append(node.child)
        elif isinstance(node, BinOp):
            todo += (node.lhs, node.rhs)
        elif isinstance(node, Pow):
            todo.append(node.base)
    stack = []
    for node in reversed(post):
        if isinstance(node, Const):
            t = (np.full(shape, node.value),) + (None,) * order
        elif isinstance(node, Var):
            t = (pts[..., node.index - 1],)
            if order:
                g = np.zeros(shape + (m,))
                g[..., node.index - 1] = 1.0
                t += (g,) + (None,) * (order - 1)
        elif isinstance(node, Unary):
            u = stack.pop()
            if node.op == "neg":
                t = tuple(None if c is None else -c for c in u)
            else:
                bad = _OUT_OF_DOMAIN.get(node.op)
                if bad is not None:
                    mark(bad(u[0]), f"{node.op} argument out of range", node.span)
                if order and node.op == "sqrt":
                    mark(u[0] == 0, "sqrt argument must be positive for differentiation",
                         node.span)
                fn, derivs = _ELEMENTARY[node.op]
                v = fn(u[0])
                t = _sp_compose(u, (v, *(d(u[0], v) for d in derivs[:order])))
        elif isinstance(node, BinOp):
            b, a = stack.pop(), stack.pop()
            if node.op == "+":
                t = tuple(map(_sp_sum, a, b))
            elif node.op == "-":
                t = tuple(map(_sp_sub, a, b))
            elif node.op == "*":
                t = _sp_mul(a, b)
            else:
                mark(b[0] == 0, "division by zero", node.span)
                t = _sp_mul(a, _sp_power(b, -1)) if order else (a[0] / b[0],)
        else:
            u = stack.pop()
            if node.exponent < 0:
                mark(u[0] == 0, "zero raised to a negative power", node.span)
            t = _sp_power(u, node.exponent)
        stack.append(t)
    coeffs = tuple(np.zeros(shape + (m,) * k) if c is None else c
                   for k, c in enumerate(stack[0]))
    if not math.isfinite(sum(c.sum() for c in coeffs)):
        rows = [c.reshape(shape + (m**k,)) for k, c in enumerate(coeffs)]
        finite = np.isfinite(np.concatenate(rows, axis=-1)).all(axis=-1)
        mark(~finite, f"non-finite {'jet' if order else 'value'} (overflow or NaN)", expr.span)
    return coeffs, fails


# ---------------------------------------------------------------------------
# The token-by-token parser: one regex match and one _Token per token, and a
# dataclasses.replace per parenthesised group.  Its ASTs, spans and errors
# are the reference for spacelike.exprparse.parse.

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


def reference_parse(text: str, dim: int) -> Expr:
    """``text`` parsed as ``exprparse.parse`` must parse it: the same AST,
    the same spans and the same ParseError, message and offset."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    parser = _Parser(text, dim)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.tokens[min(parser.i, len(parser.tokens) - 1)]
        raise ParseError("expression nested too deeply", tok.pos) from None
