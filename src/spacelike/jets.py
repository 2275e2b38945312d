"""Truncated Taylor evaluation of expression ASTs over any batch of points.

``_taylor`` is the one evaluator: order 0 gives values (``eval_values``),
order 3 exact jets (``evaluate_jet``), propagated by truncated Taylor
arithmetic, never by finite differences (Griewank & Walther, *Evaluating
Derivatives*, 2008, ch. 13).  It walks the AST iteratively, so depth is not
bounded by the recursion limit.  A jet is four dense arrays: value (...),
gradient (..., m), Hessian (..., m, m) and third derivatives (..., m, m, m)
for a batch of points of shape (..., m).  Arithmetic broadcasts from the
right, so a point and a batch share one code path, and the tensors are made
exactly symmetric by one gather from their sorted (i <= j <= k) slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprparse import BinOp, Const, DomainError, Expr, Pow, Unary, Var, eval_values

MAX_DIM = 8  # a dense jet holds m^3 third derivatives per point


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _sym3(g, H):
    """g_i H_jk + g_j H_ik + g_k H_ij over the trailing axes (H symmetric)."""
    return (g[..., :, None, None] * H[..., None, :, :]
            + g[..., None, :, None] * H[..., :, None, :]
            + g[..., None, None, :] * H[..., :, :, None])


def _mul(a, b):
    """Truncated Taylor product of two (value, grad, hess, third) tuples."""
    (a0, ag, aH, aT), (b0, bg, bH, bT) = a, b
    a1, b1 = a0[..., None], b0[..., None]
    return (a0 * b0,
            a1 * bg + b1 * ag,
            a1[..., None] * bH + b1[..., None] * aH + _outer(ag, bg) + _outer(bg, ag),
            a1[..., None, None] * bT + b1[..., None, None] * aT
            + _sym3(ag, bH) + _sym3(bg, aH))


def _compose(u, d0, d1, d2, d3):
    """Chain rule through a univariate function with derivatives d0..d3 at u's value."""
    _, g, H, T = u
    d1, d2, d3 = d1[..., None], d2[..., None], d3[..., None]
    gg = _outer(g, g)
    return (d0,
            d1 * g,
            d1[..., None] * H + d2[..., None] * gg,
            d1[..., None, None] * T + d2[..., None, None] * _sym3(g, H)
            + d3[..., None, None] * gg[..., None] * g[..., None, None, :])


def _power(u, p: int):
    """Chain rule for u^p; a vanishing coefficient of the derivatives stays exactly 0."""
    u0 = u[0]
    coeffs = (p, p * (p - 1), p * (p - 1) * (p - 2))
    return _compose(u, u0 ** p, *(c * u0 ** (p - k) if c else np.zeros_like(u0)
                                  for k, c in enumerate(coeffs, 1)))


def _tanh_derivs(u, t):
    s = np.cosh(u) ** -2.0  # 1 - t^2 cancels once |u| is a few units
    return s, -2.0 * t * s, -2.0 * s * s + 4.0 * t * t * s


# name -> (numpy function, its derivatives 1..3 from the argument u and value v).
# Values and jets share this table, so both orders evaluate the same functions.
_ELEMENTARY = {
    "sin": (np.sin, lambda u, v: (np.cos(u), -v, -np.cos(u))),
    "cos": (np.cos, lambda u, v: (-np.sin(u), -v, np.sin(u))),
    "exp": (np.exp, lambda u, v: (v, v, v)),
    "log": (np.log, lambda u, v: (1.0 / u, -1.0 / u**2, 2.0 / u**3)),
    "sqrt": (np.sqrt, lambda u, v: (0.5 / v, -0.25 / v**3, 0.375 / v**5)),
    "sinh": (np.sinh, lambda u, v: (np.cosh(u), v, np.cosh(u))),
    "cosh": (np.cosh, lambda u, v: (np.sinh(u), v, np.sinh(u))),
    "tanh": (np.tanh, _tanh_derivs),
    "asinh": (np.arcsinh, lambda u, v: ((1.0 + u * u) ** -0.5, -u * (1.0 + u * u) ** -1.5,
                                        (2.0 * u * u - 1.0) * (1.0 + u * u) ** -2.5)),
    "atanh": (np.arctanh, lambda u, v: (1.0 / (1.0 - u * u), 2.0 * u / (1.0 - u * u) ** 2,
                                        (2.0 + 6.0 * u * u) / (1.0 - u * u) ** 3)),
}

# name -> arguments outside the domain.  sqrt(0) has a value but no derivative.
_OUT_OF_DOMAIN = {
    "log": lambda u: u <= 0,
    "sqrt": lambda u: u < 0,
    "atanh": lambda u: np.abs(u) >= 1,
}


def _taylor(expr: Expr, pts: np.ndarray, order: int) -> tuple:
    """Truncated Taylor data of ``expr`` at points of shape (..., m).

    Returns (value,) for order 0 and (value, grad, hess, third) for order 3,
    each led by the batch shape of ``pts``.  A DomainError carries the span
    of the offending subexpression.
    """
    shape, m = pts.shape[:-1], pts.shape[-1]
    zeros = (np.zeros(shape + (m,)), np.zeros(shape + (m, m)),
             np.zeros(shape + (m, m, m))) if order else ()
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
                if bad is not None and np.any(bad(u[0])):
                    raise DomainError(f"{node.op} argument out of range", node.span)
                if order and node.op == "sqrt" and np.any(u[0] == 0):
                    raise DomainError("sqrt argument must be positive for differentiation",
                                      node.span)
                fn, derivs = _ELEMENTARY[node.op]
                v = fn(u[0])
                t = _compose(u, v, *derivs(u[0], v)) if order else (v,)
        elif isinstance(node, BinOp):
            b, a = stack.pop(), stack.pop()
            if node.op == "+":
                t = tuple(x + y for x, y in zip(a, b))
            elif node.op == "-":
                t = tuple(x - y for x, y in zip(a, b))
            elif node.op == "*":
                t = _mul(a, b) if order else (a[0] * b[0],)
            else:
                if np.any(b[0] == 0):
                    raise DomainError("division by zero", node.span)
                t = _mul(a, _power(b, -1)) if order else (a[0] / b[0],)
        elif isinstance(node, Pow):
            u = stack.pop()
            if node.exponent < 0 and np.any(u[0] == 0):
                raise DomainError("zero raised to a negative power", node.span)
            t = _power(u, node.exponent) if order else (u[0] ** node.exponent,)
        else:
            raise TypeError(f"not an Expr: {node!r}")
        stack.append(t)
    return stack[0]


@lru_cache(maxsize=None)
def _sorted_slots(m: int, rank: int) -> np.ndarray:
    """Flat indices that read every entry of an m^rank tensor from its sorted slot."""
    idx = np.sort(np.indices((m,) * rank).reshape(rank, -1), axis=0)
    flat = np.ravel_multi_index(idx, (m,) * rank)
    flat.flags.writeable = False
    return flat


@dataclass
class Jet3:
    """Order-3 Taylor data of a scalar function at a point or a batch of points.

    ``value`` has the batch shape (a numpy scalar for one point); ``grad``,
    ``hess`` and ``third`` append m, (m, m) and (m, m, m) to it.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray

    def _coeffs(self) -> tuple:
        return self.value, self.grad, self.hess, self.third

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(*(a + b for a, b in zip(self._coeffs(), other._coeffs())))

    def __mul__(self, other: "Jet3") -> "Jet3":
        return Jet3(*_mul(self._coeffs(), other._coeffs()))


def evaluate_jet(expr: Expr, point) -> Jet3:
    """Exact order-3 Taylor data of ``expr`` at a point (shape (m,)) or a batch
    of points (shape (..., m)), up to rounding.

    Raises DomainError outside an elementary function's domain and where the
    jet overflows or is otherwise not finite.
    """
    x = np.asarray(point, dtype=float)
    shape, m = x.shape[:-1], x.shape[-1]
    if m > MAX_DIM:
        raise ValueError(f"dimension {m} exceeds the supported cap {MAX_DIM}")
    # One point runs as a batch of one: numpy scalars and arrays round some
    # operations (u ** p, for one) differently, and rows must match batches.
    with np.errstate(all="ignore"):
        value, grad, hess, third = _taylor(expr, x.reshape(-1, m), 3)
    if not all(np.isfinite(a).all() for a in (value, grad, hess, third)):
        raise DomainError("non-finite jet (overflow or NaN)", expr.span)
    return Jet3(np.array(value).reshape(shape)[()],  # a copy: value may view x
                grad.reshape(shape + (m,)),
                hess.reshape(-1, m * m)[:, _sorted_slots(m, 2)].reshape(shape + (m, m)),
                third.reshape(-1, m**3)[:, _sorted_slots(m, 3)].reshape(shape + (m, m, m)))


# ---------------------------------------------------------------------------
# Central finite-difference cross-check of the jet derivatives.

@dataclass
class FiniteDiffReport:
    """Max relative deviation (floored at magnitude 1) per derivative order."""

    h: float
    max_rel: dict


def finite_diff_check(expr: Expr, point, h: float) -> FiniteDiffReport:
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(point, dtype=float).ravel()
    m = x.shape[0]
    jet = evaluate_jet(expr, x)

    def f(p):
        return eval_values(expr, p)

    def central(fun, axis):
        def shifted(p):
            e = np.zeros(m)
            e[axis] = h
            return (fun(p + e) - fun(p - e)) / (2.0 * h)
        return shifted

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(a))

    report = {1: 0.0, 2: 0.0, 3: 0.0}
    for i in range(m):
        report[1] = max(report[1], rel(jet.grad[i], central(f, i)(x)))
    H = jet.hess
    for i in range(m):
        for j in range(i, m):
            fd = central(central(f, j), i)(x)
            report[2] = max(report[2], rel(H[i, j], fd))
    T = jet.third
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                fd = central(central(central(f, k), j), i)(x)
                report[3] = max(report[3], rel(T[i, j, k], fd))
    return FiniteDiffReport(h=h, max_rel=report)
