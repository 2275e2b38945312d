"""Truncated Taylor evaluation of expression ASTs over any batch of points.

``_taylor`` is the one evaluator.  It computes the Taylor coefficients of an
expression to any order k from 0 to 3, propagated by truncated Taylor
arithmetic, never by finite differences, and carries only the degrees asked
for (Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 13): order 0
gives values (``eval_values``), and ``evaluate_jet``/``jet_rows`` take the
order their caller reads, 3 by default.  For k >= 1 the k + 1 coefficients
of an order-k pass are bit-identical to the first k + 1 of an order-3 pass,
as every product and chain rule forms each degree from the lower ones
alone (order 0 divides where jets multiply by a reciprocal), and an
elementary function forms only the derivatives the order reads.  It walks
the AST iteratively, so depth is not bounded by the recursion limit.
A jet is up to four dense arrays: value (...), gradient (..., m), Hessian
(..., m, m) and third derivatives (..., m, m, m) for a batch of points of
shape (..., m); the orders not asked for are None.  Arithmetic broadcasts
from the right, so a point and a batch share one code path.

Inside ``_taylor`` a derivative block that is zero by the form of the
expression is None, not an array of zeros: a constant carries only its
value, a variable its value and its unit gradient, and u^p drops a
coefficient that vanishes.  Products, the chain rule, sums and negation
drop every term with a None factor and add the others in their fixed
order (Griewank & Walther, ch. 7), so a term that would be exactly 0.0 is
never formed, and only the sign of a zero can differ from the dense sum.
A None block at the root becomes zeros.  So a constant's derivatives are
exact zeros: ``x1 + sqrt(1e-320)`` and ``x1*log(5e-324)`` have clean
order-3 jets, those of ``x1`` plus or times the constant, where dense
zeros would meet the infinite derivatives of sqrt and log (0 * inf = nan);
``sqrt(0)*x1`` still fails, as sqrt(0) has no derivative.

``jet_stack`` is the one pass around it, for one expression (``jet_rows``,
``evaluate_jet``) or the n components of a graph: it writes each
expression's coefficients straight into one preallocated array per order,
(..., n), (..., n, m) and so on, and makes the tensors exactly symmetric by
one gather per order from their sorted (i <= j <= k) slots.

A point that leaves a function's domain, or whose computed coefficients
overflow, is recorded rather than raised, so one evaluation serves a whole
lattice: ``jet_rows`` returns the failure record (``failures.Failures``)
next to the jets, each failing point pointing at the DomainError of its
subexpression, while ``evaluate_jet`` and ``eval_values`` raise the error of
the first failing point.  The record is built only when a point fails, and
the per-point finiteness scan runs only when some coefficient is not
finite; a pass over several expressions keeps one record, each point's
failure in the first expression that fails there.  A coefficient that is
not computed is not checked: a point whose third derivatives overflow fails
at order 3 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprparse import BinOp, Const, DomainError, Expr, Pow, Unary, Var, eval_values
from .failures import OK, Failures

MAX_DIM = 8  # a dense jet holds m^3 third derivatives per point


def _times(c, x):
    """c (one number per point) times the block x; None, an exact zero, if either is."""
    if c is None or x is None:
        return None
    return c[(...,) + (None,) * (x.ndim - c.ndim)] * x


def _sum(*terms):
    """The terms that are not None, added from the left; None if none is left."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _sub(x, y):
    """x - y, with None an exact zero."""
    if y is None:
        return x
    return -y if x is None else x - y


def _outer(a, b):
    if a is None or b is None:
        return None
    return a[..., :, None] * b[..., None, :]


def _sym3(g, H):
    """g_i H_jk + g_j H_ik + g_k H_ij over the trailing axes (H symmetric)."""
    if g is None or H is None:
        return None
    return (g[..., :, None, None] * H[..., None, :, :]
            + g[..., None, :, None] * H[..., :, None, :]
            + g[..., None, None, :] * H[..., :, :, None])


def _mul(a, b):
    """Truncated Taylor product of two coefficient tuples of one order k,
    (value, grad, hess, third)[:k + 1]; only those k + 1 are computed."""
    a0, b0 = a[0], b[0]
    out = [a0 * b0]
    if len(a) > 1:
        ag, bg = a[1], b[1]
        out.append(_sum(_times(a0, bg), _times(b0, ag)))
    if len(a) > 2:
        aH, bH = a[2], b[2]
        out.append(_sum(_times(a0, bH), _times(b0, aH), _outer(ag, bg), _outer(bg, ag)))
    if len(a) > 3:
        out.append(_sum(_times(a0, b[3]), _times(b0, a[3]), _sym3(ag, bH), _sym3(bg, aH)))
    return tuple(out)


def _compose(u, d):
    """Chain rule through a univariate function with derivatives d = (d0, d1,
    d2, d3) at u's value, to the order of u; the unused d are not read."""
    out = [d[0]]
    if len(u) > 1:
        g = u[1]
        out.append(_times(d[1], g))
    if len(u) > 2:
        H, gg = u[2], _outer(g, g)
        out.append(_sum(_times(d[1], H), _times(d[2], gg)))
    if len(u) > 3:
        d3gg = None if gg is None else _times(d[3], gg[..., None])
        out.append(_sum(_times(d[1], u[3]), _times(d[2], _sym3(g, H)),
                        None if d3gg is None else d3gg * g[..., None, None, :]))
    return tuple(out)


def _power(u, p: int):
    """Chain rule for u^p; a vanishing coefficient of the derivatives is an exact zero."""
    u0 = u[0]
    coeffs = (p, p * (p - 1), p * (p - 1) * (p - 2))[:len(u) - 1]
    return _compose(u, (u0 ** p,) + tuple(c * u0 ** (p - k) if c else None
                                          for k, c in enumerate(coeffs, 1)))


def _sech2(u, v):
    return np.cosh(u) ** -2.0  # 1 - tanh^2 cancels once |u| is a few units


def _tanh3(u, v):
    s = _sech2(u, v)
    return -2.0 * s * s + 4.0 * v * v * s


# name -> (numpy function, its derivatives 1, 2 and 3, each from the argument u
# and value v).  Values and jets share this table, so every order evaluates the
# same functions; a pass of order k forms only the first k derivatives.
_ELEMENTARY = {
    "sin": (np.sin, (lambda u, v: np.cos(u), lambda u, v: -v, lambda u, v: -np.cos(u))),
    "cos": (np.cos, (lambda u, v: -np.sin(u), lambda u, v: -v, lambda u, v: np.sin(u))),
    "exp": (np.exp, (lambda u, v: v,) * 3),
    "log": (np.log, (lambda u, v: 1.0 / u, lambda u, v: -1.0 / u**2, lambda u, v: 2.0 / u**3)),
    "sqrt": (np.sqrt, (lambda u, v: 0.5 / v, lambda u, v: -0.25 / v**3,
                       lambda u, v: 0.375 / v**5)),
    "sinh": (np.sinh, (lambda u, v: np.cosh(u), lambda u, v: v, lambda u, v: np.cosh(u))),
    "cosh": (np.cosh, (lambda u, v: np.sinh(u), lambda u, v: v, lambda u, v: np.sinh(u))),
    "tanh": (np.tanh, (_sech2, lambda u, v: -2.0 * v * _sech2(u, v), _tanh3)),
    "asinh": (np.arcsinh, (lambda u, v: (1.0 + u * u) ** -0.5,
                           lambda u, v: -u * (1.0 + u * u) ** -1.5,
                           lambda u, v: (2.0 * u * u - 1.0) * (1.0 + u * u) ** -2.5)),
    "atanh": (np.arctanh, (lambda u, v: 1.0 / (1.0 - u * u),
                           lambda u, v: 2.0 * u / (1.0 - u * u) ** 2,
                           lambda u, v: (2.0 + 6.0 * u * u) / (1.0 - u * u) ** 3)),
}

# name -> arguments outside the domain.  sqrt(0) has a value but no derivative.
_OUT_OF_DOMAIN = {
    "log": lambda u: u <= 0,
    "sqrt": lambda u: u < 0,
    "atanh": lambda u: np.abs(u) >= 1,
}


def _taylor(expr: Expr, pts: np.ndarray, order: int) -> tuple:
    """Truncated Taylor data of ``expr`` at points of shape (..., m).

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
                t = _compose(u, (v, *(d(u[0], v) for d in derivs[:order])))
        elif isinstance(node, BinOp):
            b, a = stack.pop(), stack.pop()
            if node.op == "+":
                t = tuple(map(_sum, a, b))
            elif node.op == "-":
                t = tuple(map(_sub, a, b))
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
    coeffs = tuple(np.zeros(shape + (m,) * k) if c is None else c
                   for k, c in enumerate(stack[0]))
    if not math.isfinite(sum(c.sum() for c in coeffs)):  # a sum with a non-finite term is not finite
        rows = [c.reshape(shape + (m**k,)) for k, c in enumerate(coeffs)]  # m^k entries each
        finite = np.isfinite(np.concatenate(rows, axis=-1)).all(axis=-1)
        mark(~finite, f"non-finite {'jet' if order else 'value'} (overflow or NaN)", expr.span)
    return coeffs, fails


@lru_cache(maxsize=None)
def _sorted_slots(m: int, rank: int) -> np.ndarray:
    """Flat indices that read every entry of an m^rank tensor from its sorted slot."""
    idx = np.sort(np.indices((m,) * rank).reshape(rank, -1), axis=0)
    flat = np.ravel_multi_index(idx, (m,) * rank)
    flat.flags.writeable = False
    return flat


@dataclass
class Jet3:
    """Taylor data of a scalar function, up to order 3, at a point or a batch
    of points.

    ``value`` has the batch shape (a numpy scalar for one point); ``grad``,
    ``hess`` and ``third`` append m, (m, m) and (m, m, m) to it, and are
    None above the order that was asked for.
    """

    value: np.ndarray
    grad: np.ndarray = None
    hess: np.ndarray = None
    third: np.ndarray = None


def jet_stack(exprs, point, order: int = 3) -> tuple:
    """The one pass behind ``jet_rows`` and a graph's jets: the Taylor data
    of each of the n expressions ``exprs`` at a point (m,) or a batch of
    points (..., m), written into one array per order, (..., n) for the
    values, then (..., n, m), (..., n, m, m) and (..., n, m, m, m).  Returns
    those order + 1 arrays, zero where an expression fails at a point, and
    the failure record of the points: the first expression's failure, else
    the next one's."""
    x = np.asarray(point, dtype=float)
    shape, m = x.shape[:-1], x.shape[-1]
    if m > MAX_DIM:
        raise ValueError(f"dimension {m} exceeds the supported cap {MAX_DIM}")
    if order not in (0, 1, 2, 3):
        raise ValueError(f"jet order must be 0 to 3, not {order!r}")
    # One point runs as a batch of one: numpy scalars and arrays round some
    # operations (u ** p, for one) differently, and rows must match batches.
    pts = x.reshape(-1, m)
    k, n = len(pts), len(exprs)
    out = [np.empty((k, n) + (m,) * j) for j in range(order + 1)]
    fails = None
    with np.errstate(all="ignore"):
        for i, expr in enumerate(exprs):
            coeffs, bad = _taylor(expr, pts, order)
            for o, c in zip(out, coeffs):
                o[:, i] = c
            if bad is not None:
                failing = bad.code != OK
                for o in out:  # a failing point's jet is zero
                    o[failing, i] = 0.0
                fails = bad if fails is None else fails.then(bad)
    if fails is None:
        fails = Failures.clean(k)
    # the Hessians and third derivatives read from their sorted slots
    out = [o.reshape(shape + o.shape[1:]) if j < 2 else
           o.reshape(k, n, m**j)[..., _sorted_slots(m, j)].reshape(shape + o.shape[1:])
           for j, o in enumerate(out)]
    return out, Failures(fails.code.reshape(shape), fails.value.reshape(shape), fails.errors)


def jet_rows(expr: Expr, point, order: int = 3) -> tuple:
    """``evaluate_jet`` without raising: the jet, zero at the points that
    fail, and the failure record of the points."""
    coeffs, fails = jet_stack((expr,), point, order)
    value, *derivs = (c.squeeze(-1 - j) for j, c in enumerate(coeffs))
    return Jet3(value[()], *derivs), fails


def evaluate_jet(expr: Expr, point, order: int = 3) -> Jet3:
    """Exact Taylor data of ``expr`` to ``order`` (0 to 3) at a point (shape
    (m,)) or a batch of points (shape (..., m)), up to rounding.

    Raises DomainError outside an elementary function's domain and where the
    computed orders overflow or are otherwise not finite; over a batch, the
    error of the first failing point, which is what that point raises on its
    own.
    """
    jet, fails = jet_rows(expr, point, order)
    fails.raise_first()
    return jet


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
        report[1] = np.maximum(report[1], rel(jet.grad[i], central(f, i)(x)))
    H = jet.hess
    for i in range(m):
        for j in range(i, m):
            fd = central(central(f, j), i)(x)
            report[2] = np.maximum(report[2], rel(H[i, j], fd))
    T = jet.third
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                fd = central(central(central(f, k), j), i)(x)
                report[3] = np.maximum(report[3], rel(T[i, j, k], fd))
    return FiniteDiffReport(h=h, max_rel={k: float(v) for k, v in report.items()})
