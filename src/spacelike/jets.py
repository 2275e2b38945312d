"""Truncated Taylor evaluation of expression ASTs over any batch of points.

``_taylor`` is the one evaluator.  It computes the Taylor coefficients of an
expression to any order k from 0 to 3, propagated by truncated Taylor
arithmetic, never by finite differences, and carries only the degrees asked
for (Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 13): order 0
gives values (``eval_values``), and every other caller takes the order it
reads, 3 by default.  For k >= 1 the k + 1 coefficients
of an order-k pass are bit-identical to the first k + 1 of an order-3 pass,
as every product and chain rule forms each degree from the lower ones
alone (order 0 divides where jets multiply by a reciprocal), and an
elementary function forms only the derivatives the order reads.
A jet is up to four dense arrays: value (...), gradient (..., m), Hessian
(..., m, m) and third derivatives (..., m, m, m) for a batch of points of
shape (..., m); the orders not asked for are None.  Arithmetic broadcasts
from the right, so a point and a batch share one code path.

Each pass runs a jet program, the tape of Griewank & Walther: at its first
call at an order and a dimension m, an expression gets its program for them
(``_build`` walks the AST once, iteratively, so depth is not bounded by the
recursion limit), keeps it as an attribute, and every later pass at that
order and m runs it.  A program is a straight list of numpy steps over a
register file: the build resolved everything that the form of the
expression decides, which derivative blocks are zero, each product's
broadcasting index, the elementary functions and the domain tests, so a
run dispatches nothing.  It also computed every block that is the same at
every point, the passive values of activity analysis: a constant, a unit
gradient, the Hessian 2 e_i e_i^T of x_i^2, a function of a constant.
Each is one read-only row that the steps broadcast against, so a run forms
only the blocks that depend on the points; the order-2 program of
``sqrt(1+x1^2+x2^2)`` has 19 steps where every block would take 29.  A
build costs the rules' Python and one numpy operation on one row per
folded block, about two runs on a small batch, so a program pays where it
runs many times, as in the right-hand sides of the geodesic ODE.

A derivative block that is zero by the form of the expression is None in
the build, not an array of zeros: a constant carries only its value, a
variable its value and its unit gradient, and u^p drops a coefficient that
vanishes; its derivative c u^(p-k) is c*u for p - k = 1 and the constant c
for p - k = 0, not a power, as u**1 == u and u**0 == 1 at every u, nan and
inf included.  Products, the chain rule, sums and negation drop every term
with a None factor and add the others in their fixed order (Griewank &
Walther, ch. 7), so a term that would be exactly 0.0 is never formed, and
only the sign of a zero can differ from the dense sum.  A None block at
the root becomes zeros.  So a constant's derivatives are exact zeros:
``x1 + sqrt(1e-320)`` and ``x1*log(5e-324)`` have clean order-3 jets, those
of ``x1`` plus or times the constant, where dense zeros would meet the
infinite derivatives of sqrt and log (0 * inf = nan); ``sqrt(0)*x1`` still
fails, as sqrt(0) has no derivative.

``jet_stack`` is the one pass around it, and every jet of the package
comes from it: for one expression (``eval_values``, its order-0 view, and
``evaluate_jet``) or the n components of a graph or a potential, it stacks
the expressions' coefficients into one array per order, (..., n),
(..., n, m) and so on, reads the tensors exactly symmetric from their
sorted (i <= j <= k) slots, and returns values that are its own.  Only its
derivative orders 1 to 3 are capped at m <= ``MAX_DIM``.

A point that leaves a function's domain, or whose computed coefficients
overflow, is recorded rather than raised, so one evaluation serves a whole
lattice: ``jet_stack`` returns the failure record (``failures.Failures``)
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
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprparse import BinOp, Const, DomainError, Expr, Pow, Unary, Var, eval_values
from .failures import OK, Failures

MAX_DIM = 8  # a dense jet holds m^3 third derivatives per point; values have no cap


# ---------------------------------------------------------------------------
# The steps of a jet program.  Each is a function of two registers (a block,
# a per-point coefficient, the points or a constant of the expression) and
# makes the numpy operation that the truncated Taylor arithmetic asks for
# there.  ``c`` is one number per point, a block is (..., m, ...).

def _full(pts, value):
    """A constant at every point: np.full's empty array and fill, without
    its dtype lookup (a Python float is a float64)."""
    out = np.empty(pts.shape[:-1])
    out.fill(value)
    return out


def _unit(pts, i):
    """The gradient of the variable x_{i+1}."""
    g = np.zeros(pts.shape)
    g[..., i] = 1.0
    return g


_SHAPE_ONLY = (_full, _unit)  # the steps that read only the shape of the points


def _apply(u, fn):
    return fn(u)


def _neg(x, _):
    return -x


def _times1(c, x):
    return c[..., None] * x


def _times2(c, x):
    return c[..., None, None] * x


def _times3(c, x):
    return c[..., None, None, None] * x


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _sym3(g, H):
    """g_i H_jk + g_j H_ik + g_k H_ij over the trailing axes (H symmetric)."""
    return (g[..., :, None, None] * H[..., None, :, :]
            + g[..., None, :, None] * H[..., :, None, :]
            + g[..., None, None, :] * H[..., :, :, None])


def _times_gg(c, gg):
    """c g_i g_j as (..., m, m, 1), from gg = g g^T."""
    return c[..., None, None, None] * gg[..., None]


def _times_g(cgg, g):
    """c g_i g_j g_k, from c g_i g_j."""
    return cgg * g[..., None, None, :]


def _is_zero(u):
    return u == 0


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


@np.errstate(all="ignore")
def _build(expr: Expr, order: int, m: int) -> "_Program":
    """The jet program of ``expr`` at ``order`` for points in R^m (see
    ``_Program``).

    The build walks the AST once, iteratively, with the rules of truncated
    Taylor arithmetic, and each rule emits a step for each numpy operation
    it needs: a derivative block that is zero by the form of the expression
    is None and every term with it is dropped, the others are added in
    their fixed order.  What a rule emits depends on the form of the
    expression alone, never on the points.  A step whose operands are all
    known at build time (the constants, earlier folded blocks, and the
    points where it reads only their shape, as ``_full`` and ``_unit`` do)
    is not emitted but folded: the build computes it once, on a batch of
    one row, and keeps the result as a read-only constant register of
    leading axis 1, against which later steps broadcast; the occurrences of
    a variable share its unit gradient.  A rule frees the registers it
    reads for the last time, its children's blocks and its own
    temporaries, and a later step takes their slots, so a run drops each
    array as soon as no step reads it; the registers that the domain tests
    read and the folded ones keep theirs.
    """
    # regs[x] is not None exactly where register x is known at build time;
    # the points are a row of zeros while the build runs
    regs, steps, checks, free, kept = [np.zeros((1, m))], [], [], [], set()

    def step(fn, a, b):
        if regs[b] is not None and regs[a] is not None and (a or fn in _SHAPE_ONLY):
            value = fn(regs[a], regs[b])
            value.setflags(write=False)
            return const(value)
        if free:
            out = free.pop()
        else:
            out = len(regs)
            regs.append(None)
        steps.append((out, fn, a, b))
        return out

    def const(value):
        regs.append(value)
        return len(regs) - 1

    def release(blocks):
        """Free the registers of ``blocks``, which no later step reads, but
        those that the domain tests read and the folded ones."""
        for x in blocks:
            if x is not None and x not in kept and regs[x] is None:
                free.append(x)

    def check(test, u, message, span):
        kept.add(u)
        checks.append((test, u, message, span))

    def add(*terms):
        """The terms that are not None, added from the left; None if none is left."""
        out = None
        for t in terms:
            if t is not None:
                if out is None:
                    out = t
                else:
                    release((out, t))
                    out = step(operator.add, out, t)
        return out

    def neg(x):
        release((x,))
        return step(_neg, x, x)

    def sub(x, y):
        """x - y, with None an exact zero."""
        if y is None:
            return x
        if x is None:
            return neg(y)
        release((x, y))
        return step(operator.sub, x, y)

    def mul(a, b):
        """Truncated Taylor product of two coefficient tuples of one order k,
        (value, grad, hess, third)[:k + 1]; only those k + 1 are computed."""
        a0, b0 = a[0], b[0]
        out = [step(operator.mul, a0, b0)]
        if order > 0:
            ag, bg = a[1], b[1]
            out.append(add(None if bg is None else step(_times1, a0, bg),
                           None if ag is None else step(_times1, b0, ag)))
        if order > 1:
            aH, bH = a[2], b[2]
            both = ag is not None and bg is not None
            out.append(add(None if bH is None else step(_times2, a0, bH),
                           None if aH is None else step(_times2, b0, aH),
                           step(_outer, ag, bg) if both else None,
                           step(_outer, bg, ag) if both else None))
        if order > 2:
            aT, bT = a[3], b[3]
            out.append(add(None if bT is None else step(_times3, a0, bT),
                           None if aT is None else step(_times3, b0, aT),
                           None if ag is None or bH is None else step(_sym3, ag, bH),
                           None if bg is None or aH is None else step(_sym3, bg, aH)))
        release(a + b)
        return tuple(out)

    def compose(u, d):
        """Chain rule through a univariate function with derivatives d = (d0,
        d1, d2, d3) at u's value, to the order of u; the unused d are not read."""
        out, gg, d3gg, gH = [d[0]], None, None, None
        if order > 0:
            g, d1 = u[1], d[1]
            out.append(None if g is None or d1 is None else step(_times1, d1, g))
        if order > 1:
            H, d2 = u[2], d[2]
            gg = None if g is None else step(_outer, g, g)
            out.append(add(None if d1 is None or H is None else step(_times2, d1, H),
                           None if d2 is None or gg is None else step(_times2, d2, gg)))
        if order > 2:
            T, d3 = u[3], d[3]
            d3gg = None if d3 is None or gg is None else step(_times_gg, d3, gg)
            gH = None if g is None or H is None else step(_sym3, g, H)
            out.append(add(None if d1 is None or T is None else step(_times3, d1, T),
                           None if d2 is None or gH is None else step(_times3, d2, gH),
                           None if d3gg is None else step(_times_g, d3gg, g)))
        release(u)
        release(d[1:])
        release((gg, d3gg, gH))
        return tuple(out)

    def power(u, p):
        """Chain rule for u^p, with d_k = c u^(p-k): a vanishing c is an
        exact zero, c u^1 is c*u and c u^0 the constant c, as u**1 == u and
        u**0 == 1 at every u, nan and inf included."""
        u0 = u[0]
        d = [step(operator.pow, u0, const(p))]
        for k, c in enumerate((p, p * (p - 1), p * (p - 1) * (p - 2))[:order], 1):
            if not c:
                d.append(None)
            elif p - k == 0:
                d.append(step(_full, 0, const(c)))
            elif p - k == 1:
                d.append(step(operator.mul, const(c), u0))
            else:
                w = step(operator.pow, u0, const(p - k))
                release((w,))
                d.append(step(operator.mul, const(c), w))
        return compose(u, d)

    post, todo = [], [expr]
    while todo:
        node = todo.pop()
        post.append(node)
        kind = type(node)
        if kind is Unary:
            todo.append(node.child)
        elif kind is BinOp:
            todo += (node.lhs, node.rhs)
        elif kind is Pow:
            todo.append(node.base)
    stack, zeros, units = [], (None,) * order, {}
    for node in reversed(post):
        kind = type(node)
        if kind is Const:
            t = (step(_full, 0, const(node.value)),) + zeros
        elif kind is Var:
            i = node.index - 1
            t = (step(operator.getitem, 0, const((Ellipsis, i))),)
            if order:
                if i not in units:  # folded, so every occurrence of x_i shares it
                    units[i] = step(_unit, 0, const(i))
                t += (units[i],) + zeros[1:]
        elif kind is Unary:
            u = stack.pop()
            if node.op == "neg":
                t = tuple(None if c is None else neg(c) for c in u)
            else:
                bad = _OUT_OF_DOMAIN.get(node.op)
                if bad is not None:
                    check(bad, u[0], f"{node.op} argument out of range", node.span)
                if order and node.op == "sqrt":
                    check(_is_zero, u[0], "sqrt argument must be positive for differentiation",
                          node.span)
                fn, derivs = _ELEMENTARY[node.op]
                v = step(_apply, u[0], const(fn))
                t = compose(u, (v, *(step(d, u[0], v) for d in derivs[:order])))
        elif kind is BinOp:
            b, a = stack.pop(), stack.pop()
            if node.op == "+":
                t = tuple(map(add, a, b))
            elif node.op == "-":
                t = tuple(map(sub, a, b))
            elif node.op == "*":
                t = mul(a, b)
            elif order:
                check(_is_zero, b[0], "division by zero", node.span)
                t = mul(a, power(b, -1))
            else:
                check(_is_zero, b[0], "division by zero", node.span)
                t = (step(operator.truediv, a[0], b[0]),)
                release(a + b)
        elif kind is Pow:
            u = stack.pop()
            if node.exponent < 0:
                check(_is_zero, u[0], "zero raised to a negative power", node.span)
            t = power(u, node.exponent)
        else:
            raise TypeError(f"not an Expr: {node!r}")
        stack.append(t)
    message = f"non-finite {'jet' if order else 'value'} (overflow or NaN)"
    regs[0] = None
    return _Program(regs, steps, checks, stack[0], message, expr.span)


class _Program:
    """The Taylor pass of one expression at one order for points in R^m: a
    straight list of steps ``r[out] = fn(r[a], r[b])`` over a register file
    r that holds the points (r[0]), the constants of the expression and its
    folded blocks (``regs``, None for the other registers) and the steps'
    results, each step one numpy operation of the truncated Taylor
    arithmetic (``_sym3``: its fixed five).  The domain tests of ``checks``
    only read registers; they run after the steps, in the order the build
    met them.  ``root`` gives the registers of the result, None for an
    exact zero."""

    __slots__ = ("regs", "steps", "checks", "root", "message", "span")

    def __init__(self, regs, steps, checks, root, message, span):
        self.regs, self.steps, self.checks = regs, steps, checks
        self.root, self.message, self.span = root, message, span

    def run(self, pts: np.ndarray) -> tuple:
        """The Taylor data at points (..., m), with at least one batch axis,
        as ``_taylor`` returns it.  A folded register holds one row for
        every point: a domain test that reads it is broadcast to the batch,
        and a root coefficient that is one is broadcast and copied, so that
        every coefficient returned is a fresh, writeable array."""
        regs = self.regs
        r = regs.copy()
        r[0] = pts
        for out, fn, a, b in self.steps:
            r[out] = fn(r[a], r[b])
        shape, m = pts.shape[:-1], pts.shape[-1]
        fails = None
        for test, u, message, span in self.checks:
            bad = test(r[u])
            if regs[u] is not None:
                bad = np.broadcast_to(bad, shape)
            fails = _mark(fails, bad, message, span)
        coeffs = tuple(np.zeros(shape + (m,) * k) if i is None
                       else r[i] if regs[i] is None
                       else np.broadcast_to(r[i], shape + (m,) * k).copy()
                       for k, i in enumerate(self.root))
        # a sum with a non-finite term is not finite
        if not math.isfinite(sum(c.sum() for c in coeffs)):
            rows = [c.reshape(shape + (m**k,)) for k, c in enumerate(coeffs)]  # m^k entries each
            finite = np.isfinite(np.concatenate(rows, axis=-1)).all(axis=-1)
            fails = _mark(fails, ~finite, self.message, self.span)
        return coeffs, fails


def _mark(fails, bad, message, span):
    """The record ``fails`` (None while every point passes) with the points
    where ``bad`` holds failing with DomainError(message, span), if any does."""
    if bad.any():  # one DomainError only where a point fails
        if fails is None:
            fails = Failures.clean(bad.shape)
        fails.add(bad, DomainError(message, span))
    return fails


def _taylor(expr: Expr, pts: np.ndarray, order: int) -> tuple:
    """Truncated Taylor data of ``expr`` at points of shape (..., m).

    Returns (coeffs, fails): coeffs is (value, grad, hess, third)[:order + 1],
    for an order from 0 to 3, each led by the batch shape of ``pts``; the
    higher derivatives are never formed.  A point that leaves a function's
    domain, or whose computed coefficients end up not finite, is recorded
    instead of raised: ``fails`` gives each point's first DomainError,
    carrying the span of the offending subexpression (the whole expression
    for a non-finite result).  The record is built at the first failing
    point; ``fails`` is None where every point passes.  The expression
    keeps its program for each order and dimension m, built at the first
    call, as its folded unit gradients have m entries.
    """
    programs = expr.__dict__.setdefault("_jet_programs", {})
    key = order, pts.shape[-1]
    program = programs.get(key)
    if program is None:
        program = programs[key] = _build(expr, *key)
    return program.run(pts)


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
    """The one pass of the package: the Taylor data of each of the n
    expressions ``exprs`` at a point (m,) or a batch of points (..., m),
    stacked into one array per order, (..., n) for the values, then
    (..., n, m), (..., n, m, m) and (..., n, m, m, m).  Returns those
    order + 1 arrays, zero where an expression fails at a point, and the
    failure record of the points: the first expression's failure, else the
    next one's."""
    x = np.asarray(point, dtype=float)
    shape, m = x.shape[:-1], x.shape[-1]
    if order not in (0, 1, 2, 3):
        raise ValueError(f"jet order must be 0 to 3, not {order!r}")
    if order and m > MAX_DIM:
        raise ValueError(f"dimension {m} exceeds the supported cap {MAX_DIM}")
    # One point runs as a batch of one: numpy scalars and arrays round some
    # operations (u ** p, for one) differently, and rows must match batches.
    pts = x.reshape(-1, m)
    k, n = len(pts), len(exprs)
    with np.errstate(all="ignore"):
        passes = [_taylor(expr, pts, order) for expr in exprs]
    out = []
    for j, blocks in enumerate(zip(*(coeffs for coeffs, _ in passes))):
        if n == 1:
            o = blocks[0].reshape((k, 1) + (m,) * j)
        else:
            o = np.empty((k, n) + (m,) * j)
            for i, c in enumerate(blocks):
                o[:, i] = c
        if j >= 2:  # the Hessians and third derivatives read from their sorted slots
            o = o.reshape(k, n, m**j)[..., _sorted_slots(m, j)].reshape(o.shape)
        elif j == 0 and n == 1:
            o = o.copy()  # a value may be a view of the points, and callers subtract from it
        out.append(o)
    fails = None
    for i, (_, bad) in enumerate(passes):
        if bad is not None:
            failing = bad.code != OK
            for o in out:  # a failing point's jet is zero
                o[failing, i] = 0.0
            fails = bad if fails is None else fails.then(bad)
    if x.ndim != 2:  # a point, or a batch of several axes
        out = [o.reshape(shape + o.shape[1:]) for o in out]
        if fails is not None:
            fails = Failures(fails.code.reshape(shape), fails.value.reshape(shape), fails.errors)
    return out, Failures.clean(shape) if fails is None else fails


def evaluate_jet(expr: Expr, point, order: int = 3) -> Jet3:
    """Exact Taylor data of ``expr`` to ``order`` (0 to 3) at a point (shape
    (m,)) or a batch of points (shape (..., m)), up to rounding.

    Raises DomainError outside an elementary function's domain and where the
    computed orders overflow or are otherwise not finite; over a batch, the
    error of the first failing point, which is what that point raises on its
    own.
    """
    coeffs, fails = jet_stack((expr,), point, order)
    fails.raise_first()
    value, *derivs = (c.squeeze(-1 - j) for j, c in enumerate(coeffs))
    return Jet3(value[()], *derivs)


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
