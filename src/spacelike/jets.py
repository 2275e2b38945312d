"""Forward-mode automatic differentiation of expression ASTs.

Jet3 carries the value, gradient, Hessian and all third-order partial
derivatives of a scalar function of m variables at a point, propagated
exactly through the AST by truncated Taylor arithmetic (never by finite
differences).  Symmetric tensors are stored packed, one entry per
unordered index pair / triple; dense views are materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprparse import BinOp, Const, DomainError, Expr, Pow, Unary, Var

MAX_DIM = 8  # packed jet sizes stay tiny up to here

_SYM_CHECK_TOL = 1e-10


@lru_cache(maxsize=None)
def _pair_indices(m: int):
    return np.triu_indices(m)


@lru_cache(maxsize=None)
def _triple_indices(m: int):
    idx = [(i, j, k) for i in range(m) for j in range(i, m) for k in range(j, m)]
    arr = np.array(idx, dtype=int).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def pack_sym2(mat: np.ndarray) -> np.ndarray:
    iu = _pair_indices(mat.shape[0])
    return mat[iu].copy()


def unpack_sym2(vec: np.ndarray, m: int) -> np.ndarray:
    iu = _pair_indices(m)
    out = np.zeros((m, m))
    out[iu] = vec
    out.T[iu] = vec
    return out


def pack_sym3(t: np.ndarray) -> np.ndarray:
    ii, jj, kk = _triple_indices(t.shape[0])
    return t[ii, jj, kk].copy()


def unpack_sym3(vec: np.ndarray, m: int) -> np.ndarray:
    ii, jj, kk = _triple_indices(m)
    out = np.zeros((m, m, m))
    for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        axes = (ii, jj, kk)
        out[axes[p.index(0)], axes[p.index(1)], axes[p.index(2)]] = vec
    return out


def _sym3_outer(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Symmetrized g_i H_jk + g_j H_ik + g_k H_ij (H symmetric)."""
    return (
        g[:, None, None] * H[None, :, :]
        + g[None, :, None] * H[:, None, :]
        + g[None, None, :] * H[:, :, None]
    )


@dataclass
class Jet3:
    """Truncated Taylor data of a scalar function at a point, to order 3."""

    m: int
    value: float
    grad: np.ndarray      # (m,)
    hess_p: np.ndarray    # packed, m(m+1)/2 entries, pairs i <= j
    third_p: np.ndarray   # packed, C(m+2,3) entries, triples i <= j <= k

    @property
    def hess(self) -> np.ndarray:
        return unpack_sym2(self.hess_p, self.m)

    @property
    def third(self) -> np.ndarray:
        return unpack_sym3(self.third_p, self.m)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dense(cls, value, grad, hess, third, check: bool = True) -> "Jet3":
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        third = np.asarray(third, dtype=float)
        m = grad.shape[0]
        if check:
            scale = 1.0 + np.max(np.abs(hess), initial=0.0)
            if np.max(np.abs(hess - hess.T), initial=0.0) > _SYM_CHECK_TOL * scale:
                raise AssertionError("Hessian lost symmetry")
            scale3 = 1.0 + np.max(np.abs(third), initial=0.0)
            for perm in ((0, 2, 1), (1, 0, 2)):
                if np.max(np.abs(third - third.transpose(perm)), initial=0.0) > _SYM_CHECK_TOL * scale3:
                    raise AssertionError("third-order tensor lost symmetry")
        return cls(m, float(value), grad.copy(), pack_sym2(hess), pack_sym3(third))

    @classmethod
    def constant(cls, c: float, m: int) -> "Jet3":
        return cls.from_dense(c, np.zeros(m), np.zeros((m, m)), np.zeros((m, m, m)), check=False)

    @classmethod
    def variable(cls, index: int, m: int, x_i: float) -> "Jet3":
        g = np.zeros(m)
        g[index] = 1.0
        return cls.from_dense(x_i, g, np.zeros((m, m)), np.zeros((m, m, m)), check=False)

    # -- linear arithmetic ---------------------------------------------------

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.m, self.value + other.value, self.grad + other.grad,
                    self.hess_p + other.hess_p, self.third_p + other.third_p)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.m, self.value - other.value, self.grad - other.grad,
                    self.hess_p - other.hess_p, self.third_p - other.third_p)

    def __neg__(self) -> "Jet3":
        return Jet3(self.m, -self.value, -self.grad, -self.hess_p, -self.third_p)

    def scale(self, a: float) -> "Jet3":
        return Jet3(self.m, a * self.value, a * self.grad, a * self.hess_p, a * self.third_p)

    # -- truncated Taylor product and composition ----------------------------

    def __mul__(self, other: "Jet3") -> "Jet3":
        a, b = self, other
        H_a, H_b = a.hess, b.hess
        value = a.value * b.value
        grad = a.value * b.grad + b.value * a.grad
        hess = a.value * H_b + b.value * H_a + np.outer(a.grad, b.grad) + np.outer(b.grad, a.grad)
        third = (
            a.value * b.third + b.value * a.third
            + _sym3_outer(a.grad, H_b) + _sym3_outer(b.grad, H_a)
        )
        return Jet3.from_dense(value, grad, hess, third)

    def compose(self, d0: float, d1: float, d2: float, d3: float) -> "Jet3":
        """Chain rule through a univariate function with derivatives d0..d3 at self.value."""
        H = self.hess
        g = self.grad
        value = d0
        grad = d1 * g
        hess = d1 * H + d2 * np.outer(g, g)
        third = d1 * self.third + d2 * _sym3_outer(g, H) + d3 * np.einsum("i,j,k->ijk", g, g, g)
        return Jet3.from_dense(value, grad, hess, third)

    def reciprocal(self) -> "Jet3":
        v = self.value
        return self.compose(1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)

    def __truediv__(self, other: "Jet3") -> "Jet3":
        return self * other.reciprocal()

    def pow_int(self, k: int) -> "Jet3":
        if k < 0:
            return self.pow_int(-k).reciprocal()
        result = Jet3.constant(1.0, self.m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


# Elementary function tables: value and first three derivatives at u.
def _func_derivs(op: str, u: float, span) -> tuple[float, float, float, float]:
    if op == "sin":
        s, c = math.sin(u), math.cos(u)
        return s, c, -s, -c
    if op == "cos":
        s, c = math.sin(u), math.cos(u)
        return c, -s, -c, s
    if op == "exp":
        e = math.exp(u)
        return e, e, e, e
    if op == "log":
        if u <= 0:
            raise DomainError("log argument out of range", span)
        return math.log(u), 1.0 / u, -1.0 / u**2, 2.0 / u**3
    if op == "sqrt":
        if u <= 0:
            raise DomainError("sqrt argument must be positive for differentiation", span)
        r = math.sqrt(u)
        return r, 0.5 / r, -0.25 / r**3, 0.375 / r**5
    if op == "sinh":
        return math.sinh(u), math.cosh(u), math.sinh(u), math.cosh(u)
    if op == "cosh":
        return math.cosh(u), math.sinh(u), math.cosh(u), math.sinh(u)
    if op == "tanh":
        t = math.tanh(u)
        s = 1.0 - t * t
        return t, s, -2.0 * t * s, -2.0 * s * s + 4.0 * t * t * s
    if op == "asinh":
        w = 1.0 + u * u
        return math.asinh(u), w**-0.5, -u * w**-1.5, (2.0 * u * u - 1.0) * w**-2.5
    if op == "atanh":
        if abs(u) >= 1:
            raise DomainError("atanh argument out of range", span)
        w = 1.0 - u * u
        return math.atanh(u), 1.0 / w, 2.0 * u / w**2, (2.0 + 6.0 * u * u) / w**3
    raise ValueError(f"unknown function {op!r}")


def evaluate_jet(expr: Expr, point) -> Jet3:
    """Exact order-3 Taylor data of ``expr`` at ``point`` (up to rounding)."""
    x = np.asarray(point, dtype=float).ravel()
    m = x.shape[0]
    if m > MAX_DIM:
        raise ValueError(f"dimension {m} exceeds the supported cap {MAX_DIM}")
    return _jet_rec(expr, x, m)


def _jet_rec(expr: Expr, x: np.ndarray, m: int) -> Jet3:
    if isinstance(expr, Const):
        return Jet3.constant(expr.value, m)
    if isinstance(expr, Var):
        return Jet3.variable(expr.index - 1, m, x[expr.index - 1])
    if isinstance(expr, Unary):
        u = _jet_rec(expr.child, x, m)
        if expr.op == "neg":
            return -u
        return u.compose(*_func_derivs(expr.op, u.value, expr.span))
    if isinstance(expr, BinOp):
        a = _jet_rec(expr.lhs, x, m)
        b = _jet_rec(expr.rhs, x, m)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if b.value == 0:
            raise DomainError("division by zero", expr.span)
        return a / b
    if isinstance(expr, Pow):
        u = _jet_rec(expr.base, x, m)
        if expr.exponent < 0 and u.value == 0:
            raise DomainError("zero raised to a negative power", expr.span)
        return u.pow_int(expr.exponent)
    raise TypeError(f"not an Expr: {expr!r}")


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
    from .exprparse import eval_values

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

