"""Gradient graphs of convex potentials in null coordinates.

R^{2m}_m carries null coordinates (x; y) with the bilinear form
Q((u,v),(u',v')) = (u.v' + u'.v)/2, so that the graph of grad F has
tangent frame e_i = d_{x^i} + F_ij d_{y^j} with <e_i, e_j> = F_ij exactly
and normal frame n_i = d_{x^i} - F_ij d_{y^j} with <n_i, n_j> = -F_ij.
The graph is space-like precisely where F is convex; its mean curvature
vanishes exactly where det Hess F is locally constant (Monge-Ampere).

The moduli-space curvature formulas of the induced Hessian metric are
implemented both directly (third derivatives of F contracted against
g^{-1}) and via an intrinsic Christoffel oracle for cross-checking.

The per-point functions (gradient_graph, ma_residual, lagrangian_forms,
moduli_curvature, moduli_curvature_oracle, to_standard) take a point (m,)
or a batch (k, m) and evaluate the jets of F once for the batch, one
``jets.jet_stack`` pass (plus one for the 2m shifted points of the oracle's
finite differences, of which only the third derivatives are read); the
gradient graph holds F's gradient and Hessian, and the third derivatives
travel beside it as a plain array.  A batch gets batched records or the
exception of its first failing point.

to_standard() changes coordinates by the linear isometry
(x, y) -> ((x+y)/2, (x-y)/2), which takes Q to diag(+1^m, -1^m), so the
general immersion machinery gives the same graph's Geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprparse import Expr, parse
from .failures import DOMAIN, NOT_CONVEX, OK, STATUS, NotConvexError  # noqa: F401 (re-exported)
from .graphgeom import (
    Geometry, _filled, _metric_inverse, _points, _take, _view, immersion_geometry,
    riemann_from_metric, signature,
)
from .jets import jet_stack


ORACLE_FD_STEP = 1e-4  # central-difference step of the moduli-curvature oracle


@dataclass(frozen=True)
class Potential:
    """Convex potential F(x1..xm) with a target Monge-Ampere constant c."""

    m: int
    F: Expr
    c: float = 1.0

    @classmethod
    def from_string(cls, m: int, text: str, c: float = 1.0) -> "Potential":
        return cls(m, parse(text, m), c)


@dataclass
class GradientGraphPoint:
    point: np.ndarray      # (x; grad F(x)) in null coordinates
    metric: np.ndarray     # Hess F
    metric_inv: np.ndarray
    det: float
    min_eig: float
    convex: bool


@np.errstate(over="ignore")  # det Hess F may overflow to inf, which the node table writes as nan
def _gradient_graph(P: Potential, x):
    """The one batched pass of a potential at a point (m,) or points (k, m):
    the gradient graph, the points (k, m), F's third derivatives there (zero
    where the jets fail) and the failure record: a DomainError of the jets,
    then ``graphgeom._definite`` on the Hessian metric (a DomainError or NOT_CONVEX)."""
    pts = _points(x, P.m)
    (_, grad, hess, third), fails = jet_stack((P.F,), pts)
    g = hess[:, 0]
    min_eig, g_inv = _metric_inverse(g, NOT_CONVEX, fails)
    gg = GradientGraphPoint(point=np.concatenate([pts, grad[:, 0]], axis=-1), metric=g,
                            metric_inv=g_inv, det=np.linalg.det(g), min_eig=min_eig,
                            convex=min_eig > 0.0)
    return gg, pts, third[:, 0], fails


def _shifted_jets(P: Potential, pts: np.ndarray, step: float):
    """Third derivatives of F at the points pts +- step e_l, (k, 2m, m, m, m),
    and per point the failure of the first of its 2m shifted points that fails."""
    shifts = step * np.eye(P.m)
    shifted = np.concatenate([pts[:, None] + shifts, pts[:, None] - shifts], 1)
    (*_, third), fails = jet_stack((P.F,), shifted)
    return third[:, :, 0], fails.first_along(1)


def gradient_graph(P: Potential, x) -> GradientGraphPoint:
    gg, _, _, fails = _gradient_graph(P, x)
    fails.raise_first(DOMAIN)
    return _view(x, gg)


def ma_residual(P: Potential, x) -> float:
    """Signed Monge-Ampere residual det(Hess F)(x) - c."""
    gg, _, _, fails = _gradient_graph(P, x)
    fails.raise_first(DOMAIN)
    return _view(x, gg.det - P.c)


@dataclass
class LagrangianForms:
    B_coeff: np.ndarray       # (m, m, m): B_ij = B_coeff[i,j,k] n_k
    H_coeff: np.ndarray       # (m,): H = H_coeff[k] n_k
    S: float                  # squared norm of the second fundamental form
    H_norm: float


def lagrangian_forms(P: Potential, x) -> LagrangianForms:
    """Second fundamental form and mean curvature of the gradient graph,
    expressed in the (non-normalized) normal frame n_k.

    B_ij = -1/2 F_ijl g^{lk} n_k and H = -(1/(2m g)) (d g / d x^l) g^{lk} n_k
    with g = det Hess F.  Frame-invariant norms:
    S = 1/4 g^{ik} g^{jl} g^{ab} F_ija F_klb and |H|^2 = g_pq H^p H^q.
    """
    gg, _, third, fails = _gradient_graph(P, x)
    fails.raise_first()
    return _view(x, LagrangianForms(*_lagrangian_forms(P, third, gg)))


def _lagrangian_forms(P: Potential, T: np.ndarray, gg: GradientGraphPoint):
    """B_coeff, H_coeff, S and H_norm at every point, from F's third derivatives T."""
    g, g_inv = gg.metric, gg.metric_inv
    B = -0.5 * np.einsum("...ijl,...lk->...ijk", T, g_inv)
    # d_l ln det g = g^{ij} F_ijl  (Jacobi)
    dlog = np.einsum("...ij,...ijl->...l", g_inv, T)
    H = -(1.0 / (2.0 * P.m)) * np.einsum("...l,...lk->...k", dlog, g_inv)
    S = 0.25 * np.einsum("...ik,...jl,...ab,...ija,...klb->...", g_inv, g_inv, g_inv, T, T)
    H_norm = np.sqrt(np.einsum("...p,...pq,...q->...", H, g, H))
    return B, H, S, H_norm


# ---------------------------------------------------------------------------
# Standard-coordinate route: run the generic immersion machinery on the
# linearly transformed graph and compare frame-invariant outputs.

def null_to_standard_matrix(m: int) -> np.ndarray:
    """T (2m, 2m) with T^T diag(+1^m, -1^m) T = Q."""
    eye = np.eye(m)
    return 0.5 * np.block([[eye, eye], [eye, -eye]])


def to_standard(P: Potential, x) -> Geometry:
    """The Geometry of the same gradient graph as an ordinary space-like
    immersion in standard coordinates of signature diag(+1^m, -1^m)."""
    gg, _, third, fails = _gradient_graph(P, x)
    g, m = gg.metric, P.m
    T = null_to_standard_matrix(m)
    eye = np.broadcast_to(np.eye(m), g.shape)
    # null-coordinate rows e_i = d_i + F_ij d_{y^j} and n_i = d_i - F_ij d_{y^j},
    # each taken to standard coordinates by T
    J = np.concatenate([eye, g], axis=-1) @ T.T
    Hss = np.concatenate([np.zeros(g.shape + (m,)), third], axis=-1) @ T.T
    normals = np.concatenate([eye, -g], axis=-1) @ T.T
    geo = immersion_geometry(J, Hss, signature(m, m), normals)
    return _view(x, geo, fails.then(geo.fails))


# ---------------------------------------------------------------------------
# Moduli-space curvature of the Hessian metric

@dataclass
class ModuliCurvature:
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    min_ricci_eig: float


def moduli_curvature_arrays(g: np.ndarray, g_inv: np.ndarray, third: np.ndarray) -> ModuliCurvature:
    """Curvature of the Hessian metric from (Hess F, its inverse, F_ijk),
    over any leading batch axes."""
    R = (-0.25 * np.einsum("...st,...sik,...tjl->...ijkl", g_inv, third, third)
         + 0.25 * np.einsum("...st,...sil,...tjk->...ijkl", g_inv, third, third))
    dlog = np.einsum("...ij,...ijl->...l", g_inv, third)  # d_t ln det g
    ric = (-0.25 * np.einsum("...st,...sik,...t->...ik", g_inv, third, dlog)
           + 0.25 * np.einsum("...st,...jl,...sil,...tjk->...ik", g_inv, g_inv, third, third))
    scal = (-0.25 * np.einsum("...i,...ij,...j->...", dlog, g_inv, dlog)
            + 0.25 * np.einsum("...st,...jl,...ik,...sil,...tjk->...",
                               g_inv, g_inv, g_inv, third, third))
    eigs = np.linalg.eigvalsh(0.5 * (ric + np.swapaxes(ric, -1, -2)))
    return ModuliCurvature(riemann=R, ricci=ric, scalar=scal, min_ricci_eig=eigs[..., 0])


def moduli_curvature(P: Potential, x) -> ModuliCurvature:
    gg, _, third, fails = _gradient_graph(P, x)
    fails.raise_first()
    return _view(x, moduli_curvature_arrays(gg.metric, gg.metric_inv, third))


def moduli_curvature_oracle(P: Potential, x) -> np.ndarray:
    """Intrinsic Christoffel-route curvature of the Hessian metric.

    g and dg come exactly from the order-3 jet; ddg (fourth derivatives of
    F) is obtained by central differences of exact third derivatives, so
    the oracle is exact for quartic potentials and O(ORACLE_FD_STEP^2)
    otherwise.  The fourth-derivative content cancels in the curvature
    combination.  Raises what ``moduli_curvature`` raises, then a
    DomainError at a shifted point.
    """
    gg, pts, third, fails = _gradient_graph(P, x)
    shifted, shift_fails = _shifted_jets(P, pts, ORACLE_FD_STEP)
    fails.then(shift_fails).raise_first()
    return _view(x, _moduli_oracle(P, gg, third, shifted))


def _moduli_oracle(P: Potential, gg: GradientGraphPoint, third, shifted) -> np.ndarray:
    m = P.m
    dg = np.einsum("...ijp->...pij", third)
    diff = (shifted[:, :m] - shifted[:, m:]) / (2 * ORACLE_FD_STEP)
    ddg = np.einsum("...pijq->...pqij", diff)  # ddg[p,q,i,j] = d_p d_q g_ij
    return riemann_from_metric(gg.metric, dg, ddg)


# ---------------------------------------------------------------------------
# Node table of a potential

def node_table(P: Potential, pts: np.ndarray, oracle: bool) -> tuple[np.ndarray, dict]:
    """Status and named columns of the gradient graph of P at the nodes ``pts`` (k, m).

    One batched pass; each stage runs on the nodes that passed the earlier
    ones, a node's status is its first failure, and a column is nan where a
    node does not reach it.  ``oracle`` adds ``riemann_oracle_err``, the
    relative deviation of the moduli curvature from its Christoffel oracle.
    """
    k = pts.shape[0]
    gg, _, third, fails = _gradient_graph(P, pts)
    convex = np.flatnonzero(fails.code == OK)
    third_c, gg_c = third[convex], _take(gg, convex)
    _, _, S, H_norm = _lagrangian_forms(P, third_c, gg_c)
    mc = moduli_curvature_arrays(gg_c.metric, gg_c.metric_inv, third_c)

    clean = fails.code != DOMAIN
    cols = {
        "det_hess": _filled(k, clean, gg.det[clean]),
        "min_eig_hess": _filled(k, clean, gg.min_eig[clean]),
        "ma_residual": _filled(k, clean, gg.det[clean] - P.c),
        "S": _filled(k, convex, S),
        "H_norm": _filled(k, convex, H_norm),
        "min_ricci_eig": _filled(k, convex, mc.min_ricci_eig),
        "scalar_curv": _filled(k, convex, mc.scalar),
    }
    if oracle:
        shifted, shift_fails = _shifted_jets(P, pts[convex], ORACLE_FD_STEP)
        ref = _moduli_oracle(P, gg_c, third_c, shifted)
        axes = (-4, -3, -2, -1)
        scale = np.maximum(np.max(np.abs(ref), axis=axes), 1e-10)
        err = np.max(np.abs(mc.riemann - ref), axis=axes) / scale
        checked = shift_fails.code == OK
        cols["riemann_oracle_err"] = _filled(k, convex[checked], err[checked])
        fails.then(shift_fails, convex)
    return STATUS[fails.code], cols
