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

to_standard() changes coordinates by the linear isometry
(x, y) -> ((x+y)/2, (x-y)/2), which takes Q to diag(+1^m, -1^m), so the
same graph can be processed by the general immersion machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprparse import Expr, parse
from .graphgeom import (
    ImmersionGeometry, immersion_geometry, paper_riemann_from_lowered, riemann_lowered,
)
from .jets import evaluate_jet


class NotConvexError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"Hessian of the potential is not positive definite "
                         f"(min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


@dataclass(frozen=True)
class Potential:
    """Convex potential F(x1..xm) with a target Monge-Ampere constant c."""

    m: int
    F: Expr
    c: float = 1.0

    @classmethod
    def from_string(cls, m: int, text: str, c: float = 1.0) -> "Potential":
        return cls(m, parse(text, m), c)

    def jet(self, x):
        return evaluate_jet(self.F, np.asarray(x, dtype=float))


@dataclass
class GradientGraphPoint:
    point: np.ndarray      # (x; grad F(x)) in null coordinates
    metric: np.ndarray     # Hess F
    metric_inv: np.ndarray
    det: float
    min_eig: float
    convex: bool


def gradient_graph(P: Potential, x) -> GradientGraphPoint:
    jet = P.jet(x)
    g = jet.hess
    eigs = np.linalg.eigvalsh(g)
    min_eig = float(eigs[0])
    convex = min_eig > 0
    det = float(np.linalg.det(g))
    g_inv = np.linalg.inv(g) if convex else np.full_like(g, np.nan)
    point = np.concatenate([np.asarray(x, dtype=float), jet.grad])
    return GradientGraphPoint(point=point, metric=g, metric_inv=g_inv,
                              det=det, min_eig=min_eig, convex=convex)


def ma_residual(P: Potential, x) -> float:
    """Signed Monge-Ampere residual det(Hess F)(x) - c."""
    return float(np.linalg.det(P.jet(x).hess)) - P.c


@dataclass
class LagrangianForms:
    B_coeff: np.ndarray       # (m, m, m): B_ij = B_coeff[i,j,k] n_k
    H_coeff: np.ndarray       # (m,): H = H_coeff[k] n_k
    S: float                  # squared norm of the second fundamental form
    H_norm: float
    logdet_identity_residual: float  # max |d_l ln g - g^{ij} F_ijl|


def lagrangian_forms(P: Potential, x) -> LagrangianForms:
    """Second fundamental form and mean curvature of the gradient graph,
    expressed in the (non-normalized) normal frame n_k.

    B_ij = -1/2 F_ijl g^{lk} n_k and H = -(1/(2m g)) (d g / d x^l) g^{lk} n_k
    with g = det Hess F.  Frame-invariant norms:
    S = 1/4 g^{ik} g^{jl} g^{ab} F_ija F_klb and |H|^2 = g_pq H^p H^q.
    """
    x = np.asarray(x, dtype=float)
    gg = gradient_graph(P, x)
    if not gg.convex:
        raise NotConvexError(gg.min_eig)
    jet = P.jet(x)
    g, g_inv, det = gg.metric, gg.metric_inv, gg.det
    T = jet.third
    B = -0.5 * np.einsum("ijl,lk->ijk", T, g_inv)
    # d_l det = det * g^{ij} F_ijl  (Jacobi); verified as an internal identity
    dlog = np.einsum("ij,ijl->l", g_inv, T)
    H = -(1.0 / (2.0 * P.m)) * (dlog @ g_inv)
    # independent route to d_l ln g via central differences of the jet values
    h_fd = 1e-6
    shifts = h_fd * np.eye(P.m)
    dets = np.linalg.det(P.jet(np.concatenate([x + shifts, x - shifts])).hess)
    dp, dm = dets[:P.m], dets[P.m:]
    resid = float(np.max(np.abs((np.log(dp) - np.log(dm)) / (2 * h_fd) - dlog)))
    S = 0.25 * float(np.einsum("ik,jl,ab,ija,klb->", g_inv, g_inv, g_inv, T, T))
    H_norm = float(np.sqrt(H @ g @ H))
    return LagrangianForms(B_coeff=B, H_coeff=H, S=S, H_norm=H_norm,
                           logdet_identity_residual=resid)


# ---------------------------------------------------------------------------
# Standard-coordinate route: run the generic immersion machinery on the
# linearly transformed graph and compare frame-invariant outputs.

@dataclass
class StandardImmersion:
    T: np.ndarray              # (2m, 2m) with T^T diag(+,-) T = Q
    X: np.ndarray
    J: np.ndarray              # (m, 2m)
    Hss: np.ndarray            # (m, m, 2m)
    normals: np.ndarray        # (m, 2m) transported n_i
    geometry: ImmersionGeometry


def null_to_standard_matrix(m: int) -> np.ndarray:
    eye = np.eye(m)
    return 0.5 * np.block([[eye, eye], [eye, -eye]])


def to_standard(P: Potential, x) -> StandardImmersion:
    """The same gradient graph as an ordinary space-like graph immersion in
    standard coordinates of signature diag(+1^m, -1^m)."""
    x = np.asarray(x, dtype=float)
    jet = P.jet(x)
    g = jet.hess
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] <= 0:
        raise NotConvexError(float(eigs[0]))
    m = P.m
    T = null_to_standard_matrix(m)
    X = T @ np.concatenate([x, jet.grad])
    eye = np.eye(m)
    J_null = np.hstack([eye, g])                      # rows e_i = d_i + F_ij d_{y^j}
    Hss_null = np.concatenate([np.zeros((m, m, m)), jet.third], axis=2)
    normals_null = np.hstack([eye, -g])               # rows n_i
    J = J_null @ T.T
    Hss = np.einsum("ijB,AB->ijA", Hss_null, T)
    normals = normals_null @ T.T
    sig = np.concatenate([np.ones(m), -np.ones(m)])
    geo = immersion_geometry(J, Hss, sig, normals)
    return StandardImmersion(T=T, X=X, J=J, Hss=Hss, normals=normals, geometry=geo)


# ---------------------------------------------------------------------------
# Moduli-space curvature of the Hessian metric

@dataclass
class ModuliCurvature:
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    min_ricci_eig: float


def moduli_curvature_arrays(g: np.ndarray, g_inv: np.ndarray, third: np.ndarray) -> ModuliCurvature:
    """Curvature of the Hessian metric from (Hess F, its inverse, F_ijk)."""
    R = (-0.25 * np.einsum("st,sik,tjl->ijkl", g_inv, third, third)
         + 0.25 * np.einsum("st,sil,tjk->ijkl", g_inv, third, third))
    dlog = np.einsum("ij,ijl->l", g_inv, third)  # d_t ln det g
    ric = (-0.25 * np.einsum("st,sik,t->ik", g_inv, third, dlog)
           + 0.25 * np.einsum("st,jl,sil,tjk->ik", g_inv, g_inv, third, third))
    scal = (-0.25 * float(dlog @ g_inv @ dlog)
            + 0.25 * float(np.einsum("st,jl,ik,sil,tjk->", g_inv, g_inv, g_inv, third, third)))
    eigs = np.linalg.eigvalsh(0.5 * (ric + ric.T))
    return ModuliCurvature(riemann=R, ricci=ric, scalar=scal, min_ricci_eig=float(eigs[0]))


def moduli_curvature(P: Potential, x) -> ModuliCurvature:
    gg = gradient_graph(P, x)
    if not gg.convex:
        raise NotConvexError(gg.min_eig)
    return moduli_curvature_arrays(gg.metric, gg.metric_inv, P.jet(x).third)


def moduli_curvature_oracle(P: Potential, x, fd_step: float = 1e-4) -> np.ndarray:
    """Intrinsic Christoffel-route curvature of the Hessian metric.

    g and dg come exactly from the order-3 jet; ddg (fourth derivatives of
    F) is obtained by central differences of exact third derivatives, so
    the oracle is exact for quartic potentials and O(fd_step^2) otherwise.
    The fourth-derivative content cancels in the curvature combination.
    """
    x = np.asarray(x, dtype=float)
    jet = P.jet(x)
    g = jet.hess
    dg = np.einsum("ijp->pij", jet.third)
    m = P.m
    shifts = fd_step * np.eye(m)
    third = evaluate_jet(P.F, np.concatenate([x + shifts, x - shifts])).third
    diff = (third[:m] - third[m:]) / (2 * fd_step)
    ddg = np.einsum("pijq->pqij", diff)  # ddg[p,q,i,j] = d_p d_q g_ij
    rm = riemann_lowered(g, dg, ddg)
    return paper_riemann_from_lowered(rm)


def moduli_ricci_from_riemann(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """g-contraction Ric_ik = g^{jl} R_jilk of the slot-ordered tensor."""
    return np.einsum("jl,jilk->ik", g_inv, riemann)
