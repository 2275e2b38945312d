"""Geometry of space-like graph submanifolds of R^{m+n}_n, in one batched pass.

The ambient bilinear form has signature diag(+1 x m, -1 x n) in
coordinates (x; y); a graph map f: R^m -> R^n immerses via
X(x) = (x, f(x)).  ``graph_geometry`` evaluates the jets of all components
in one pass for a batch of points (k, m) (``GraphMap.jet_rows``, through
``jets.jet_stack``: the coefficients go straight into (k, n, m, ...) arrays
under one failure record, which is built only when a point fails) and
builds on them, with a leading batch axis throughout (``...`` in the
einsums, numpy's stacked eigvalsh, cholesky, inv and det): the induced
metric, adapted pseudo-orthonormal frames, the second fundamental form h
with mean curvature H and squared norm S.  Nothing in the pass raises:
each point's first failure, out of the jets' domain, not space-like, or
with an S or |H| that overflows, is in its record (``Geometry.fails``).

The per-point functions (induced_metric, fundamental_forms for the frames
and h, curvature, ricci_bound_check, extremal_residual, frame_riemann_oracle,
covariant_h, pseudo_distance) are views of that pass.  Each takes a point
(m,) or a batch (k, m): a point runs as a batch of one and gets back its
row; a batch gets the batched record, or the exception of its first
failing point, which is what that point raises on its own.  The module also gives the
Simons-type slack report over a lattice and unit-speed geodesics of the
induced metric (a batch of directions as one ODE), both on the graph's
closed-form Christoffel symbols Gamma_{l,ij} = -sum_s f^s_l f^s_ij.

``riemann_from_metric`` is the curvature oracle independent of h: the
Riemann tensor of any metric from (g, dg, ddg) through its coordinate
Christoffel symbols, in this package's slot order.  ``frame_riemann_oracle``
feeds it the graph metric and the Lagrangian moduli oracle a Hessian metric.

Sign convention: h_sij = <d2X(e_i, e_j), e_s> under the ambient form.
This is the unique global sign for which the Hessian identity
Hess z = 2(delta_ij - <X, e_s> h_sij) holds and the Gauss relation
R_ijkl = -(h_sik h_sjl - h_sil h_sjk) reproduces the intrinsic curvature
of the induced metric (both are tested).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import lattice as lat_mod
from .exprparse import DomainError, eval_values, parse
from .failures import DEGENERATE, DOMAIN, INDEFINITE, Failures, NotSpacelikeError
from .jets import jet_stack
from .lattice import Lattice, LatticeError

SPACELIKE_TOL = 1e-12  # frames and h need the metric's smallest eigenvalue above this
OVERFLOW = "non-finite metric (overflow)"  # the DomainError of a point whose metric overflows


class BasePointError(ValueError):
    pass


@dataclass(frozen=True)
class GraphMap:
    """Graph immersion X(x) = (x, f(x) - offset) with f given by n ASTs."""

    m: int
    n: int
    components: tuple
    offset: tuple = None  # subtracted from f so that X(0) = 0 when configured

    @classmethod
    def from_strings(cls, m: int, exprs) -> "GraphMap":
        comps = tuple(parse(s, m) if isinstance(s, str) else s for s in exprs)
        return cls(m, len(comps), comps)

    def with_base_point(self) -> "GraphMap":
        """Translate the ambient y-coordinates so that X(0) = 0."""
        zero = np.zeros(self.m)
        off = tuple(float(eval_values(c, zero)) for c in self.components)
        return dataclasses.replace(self, offset=off)

    def jet_data(self, x, order: int = 3):
        """Values f(x) - offset, Jacobian, Hessians and third derivatives of
        all components, None above ``order``; a batch of points (..., m)
        leads each result with its shape (...).  Raises the DomainError of
        the first failing point."""
        *data, fails = self.jet_rows(x, order)
        fails.raise_first()
        return tuple(data)

    def jet_rows(self, x, order: int = 3):
        """``jet_data`` without raising, plus the failure record of the
        points: the first component's failure, else the next one's."""
        # values (..., n), Jacobian (..., n, m), Hessians (..., n, m, m), third (..., n, m, m, m)
        (vals, *derivs), fails = jet_stack(self.components, x, order)
        if self.offset is not None:
            vals -= np.asarray(self.offset)
        return (vals, *derivs, *[None] * (3 - order), fails)


def signature(m: int, n: int) -> np.ndarray:
    return np.concatenate([np.ones(m), -np.ones(n)])


# ---------------------------------------------------------------------------
# The batched pass: jets -> metric -> frames -> h

@dataclass
class Geometry:
    """Geometry of an immersion at a batch of points, every field led by the
    batch axis; the per-point functions return one row, with floats and
    bools for the per-point scalars.

    g_inv is nan where the metric is not positive definite, and the frames
    and h are nan where its smallest eigenvalue is at most the space-like
    tolerance.  ``fails`` records each point's first failure: for a graph a
    failing jet (the values and jets of such a point are 0), then a metric
    or normal Gram matrix that overflows (a DomainError), then a metric
    that is not positive definite (INDEFINITE) or whose smallest eigenvalue
    is at most the tolerance (DEGENERATE).  For a graph, X, A, He and Th
    hold the positions and jets of f the pass was built on; Th is None for
    a pass of order 2.
    """

    g: np.ndarray
    g_inv: np.ndarray
    det_g: np.ndarray
    min_eig: np.ndarray
    spacelike: np.ndarray
    tangent_coeff: np.ndarray  # e_i = sum_j tangent_coeff[i, j] * dX/dx^j
    tangent: np.ndarray        # (m, m+n) ambient rows, <e_i, e_j> = delta
    normal_coeff: np.ndarray   # e_s = sum_t normal_coeff[s, t] * Ntilde_t
    normal: np.ndarray         # (n, m+n) ambient rows, <e_s, e_t> = -delta
    h: np.ndarray              # (n, m, m)
    H: np.ndarray              # (n,)
    H_norm: np.ndarray
    S: np.ndarray
    fails: Failures = None
    X: np.ndarray = None            # (m+n,) position (x, f(x) - offset)
    A: np.ndarray = None            # (n, m) Jacobian of f
    He: np.ndarray = None           # (n, m, m) Hessians of f
    Th: np.ndarray = None           # (n, m, m, m) third derivatives of f
    riemann: np.ndarray = None      # frame components R_ijkl
    ricci: np.ndarray = None        # R_ij = R_kikj
    normal_curv: np.ndarray = None  # R_stij


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _take(v, idx):
    """Rows ``idx`` of a batched result, field by field for a record (and a
    record inside it); the entries of a single row that are 0-d become
    Python scalars, and what is not an array is kept as it is."""
    if dataclasses.is_dataclass(v):
        return dataclasses.replace(v, **{
            f.name: _take(getattr(v, f.name), idx) for f in dataclasses.fields(v)})
    if not isinstance(v, np.ndarray):
        return v
    v = v[idx]
    return v.item() if isinstance(v, np.generic) else v


def _filled(size: int, rows, values) -> np.ndarray:
    """A node column: ``values`` on the nodes ``rows`` (an index or mask), nan elsewhere."""
    out = np.full(size, np.nan)
    out[rows] = values
    return out


def _view(x, value, fails: Failures = None):
    """What a per-point function returns at ``x``, a point (m,) or a batch
    (k, m): the error of the first failing point of ``fails``, else
    ``value`` (batched) for a batch and its one row for a point."""
    if fails is not None:
        fails.raise_first()
    return _take(value, 0) if np.ndim(x) == 1 else value


def _metric_inverse(g: np.ndarray):
    """Smallest eigenvalue of each symmetric matrix of the stack g (nan where
    the matrix is not finite), the mask where it is positive, and the
    inverse there (nan elsewhere)."""
    eye = np.eye(g.shape[-1])
    finite = np.isfinite(g).all(axis=(-2, -1))
    # LAPACK's eigvalsh fails on a non-finite matrix of size 3 and more
    min_eig = np.linalg.eigvalsh(np.where(finite[..., None, None], g, eye))[..., 0]
    min_eig[~finite] = np.nan
    definite = min_eig > 0.0
    g_inv = np.linalg.inv(np.where(definite[..., None, None], g, eye))
    g_inv[~definite] = np.nan
    return min_eig, definite, g_inv


@np.errstate(over="ignore", invalid="ignore")
def immersion_geometry(J: np.ndarray, Hss: np.ndarray, sig: np.ndarray,
                       normals_raw: np.ndarray) -> Geometry:
    """Geometry of an immersion at a batch of points, given first/second
    parameter derivatives.

    J[..., i, :] = dX/du^i (m rows of ambient vectors), Hss[..., i, j, :] =
    d2X/du^i du^j, sig the ambient signature, normals_raw[..., s, :] a smooth
    basis of the normal space (its Gram matrix must be negative definite).
    Points whose metric has smallest eigenvalue <= SPACELIKE_TOL get nan
    frames and h.  A point whose metric or normal Gram matrix is not finite
    fails with a DomainError and gets nan or inf in the rest, without a
    numpy warning; so does, after the other checks, a point whose S or |H|
    overflows.
    """
    m, n = J.shape[-2], normals_raw.shape[-2]
    g = (J * sig) @ _swap(J)
    gram_n = (normals_raw * sig) @ _swap(normals_raw)
    finite = np.isfinite(g).all(axis=(-2, -1)) & np.isfinite(gram_n).all(axis=(-2, -1))
    min_eig, spacelike, g_inv = _metric_inverse(g)
    ok = min_eig > SPACELIKE_TOL
    # triangular inverses by numpy's batched inv (np.tril drops its rounding
    # above the diagonal); points that are not space-like factor I, then nan
    E = np.tril(np.linalg.inv(np.linalg.cholesky(np.where(ok[..., None, None], g, np.eye(m)))))
    Nc = np.tril(np.linalg.inv(np.linalg.cholesky(
        np.where(ok[..., None, None], -gram_n, np.eye(n)))))
    E[~ok], Nc[~ok] = np.nan, np.nan
    tangent, normal = E @ J, Nc @ normals_raw
    # h_sij = <d2X(e_i, e_j), e_s>
    second = np.einsum("...ik,...klB,...jl->...ijB", E, Hss, E)
    h = np.einsum("B,...sB,...ijB->...sij", sig, normal, second)
    H = np.einsum("...sii->...s", h) / m
    H_norm, S = np.linalg.norm(H, axis=-1), np.sum(h * h, axis=(-3, -2, -1))
    return Geometry(g=g, g_inv=g_inv, det_g=np.linalg.det(g), min_eig=min_eig,
                    spacelike=spacelike, tangent_coeff=E, tangent=tangent, normal_coeff=Nc,
                    normal=normal, h=h, H=H, H_norm=H_norm, S=S,
                    fails=Failures.clean(min_eig.shape).add(~finite, DomainError(OVERFLOW))
                    .add(~spacelike, INDEFINITE, min_eig).add(~ok, DEGENERATE, min_eig)
                    .add(~(np.isfinite(S) & np.isfinite(H_norm)), DomainError(OVERFLOW)))


def _graph_immersion(A: np.ndarray, He: np.ndarray):
    """J, Hss and the raw normal basis of a graph with Jacobians A (..., n, m)
    and Hessians He (..., n, m, m)."""
    (n, m), batch = A.shape[-2:], A.shape[:-2]
    J = np.concatenate([np.broadcast_to(np.eye(m), batch + (m, m)), _swap(A)], axis=-1)
    Hss = np.concatenate([np.zeros(batch + (m, m, m)), np.moveaxis(He, -3, -1)], axis=-1)
    # Ntilde_s = sum_i f^s_i d_i + d_{y^s}
    normals_raw = np.concatenate([A, np.broadcast_to(np.eye(n), batch + (n, n))], axis=-1)
    return J, Hss, normals_raw


def graph_geometry(gm: GraphMap, x, order: int = 3) -> Geometry:
    """The one batched pass of a graph at a point (m,) or points (k, m):
    the jets of all components to ``order`` (2 or 3; the third derivatives
    serve only covariant h and the curvature oracle), then metric, frames
    and h, always with a leading batch axis.  Nothing is raised: a point
    whose jets fail has the geometry of zero jets, and its DomainError comes
    first in ``fails``."""
    if order not in (2, 3):
        raise ValueError(f"the geometry pass needs jets of order 2 or 3, not {order!r}")
    pts = np.asarray(x, dtype=float).reshape(-1, gm.m)
    vals, A, He, Th, fails = gm.jet_rows(pts, order)
    J, Hss, normals_raw = _graph_immersion(A, He)
    geo = immersion_geometry(J, Hss, signature(gm.m, gm.n), normals_raw)
    geo.fails, geo.X, geo.A, geo.He, geo.Th = (fails.then(geo.fails),
                                               np.concatenate([pts, vals], -1), A, He, Th)
    return geo


def induced_metric(gm: GraphMap, x) -> Geometry:
    """g_ij = delta_ij - sum_s f^s_i f^s_j, with inverse, det and min
    eigenvalue; raises only a DomainError."""
    geo = graph_geometry(gm, x, 2)
    geo.fails.raise_first(DOMAIN)
    return _view(x, geo)


# ---------------------------------------------------------------------------
# Frames and second fundamental form, curvature

def fundamental_forms(gm: GraphMap, x) -> Geometry:
    """Pseudo-orthonormal tangent/normal frames from triangular factorizations,
    second fundamental form h, mean curvature H and S = |h|^2 at x."""
    geo = graph_geometry(gm, x, 2)
    return _view(x, geo, geo.fails)


def extremal_residual(gm: GraphMap, x) -> np.ndarray:
    """Coordinate-form extremality residual: sum_ij g^{ij} d2f^s/dx^i dx^j.

    Vanishes exactly where the frame-based mean curvature vanishes; the
    two routes cross-validate each other.  Needs g positive definite only.
    """
    geo = graph_geometry(gm, x, 2)
    geo.fails.raise_first(INDEFINITE)
    return _view(x, _extremal_residual(geo))


def _extremal_residual(geo: Geometry) -> np.ndarray:
    return np.einsum("...ij,...sij->...s", geo.g_inv, geo.He)


@np.errstate(over="ignore", invalid="ignore")
def _with_curvature(geo: Geometry) -> Geometry:
    """Gauss relation for a flat pseudo-Euclidean ambient: curvature from h."""
    h = geo.h
    geo.riemann = -(np.einsum("...sik,...sjl->...ijkl", h, h)
                    - np.einsum("...sil,...sjk->...ijkl", h, h))
    tr = np.einsum("...skk->...s", h)
    geo.ricci = -(np.einsum("...s,...sij->...ij", tr, h) - np.einsum("...ski,...skj->...ij", h, h))
    geo.normal_curv = (np.einsum("...ski,...tkj->...stij", h, h)
                       - np.einsum("...skj,...tki->...stij", h, h))
    return geo


def curvature(gm: GraphMap, x) -> Geometry:
    """Riemann, Ricci and normal-bundle curvature in the adapted frame."""
    geo = graph_geometry(gm, x, 2)
    return _view(x, _with_curvature(geo), geo.fails)


def _ricci_margin(geo: Geometry, m: int) -> np.ndarray:
    return np.linalg.eigvalsh(geo.ricci)[..., 0] - (-(m**2) * geo.H_norm**2 / 4.0)


def ricci_bound_check(gm: GraphMap, x) -> float:
    """Smallest Ricci eigenvalue minus the lower bound -m^2 |H|^2 / 4.

    Nonnegative (up to rounding) for every space-like graph with the
    frame conventions used here; violations indicate implementation bugs.
    """
    geo = graph_geometry(gm, x, 2)
    geo.fails.raise_first()
    return _view(x, _ricci_margin(_with_curvature(geo), gm.m))


# ---------------------------------------------------------------------------
# Coordinate-Christoffel curvature oracle.  Independent of the frame/h
# route: works from g, dg, ddg alone, so agreement pins the h sign.

def riemann_from_metric(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """R_ijkl = Rm(d_i, d_j, d_l, d_k), the slot order of this package, with
    Rm(d_i, d_j, d_k, d_l) = <R(d_i, d_j) d_k, d_l>, from the metric and its
    derivatives dg[p,i,j] = d_p g_ij and ddg[p,q,i,j] = d_p d_q g_ij (leading
    batch axes broadcast).  g^-1 and the Christoffel symbols
    Gamma^k_ij = g^{kl} T_ijl are formed once.
    """
    g_inv = np.linalg.inv(g)
    T = 0.5 * (np.einsum("...ijl->...ijl", dg)         # d_i g_jl
               + np.einsum("...jil->...ijl", dg)       # d_j g_il
               - np.einsum("...lij->...ijl", dg))      # d_l g_ij
    gamma = np.einsum("...kl,...ijl->...kij", g_inv, T)
    dg_inv = -np.einsum("...ka,...pab,...bl->...pkl", g_inv, dg, g_inv)
    # d_p Gamma via product rule on Gamma^k_ij = g^{kl} T_ijl
    dT = 0.5 * (np.einsum("...pijl->...pijl", ddg)      # d_p d_i g_jl
                + np.einsum("...pjil->...pijl", ddg)    # d_p d_j g_il
                - np.einsum("...plij->...pijl", ddg))   # d_p d_l g_ij
    dgamma = (np.einsum("...pkl,...ijl->...pkij", dg_inv, T)
              + np.einsum("...kl,...pijl->...pkij", g_inv, dT))
    # R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_ip Gamma^p_jk - Gamma^l_jp Gamma^p_ik
    r_up = (np.einsum("...iljk->...lkij", dgamma)
            - np.einsum("...jlik->...lkij", dgamma)
            + np.einsum("...lip,...pjk->...lkij", gamma, gamma)
            - np.einsum("...ljp,...pik->...lkij", gamma, gamma))
    # Rm(d_i, d_j, d_k, d_l) = g_{l'l} R^{l'}_kij, then slots k and l swapped
    return _swap(np.einsum("...al,...akij->...ijkl", g, r_up))


def _third(geo: Geometry) -> np.ndarray:
    """The third derivatives of f from an order-3 pass; a lower-order pass
    has none, and reading zeros in their place would be wrong."""
    if geo.Th is None:
        raise ValueError("this needs third derivatives: build the geometry pass at order 3")
    return geo.Th


def _metric_derivs(A: np.ndarray, He: np.ndarray, Th: np.ndarray):
    g = np.eye(A.shape[-1]) - _swap(A) @ A
    # d_p g_ij = -sum_s (f^s_ip f^s_j + f^s_i f^s_jp)
    dg = -(np.einsum("...sip,...sj->...pij", He, A) + np.einsum("...si,...sjp->...pij", A, He))
    # d_p d_q g_ij
    ddg = -(np.einsum("...sipq,...sj->...pqij", Th, A)
            + np.einsum("...sip,...sjq->...pqij", He, He)
            + np.einsum("...siq,...sjp->...pqij", He, He)
            + np.einsum("...si,...sjpq->...pqij", A, Th))
    return g, dg, ddg


def frame_riemann_oracle(gm: GraphMap, x) -> np.ndarray:
    """Intrinsic curvature of g, transformed to the adapted tangent frame.

    Entirely independent of the second fundamental form; used to
    cross-check the Gauss-relation route.
    """
    geo = graph_geometry(gm, x)
    geo.fails.raise_first()
    R = riemann_from_metric(*_metric_derivs(geo.A, geo.He, _third(geo)))
    E = geo.tangent_coeff
    return _view(x, np.einsum("...ai,...bj,...ck,...dl,...ijkl->...abcd", E, E, E, E, R))


def first_bianchi_residual(riemann: np.ndarray) -> float:
    res = riemann + riemann.transpose(0, 2, 3, 1) + riemann.transpose(0, 3, 1, 2)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# Covariant derivative of h via exact first-order jet propagation through
# the frame construction (no finite differencing of frames).

@dataclass
class CovariantH:
    h_cov: np.ndarray            # (n, m, m, m), h_sijk
    codazzi_asym: float          # max |h_sijk - h_sikj|
    mean_curv_deriv: np.ndarray  # (n, m), DH components (1/m) sum_i h_siik


def _d_inv_cholesky(Linv: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """d_p(L^-1) for G = L L^T, given L^-1 and the stack dG[..., p, :, :] = d_p G.

    Forward-mode Cholesky rule d_p L = L Phi(L^-1 dG_p L^-T), Phi keeping
    the lower triangle and halving the diagonal (Murray 2016,
    arXiv:1602.07527); hence d_p(L^-1) = -Phi(L^-1 dG_p L^-T) L^-1.
    """
    Linv = Linv[..., None, :, :]
    X = Linv @ dG @ _swap(Linv)
    phi = np.tril(X) - 0.5 * X * np.eye(X.shape[-1])
    return -phi @ Linv


def covariant_h(gm: GraphMap, x) -> CovariantH:
    """h_sijk from the structure-equation recipe, with a Codazzi symmetry report."""
    geo = graph_geometry(gm, x)
    return _view(x, _covariant_h(geo, signature(gm.m, gm.n)), geo.fails)


def _covariant_h(geo: Geometry, sig: np.ndarray) -> CovariantH:
    A, He, Th = geo.A, geo.He, _third(geo)
    E, Nc = geo.tangent_coeff, geo.normal_coeff
    m = A.shape[-1]
    # first derivatives d_p along the coordinates, on an axis p after the batch
    P = (slice(None), None)                                     # insert the p axis
    At = _swap(A)
    dA = np.moveaxis(He, -1, -3)                                # d_p A, (k, m, n, m)
    dAt = _swap(dA)
    dE = _d_inv_cholesky(E, -(dAt @ A[P] + At[P] @ dA))         # g = I - A^T A
    dNc = _d_inv_cholesky(Nc, -(dA @ At[P] + A[P] @ dAt))       # I - A A^T
    dtan = np.concatenate([dE, dE @ At[P] + E[P] @ dAt], axis=-1)     # rows E [I, A^T]
    dnor = np.concatenate([dNc @ A[P] + Nc[P] @ dA, dNc], axis=-1)    # rows Nc [A, I]
    # h_sij = -sum_t Nc[s, t] (E He^t E^T)_ij
    Et = _swap(E)[:, None, None]
    EHE = E[P] @ He @ _swap(E)[P]
    dEHE = (dE[:, :, None] @ He[P] @ Et + E[:, None, None] @ np.moveaxis(Th, -1, 1) @ Et
            + E[:, None, None] @ He[P] @ _swap(dE)[:, :, None])
    dh = -(np.einsum("...pst,...tij->...psij", dNc, EHE)
           + np.einsum("...st,...ptij->...psij", Nc, dEHE))

    # directional derivatives along frame vectors: e_k = sum_p E[k,p] d/dx^p
    d_tan_along = np.einsum("...kp,...piB->...kiB", E, dtan)
    d_nor_along = np.einsum("...kp,...psB->...ksB", E, dnor)
    dh_along = np.einsum("...kp,...psij->...ksij", E, dh)

    # connection coefficients w_AB(e_k) = <D_{e_k} e_A, e_B>
    w_tt = np.einsum("...kiB,B,...jB->...kij", d_tan_along, sig, geo.tangent)   # w_ij(e_k)
    w_nn = np.einsum("...ksB,B,...tB->...kst", d_nor_along, sig, geo.normal)    # w_st(e_k)

    h0 = geo.h
    h_cov = (np.moveaxis(dh_along, -4, -1)
             + np.einsum("...slj,...kli->...sijk", h0, w_tt)
             + np.einsum("...sil,...klj->...sijk", h0, w_tt)
             - np.einsum("...tij,...kts->...sijk", h0, w_nn))
    asym = np.max(np.abs(h_cov - _swap(h_cov)), axis=(-4, -3, -2, -1))
    dh_mean = np.einsum("...siik->...sk", h_cov) / m
    return CovariantH(h_cov=h_cov, codazzi_asym=asym, mean_curv_deriv=dh_mean)


# ---------------------------------------------------------------------------
# Pseudo-distance z = <X, X>

@dataclass
class PseudoDistancePoint:
    z: float
    grad: np.ndarray      # frame components z_i = 2 <X, e_i>
    grad_norm: float
    hess: np.ndarray      # 2(delta_ij - <X, e_s> h_sij)
    lap: float            # 2m - 2m <X, e_s> H_s
    ratio: float          # |grad z| / (z + 1)


def pseudo_distance(gm: GraphMap, x) -> PseudoDistancePoint:
    _check_base_point(gm)
    geo = graph_geometry(gm, x, 2)
    geo.fails.raise_first()
    return _view(x, _pseudo_distance(geo, signature(gm.m, gm.n)))


def _check_base_point(gm: GraphMap) -> None:
    if np.linalg.norm(np.subtract(gm.with_base_point().offset, gm.offset or 0.0)) > 1e-9:
        raise BasePointError(
            "base point is not on the graph: X(0) != 0 and no offset configured; "
            "use GraphMap.with_base_point()"
        )


def _pseudo_distance(geo: Geometry, sig: np.ndarray) -> PseudoDistancePoint:
    """z and its derivatives at the points of a graph's geometry pass."""
    m = geo.h.shape[-1]
    sX = sig * geo.X
    z = np.einsum("...B,...B->...", sX, geo.X)
    grad = 2.0 * np.einsum("...iB,...B->...i", geo.tangent, sX)
    Xe = np.einsum("...sB,...B->...s", geo.normal, sX)
    hess = 2.0 * (np.eye(m) - np.einsum("...s,...sij->...ij", Xe, geo.h))
    lap = 2.0 * m - 2.0 * m * np.einsum("...s,...s->...", Xe, geo.H)
    grad_norm = np.linalg.norm(grad, axis=-1)
    return PseudoDistancePoint(z=z, grad=grad, grad_norm=grad_norm, hess=hess,
                               lap=lap, ratio=grad_norm / (z + 1.0))


# ---------------------------------------------------------------------------
# Geodesics of the induced metric, a batch of directions as one ODE

GEODESIC_RTOL, GEODESIC_ATOL = 1e-10, 1e-12  # DOP853 tolerances of integrate_geodesic


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: only the
    geodesic path needs scipy.integrate, which is slow to import."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _spacelike_metric(gm: GraphMap, x: np.ndarray) -> np.ndarray:
    """The induced metric I - A^T A at points x (k, m) from an order-1 jet.
    Raises DomainError(OVERFLOW) if it is not finite at some point, else
    NotSpacelikeError (the batch's smallest eigenvalue) if it is not
    positive definite at some point."""
    _, A, _, _ = gm.jet_data(x, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.eye(gm.m) - _swap(A) @ A
    if not np.all(np.isfinite(g)):
        raise DomainError(OVERFLOW)
    min_eig = np.linalg.eigvalsh(g)[:, 0]
    if not np.all(min_eig > 0.0):
        raise NotSpacelikeError(float(np.min(min_eig)))
    return g


@dataclass
class GeodesicBatch:
    """The geodesics of ``integrate_geodesic``.  A direction runs in the
    solve_ivp segments up to its own end; ``state`` stitches its dense
    output from theirs and holds its end state after ``t_end``."""

    t_end: np.ndarray    # (k,) each direction's end time
    t_events: list       # per direction its exit time, or an empty array
    message: str         # the message of the last solve_ivp call
    pieces: list         # per direction (segment end, OdeSolution, its rows of that segment's state)

    def state(self, j: int, t):
        """Position and velocity (2m, ...) of direction j at times t."""
        t = np.minimum(t, self.t_end[j])
        flat = np.ravel(t)
        out = np.empty((len(self.pieces[j][0][2]), flat.size))  # its 2m state rows
        # piece p covers (end of piece p - 1, its own end]
        which = np.searchsorted([end for end, _, _ in self.pieces[j]], flat)
        for p in np.unique(which):
            _, dense, rows = self.pieces[j][p]
            out[:, which == p] = dense(flat[which == p])[rows]
        return out.reshape(out.shape[:1] + np.shape(t))


def integrate_geodesic(gm: GraphMap, x0, v0, t_span, *,
                       region_halfwidth: float = np.inf) -> GeodesicBatch:
    """Unit-speed geodesics from k starts x0, v0 ((k, m) each, or (m,) for
    one start or a shared x0) as one ODE, by DOP853, over t_span = (t0, t1),
    finite with t0 < t1; each v0, finite and nonzero, is normalised in g at
    x0, which must be finite and positive definite.  As
    Gamma_{l,ij} = -sum_s f^s_l f^s_ij, x'' = g^-1 A^T q with
    q_s = v^T He^s v: one (k, m) jet per right-hand side.

    A direction ends where it leaves the box |x_i| <= region_halfwidth
    (> 0), which must hold x0: its exit event is terminal, and solve_ivp
    restarts at that time on the directions still inside, from their states
    there.  Without an exit the run is one solve_ivp call.  If a call
    fails, every direction in it ends at the failure time.
    """
    if not region_halfwidth > 0.0:
        raise ValueError(f"region_halfwidth must be positive, got {region_halfwidth}")
    t, t_stop = t_span
    if not (np.isfinite(t) and np.isfinite(t_stop) and t < t_stop):
        raise ValueError(f"t_span must be finite and increasing, got {tuple(t_span)}")
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    if not (np.all(np.isfinite(v0)) and np.all(np.any(v0 != 0.0, axis=-1))):
        raise ValueError("each v0 must be finite and nonzero")
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), v0.shape)
    if not np.all(np.abs(x0) <= region_halfwidth):
        raise ValueError(f"x0 must lie in the box |x_i| <= region_halfwidth = {region_halfwidth}")
    k, m = v0.shape
    g = _spacelike_metric(gm, x0)
    v0 = v0 / np.sqrt(np.einsum("ki,kij,kj->k", v0, g, v0))[:, None]

    eye = np.eye(m)

    def rhs(t, y):
        x, v = y.reshape(2, -1, m)
        _, A, He, _ = gm.jet_data(x, 2)
        q = np.einsum("ksij,ki,kj->ks", He, v, v)
        acc = np.linalg.solve(eye - _swap(A) @ A, _swap(A) @ q[..., None])[..., 0]
        return np.concatenate([v, acc], axis=None)

    def exit_event(r):
        def event(t, y):
            return region_halfwidth - np.max(np.abs(y[r * m:(r + 1) * m]))
        event.terminal, event.direction = True, -1
        return event

    run, state = np.arange(k), np.stack([x0, v0])          # state (2, running, m)
    t_end = np.empty(k)
    t_events, pieces = [np.empty(0)] * k, [[] for _ in range(k)]
    while run.size:
        events = [exit_event(r) for r in range(run.size)] if np.isfinite(region_halfwidth) else None
        sol = solve_ivp(rhs, (t, t_stop), state.ravel(), method="DOP853", rtol=GEODESIC_RTOL,
                        atol=GEODESIC_ATOL, dense_output=True, events=events)
        t, state = sol.t[-1], sol.y[:, -1].reshape(2, run.size, m)
        rows = np.arange(2 * run.size * m).reshape(2, run.size, m)
        for r, j in enumerate(run):
            pieces[j].append((t, sol.sol, rows[:, r].ravel()))
        left = np.zeros(run.size, dtype=bool)
        if sol.status == 1:                                # a terminal exit event fired
            left[:] = [len(te) > 0 for te in sol.t_events]
        done = left | (sol.status != 1 or t == t_stop)
        t_end[run[done]] = t
        for j in run[left]:
            t_events[j] = np.array([t])
        run, state = run[~done], state[:, ~done]
    return GeodesicBatch(t_end=t_end, t_events=t_events, message=sol.message, pieces=pieces)


# ---------------------------------------------------------------------------
# Simons-type slack on a lattice

@dataclass
class SimonsReport:
    points: np.ndarray      # interior nodes used, (k, m)
    slack: np.ndarray       # (k,)
    min_slack: float
    dh_max: float           # max |DH| over the nodes (parallel-H diagnostic)
    s_values: np.ndarray


def simons_report(gm: GraphMap, lattice: Lattice) -> SimonsReport:
    """Pointwise slack of the Simons-type inequality
    (1/2) Lap S >= sum h_sijk^2 - m |H| S^{3/2} + S^2 / n
    with Lap S from second-order central differences of the S field and
    everything else exact from jets.  Meaningful for maps with parallel
    mean curvature; dh_max reports how far DH is from zero.
    """
    if any(s < 5 for s in lattice.shape):
        raise LatticeError("simons_report needs at least 5 nodes per axis")
    m, n = gm.m, gm.n
    pts = lat_mod.node_points(lattice)
    interior = lat_mod.interior_mask(lattice)
    # interior nodes have their whole +-1 cube active and inside the lattice
    cube = [lat_mod.flat_offset(lattice, off) for off in itertools.product((-1, 0, 1), repeat=m)]
    s_nodes = np.unique(np.flatnonzero(interior)[:, None] + cube)

    # one pass over the S nodes; the slack nodes are among them
    geo = graph_geometry(gm, pts[s_nodes])
    geo.fails.raise_first(DOMAIN)  # a node that is not space-like has no S
    s_field = np.full(pts.shape[0], np.nan)
    s_field[s_nodes] = geo.S
    ready = interior & lat_mod.cube_all(np.isfinite(s_field).reshape(lattice.shape), 1)
    flats = np.flatnonzero(ready)
    if not flats.size:
        raise LatticeError("no interior nodes with a full space-like neighborhood")
    grad_s = lat_mod.central_gradient(s_field, lattice, flats)
    hess_s = lat_mod.central_hessian(s_field, lattice, flats)

    geo = _take(geo, np.searchsorted(s_nodes, flats))
    # Laplace-Beltrami: g^ij (d_ij S - Gamma^k_ij d_k S), and for a graph
    # g^ij Gamma^k_ij = -(g^-1 A^T eps)^k with eps the extremal residual
    drift = np.einsum("...kl,...sl,...s->...k", geo.g_inv, geo.A, _extremal_residual(geo))
    lap_s = (np.einsum("...ij,...ij->...", geo.g_inv, hess_s)
             + np.einsum("...k,...k->...", drift, grad_s))
    ch = _covariant_h(geo, signature(m, n))
    dh_max = max(0.0, float(np.sqrt(np.sum(ch.mean_curv_deriv**2, axis=(-2, -1))).max()))
    rhs = (np.sum(ch.h_cov**2, axis=(-4, -3, -2, -1))
           - m * geo.H_norm * geo.S**1.5 + geo.S**2 / n)
    slack = 0.5 * lap_s - rhs
    return SimonsReport(points=pts[flats], slack=slack, min_slack=float(slack.min()),
                        dh_max=dh_max, s_values=geo.S)
