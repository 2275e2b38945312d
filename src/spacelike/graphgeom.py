"""Per-point geometry of space-like graph submanifolds of R^{m+n}_n.

The ambient bilinear form has signature diag(+1 x m, -1 x n) in
coordinates (x; y); a graph map f: R^m -> R^n immerses via
X(x) = (x, f(x)).  For each query point this module produces the induced
metric, adapted pseudo-orthonormal frames, the second fundamental form h
with mean curvature H and squared norm S, the curvature tensors it
generates, the covariant derivative of h, a Simons-type slack report,
and the pseudo-distance function z = <X, X>.

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
from scipy.integrate import solve_ivp
from scipy.linalg import solve_triangular

from . import lattice as lat_mod
from .exprparse import parse
from .jets import evaluate_jet
from .lattice import Lattice, LatticeError

# Default tolerances: analytically exact identities, jet-vs-coordinate
# oracle comparisons, finite-difference field operations.
EXACT_TOL = 1e-9
ORACLE_TOL = 1e-6
FIELD_TOL = 1e-3
SPACELIKE_TOL = 1e-12


class NotSpacelikeError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"induced metric is not positive definite (min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


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
    def from_strings(cls, m: int, exprs, offset=None) -> "GraphMap":
        comps = tuple(parse(s, m) if isinstance(s, str) else s for s in exprs)
        off = None if offset is None else tuple(float(v) for v in offset)
        return cls(m, len(comps), comps, off)

    def with_base_point(self) -> "GraphMap":
        """Translate the ambient y-coordinates so that X(0) = 0."""
        zero = np.zeros(self.m)
        off = tuple(float(ev) for ev in (_component_values(self, zero)))
        return dataclasses.replace(self, offset=off)

    def position(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = _component_values(self, x)
        if self.offset is not None:
            vals = vals - np.asarray(self.offset)
        return np.concatenate([x, vals])

    def jet_data(self, x):
        """Values, Jacobian, Hessians and third derivatives of all components;
        a batch of points (..., m) leads each result with its shape (...)."""
        x = np.asarray(x, dtype=float)
        jets = [evaluate_jet(c, x) for c in self.components]
        vals = np.stack([j.value for j in jets], axis=-1)    # (..., n)
        if self.offset is not None:
            vals = vals - np.asarray(self.offset)
        A = np.stack([j.grad for j in jets], axis=-2)        # (..., n, m)
        He = np.stack([j.hess for j in jets], axis=-3)       # (..., n, m, m)
        Th = np.stack([j.third for j in jets], axis=-4)      # (..., n, m, m, m)
        return vals, A, He, Th


def _component_values(gm: GraphMap, x: np.ndarray) -> np.ndarray:
    from .exprparse import eval_values

    return np.array([eval_values(c, x) for c in gm.components])


def signature(m: int, n: int) -> np.ndarray:
    return np.concatenate([np.ones(m), -np.ones(n)])


# ---------------------------------------------------------------------------
# Metric and frames

@dataclass
class MetricPoint:
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    min_eig: float
    spacelike: bool


@dataclass
class Frames:
    tangent: np.ndarray        # (m, m+n) ambient rows, <e_i, e_j> = delta
    normal: np.ndarray         # (n, m+n) ambient rows, <e_s, e_t> = -delta
    tangent_coeff: np.ndarray  # e_i = sum_j tangent_coeff[i, j] * dX/dx^j
    normal_coeff: np.ndarray   # e_s = sum_t normal_coeff[s, t] * Ntilde_t


def induced_metric(gm: GraphMap, x) -> MetricPoint:
    """g_ij = delta_ij - sum_s f^s_i f^s_j, with inverse, det and min eigenvalue."""
    _, A, _, _ = gm.jet_data(x)
    return _metric_from_jacobian(A)


def _metric_from_jacobian(A: np.ndarray) -> MetricPoint:
    m = A.shape[1]
    g = np.eye(m) - A.T @ A
    eigs = np.linalg.eigvalsh(g)
    min_eig = float(eigs[0])
    spacelike = min_eig > 0.0
    if spacelike:
        g_inv = np.linalg.inv(g)
        det_g = float(np.linalg.det(g))
    else:
        g_inv = np.full_like(g, np.nan)
        det_g = float(np.linalg.det(g))
    return MetricPoint(g=g, g_inv=g_inv, det_g=det_g, min_eig=min_eig, spacelike=spacelike)


@dataclass
class ImmersionGeometry:
    """Frame-level data of a parametrized space-like immersion."""

    g: np.ndarray
    g_inv: np.ndarray
    min_eig: float
    tangent_coeff: np.ndarray
    tangent: np.ndarray
    normal_coeff: np.ndarray
    normal: np.ndarray
    h: np.ndarray        # (n, m, m)
    H: np.ndarray        # (n,)
    H_norm: float
    S: float


def immersion_geometry(J: np.ndarray, Hss: np.ndarray, sig: np.ndarray,
                       normals_raw: np.ndarray, tol: float = SPACELIKE_TOL) -> ImmersionGeometry:
    """Geometry of an immersion given first/second parameter derivatives.

    J[i] = dX/du^i (m rows of ambient vectors), Hss[i, j] = d2X/du^i du^j,
    sig the ambient signature, normals_raw a smooth basis of the normal
    space (its Gram matrix must be negative definite).
    """
    m = J.shape[0]
    g = (J * sig) @ J.T
    eigs = np.linalg.eigvalsh(g)
    min_eig = float(eigs[0])
    if min_eig <= tol:
        raise NotSpacelikeError(min_eig)
    C = np.linalg.cholesky(g)
    E = solve_triangular(C, np.eye(m), lower=True)
    tangent = E @ J
    gram_n = (normals_raw * sig) @ normals_raw.T
    D = np.linalg.cholesky(-gram_n)
    Nc = solve_triangular(D, np.eye(gram_n.shape[0]), lower=True)
    normal = Nc @ normals_raw
    # h_sij = <d2X(e_i, e_j), e_s>
    second = np.einsum("ik,klB,jl->ijB", E, Hss, E)
    h = np.einsum("B,sB,ijB->sij", sig, normal, second)
    H = np.einsum("sii->s", h) / m
    H_norm = float(np.linalg.norm(H))
    S = float(np.sum(h * h))
    return ImmersionGeometry(g=g, g_inv=np.linalg.inv(g), min_eig=min_eig,
                             tangent_coeff=E, tangent=tangent, normal_coeff=Nc,
                             normal=normal, h=h, H=H, H_norm=H_norm, S=S)


def graph_immersion_jet(gm: GraphMap, x):
    """J, Hss and the raw normal basis of the graph immersion at x."""
    _, A, He, _ = gm.jet_data(x)
    return _graph_immersion(A, He)


def _graph_immersion(A: np.ndarray, He: np.ndarray):
    n, m = A.shape
    J = np.hstack([np.eye(m), A.T])
    Hss = np.concatenate([np.zeros((m, m, m)), He.transpose(1, 2, 0)], axis=2)
    normals_raw = np.hstack([A, np.eye(n)])  # Ntilde_s = sum_i f^s_i d_i + d_{y^s}
    return J, Hss, normals_raw


def adapted_frames(gm: GraphMap, x, tol: float = SPACELIKE_TOL) -> Frames:
    """Pseudo-orthonormal tangent/normal frames from triangular factorizations."""
    J, Hss, normals_raw = graph_immersion_jet(gm, x)
    sig = signature(gm.m, gm.n)
    geo = immersion_geometry(J, Hss, sig, normals_raw, tol=tol)
    return Frames(tangent=geo.tangent, normal=geo.normal,
                  tangent_coeff=geo.tangent_coeff, normal_coeff=geo.normal_coeff)


# ---------------------------------------------------------------------------
# Second fundamental form, curvature

@dataclass
class PointGeometry:
    m: int
    n: int
    h: np.ndarray
    H: np.ndarray
    H_norm: float
    S: float
    riemann: np.ndarray = None      # frame components R_ijkl
    ricci: np.ndarray = None        # R_ij = R_kikj
    normal_curv: np.ndarray = None  # R_stij
    h_cov: np.ndarray = None        # h_sijk


def fundamental_forms(gm: GraphMap, x) -> PointGeometry:
    """Second fundamental form h, mean curvature H and S = |h|^2 at x."""
    J, Hss, normals_raw = graph_immersion_jet(gm, x)
    geo = immersion_geometry(J, Hss, signature(gm.m, gm.n), normals_raw)
    return PointGeometry(m=gm.m, n=gm.n, h=geo.h, H=geo.H, H_norm=geo.H_norm, S=geo.S)


def extremal_residual(gm: GraphMap, x) -> np.ndarray:
    """Coordinate-form extremality residual: sum_ij g^{ij} d2f^s/dx^i dx^j.

    Vanishes exactly where the frame-based mean curvature vanishes; the
    two routes cross-validate each other.
    """
    _, A, He, _ = gm.jet_data(x)
    mp = _metric_from_jacobian(A)
    if not mp.spacelike:
        raise NotSpacelikeError(mp.min_eig)
    return np.einsum("ij,sij->s", mp.g_inv, He)


def riemann_from_h(h: np.ndarray) -> np.ndarray:
    """Gauss relation for a flat pseudo-Euclidean ambient: R_ijkl from h."""
    return -(np.einsum("sik,sjl->ijkl", h, h) - np.einsum("sil,sjk->ijkl", h, h))


def ricci_from_h(h: np.ndarray) -> np.ndarray:
    tr = np.einsum("skk->s", h)
    return -(np.einsum("s,sij->ij", tr, h) - np.einsum("ski,skj->ij", h, h))


def normal_curvature_from_h(h: np.ndarray) -> np.ndarray:
    return np.einsum("ski,tkj->stij", h, h) - np.einsum("skj,tki->stij", h, h)


def curvature(gm: GraphMap, x) -> PointGeometry:
    """Riemann, Ricci and normal-bundle curvature in the adapted frame."""
    pg = fundamental_forms(gm, x)
    pg.riemann = riemann_from_h(pg.h)
    pg.ricci = ricci_from_h(pg.h)
    pg.normal_curv = normal_curvature_from_h(pg.h)
    return pg


def ricci_bound_check(gm: GraphMap, x) -> float:
    """Smallest Ricci eigenvalue minus the lower bound -m^2 |H|^2 / 4.

    Nonnegative (up to rounding) for every space-like graph with the
    frame conventions used here; violations indicate implementation bugs.
    """
    pg = curvature(gm, x)
    lam_min = float(np.linalg.eigvalsh(pg.ricci)[0])
    return lam_min - (-(gm.m**2) * pg.H_norm**2 / 4.0)


# ---------------------------------------------------------------------------
# Coordinate-Christoffel curvature oracle.  Independent of the frame/h
# route: works from g, dg, ddg alone, so agreement pins the h sign.

def christoffel(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij from the metric and its first derivatives dg[p,i,j] = d_p g_ij."""
    g_inv = np.linalg.inv(g)
    term = 0.5 * (np.einsum("ijl->ijl", dg)        # d_i g_jl
                  + np.einsum("jil->ijl", dg)      # d_j g_il
                  - np.einsum("lij->ijl", dg))     # d_l g_ij
    return np.einsum("kl,ijl->kij", g_inv, term)


def riemann_lowered(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Rm[i,j,k,l] = <R(d_i, d_j) d_k, d_l> from metric derivatives.

    dg[p,i,j] = d_p g_ij and ddg[p,q,i,j] = d_p d_q g_ij.
    """
    g_inv = np.linalg.inv(g)
    gamma = christoffel(g, dg)
    dg_inv = -np.einsum("ka,pab,bl->pkl", g_inv, dg, g_inv)
    # d_p Gamma via product rule on Gamma^k_ij = g^{kl} T_ijl
    T = 0.5 * (np.einsum("ijl->ijl", dg)
               + np.einsum("jil->ijl", dg)
               - np.einsum("lij->ijl", dg))
    dT = 0.5 * (np.einsum("pijl->pijl", ddg)      # d_p d_i g_jl
                + np.einsum("pjil->pijl", ddg)    # d_p d_j g_il
                - np.einsum("plij->pijl", ddg))   # d_p d_l g_ij
    dgamma = np.einsum("pkl,ijl->pkij", dg_inv, T) + np.einsum("kl,pijl->pkij", g_inv, dT)
    # R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_ip Gamma^p_jk - Gamma^l_jp Gamma^p_ik
    r_up = (np.einsum("iljk->lkij", dgamma)
            - np.einsum("jlik->lkij", dgamma)
            + np.einsum("lip,pjk->lkij", gamma, gamma)
            - np.einsum("ljp,pik->lkij", gamma, gamma))
    # Rm(d_i, d_j, d_k, d_l) = g_{l'l} R^{l'}_kij
    return np.einsum("al,akij->ijkl", g, r_up)


def paper_riemann_from_lowered(rm: np.ndarray) -> np.ndarray:
    """Slot order used throughout this package: R_ijkl = Rm(i, j, l, k)."""
    return rm.transpose(0, 1, 3, 2)


def graph_metric_derivs(gm: GraphMap, x):
    """Exact (g, dg, ddg) of the induced metric via third-order jets."""
    _, A, He, Th = gm.jet_data(x)
    m = gm.m
    g = np.eye(m) - A.T @ A
    # d_p g_ij = -sum_s (f^s_ip f^s_j + f^s_i f^s_jp)
    dg = -(np.einsum("sip,sj->pij", He, A) + np.einsum("si,sjp->pij", A, He))
    # d_p d_q g_ij
    ddg = -(np.einsum("sipq,sj->pqij", Th, A)
            + np.einsum("sip,sjq->pqij", He, He)
            + np.einsum("siq,sjp->pqij", He, He)
            + np.einsum("si,sjpq->pqij", A, Th))
    return g, dg, ddg


def frame_riemann_oracle(gm: GraphMap, x) -> np.ndarray:
    """Intrinsic curvature of g, transformed to the adapted tangent frame.

    Entirely independent of the second fundamental form; used to
    cross-check the Gauss-relation route.
    """
    g, dg, ddg = graph_metric_derivs(gm, x)
    rm = riemann_lowered(g, dg, ddg)
    paper = paper_riemann_from_lowered(rm)
    fr = adapted_frames(gm, x)
    E = fr.tangent_coeff
    return np.einsum("ai,bj,ck,dl,ijkl->abcd", E, E, E, E, paper)


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
    """d_p(L^-1) for G = L L^T, given L^-1 and the stack dG[p] = d_p G.

    Forward-mode Cholesky rule d_p L = L Phi(L^-1 dG_p L^-T), Phi keeping
    the lower triangle and halving the diagonal (Murray 2016,
    arXiv:1602.07527); hence d_p(L^-1) = -Phi(L^-1 dG_p L^-T) L^-1.
    """
    X = Linv @ dG @ Linv.T
    phi = np.tril(X) - 0.5 * X * np.eye(Linv.shape[0])
    return -phi @ Linv


def covariant_h(gm: GraphMap, x) -> CovariantH:
    """h_sijk from the structure-equation recipe, with a Codazzi symmetry report."""
    m, n = gm.m, gm.n
    _, A, He, Th = gm.jet_data(x)
    J, Hss, normals_raw = _graph_immersion(A, He)
    sig = signature(m, n)
    geo = immersion_geometry(J, Hss, sig, normals_raw)
    E, Nc = geo.tangent_coeff, geo.normal_coeff

    # first derivatives d_p along the coordinates, stacked on a leading p axis
    dA = He.transpose(2, 0, 1)                                  # d_p A, (m, n, m)
    dAt = dA.transpose(0, 2, 1)
    dE = _d_inv_cholesky(E, -(dAt @ A + A.T @ dA))              # g = I - A^T A
    dNc = _d_inv_cholesky(Nc, -(dA @ A.T + A @ dAt))            # I - A A^T
    dtan = np.concatenate([dE, dE @ A.T + E @ dAt], axis=2)     # rows E [I, A^T]
    dnor = np.concatenate([dNc @ A + Nc @ dA, dNc], axis=2)     # rows Nc [A, I]
    # h_sij = -sum_t Nc[s, t] (E He^t E^T)_ij
    EHE = E @ He @ E.T
    dEHE = (dE[:, None] @ He @ E.T + E @ Th.transpose(3, 0, 1, 2) @ E.T
            + E @ He @ dE[:, None].transpose(0, 1, 3, 2))
    dh = -(np.einsum("pst,tij->psij", dNc, EHE) + np.einsum("st,ptij->psij", Nc, dEHE))

    # directional derivatives along frame vectors: e_k = sum_p E[k,p] d/dx^p
    d_tan_along = np.einsum("kp,piB->kiB", E, dtan)
    d_nor_along = np.einsum("kp,psB->ksB", E, dnor)
    dh_along = np.einsum("kp,psij->ksij", E, dh)

    # connection coefficients w_AB(e_k) = <D_{e_k} e_A, e_B>
    w_tt = np.einsum("kiB,B,jB->kij", d_tan_along, sig, geo.tangent)   # w_ij(e_k)
    w_nn = np.einsum("ksB,B,tB->kst", d_nor_along, sig, geo.normal)    # w_st(e_k)

    h0 = geo.h
    h_cov = (dh_along.transpose(1, 2, 3, 0)
             + np.einsum("slj,kli->sijk", h0, w_tt)
             + np.einsum("sil,klj->sijk", h0, w_tt)
             - np.einsum("tij,kts->sijk", h0, w_nn))
    asym = float(np.max(np.abs(h_cov - h_cov.transpose(0, 1, 3, 2))))
    dh_mean = np.einsum("siik->sk", h_cov) / m
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


def pseudo_distance(gm: GraphMap, x, base_tol: float = 1e-9) -> PseudoDistancePoint:
    origin = gm.position(np.zeros(gm.m))
    if np.linalg.norm(origin) > base_tol:
        raise BasePointError(
            "base point is not on the graph: X(0) != 0 and no offset configured; "
            "use GraphMap.with_base_point()"
        )
    J, Hss, normals_raw = graph_immersion_jet(gm, x)
    sig = signature(gm.m, gm.n)
    geo = immersion_geometry(J, Hss, sig, normals_raw)
    X = gm.position(x)
    z = float(np.dot(X * sig, X))
    grad = 2.0 * geo.tangent @ (sig * X)
    Xe = geo.normal @ (sig * X)
    hess = 2.0 * (np.eye(gm.m) - np.einsum("s,sij->ij", Xe, geo.h))
    lap = 2.0 * gm.m - 2.0 * gm.m * float(np.dot(Xe, geo.H))
    grad_norm = float(np.linalg.norm(grad))
    return PseudoDistancePoint(z=z, grad=grad, grad_norm=grad_norm, hess=hess,
                               lap=lap, ratio=grad_norm / (z + 1.0))


# ---------------------------------------------------------------------------
# Geodesics of the induced metric (exact Christoffels from jets)

def integrate_geodesic(gm: GraphMap, x0, v0, t_span, *, unit_speed: bool = True,
                       region_halfwidth: float = np.inf, rtol: float = 1e-10,
                       atol: float = 1e-12, dense: bool = True):
    """Integrate x'' + Gamma(x)(x', x') = 0 from x(0)=x0, x'(0)=v0.

    v0 is rescaled to unit length in the induced metric when unit_speed is
    set.  Integration stops early if the path leaves the coordinate box
    |x_i| <= region_halfwidth.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    m = gm.m
    if unit_speed:
        g0, _, _ = graph_metric_derivs(gm, x0)
        v0 = v0 / np.sqrt(v0 @ g0 @ v0)

    def rhs(t, y):
        x, v = y[:m], y[m:]
        g, dg, _ = graph_metric_derivs_order2(gm, x)
        gamma = christoffel(g, dg)
        acc = -np.einsum("kij,i,j->k", gamma, v, v)
        return np.concatenate([v, acc])

    events = None
    if np.isfinite(region_halfwidth):
        def exit_event(t, y):
            return region_halfwidth - np.max(np.abs(y[:m]))
        exit_event.terminal = True
        events = exit_event

    sol = solve_ivp(rhs, t_span, np.concatenate([x0, v0]), rtol=rtol, atol=atol,
                    dense_output=dense, events=events)
    return sol


def graph_metric_derivs_order2(gm: GraphMap, x):
    """(g, dg) only; cheaper than the full third-order pull when ddg is unused."""
    _, A, He, _ = gm.jet_data(x)
    g = np.eye(gm.m) - A.T @ A
    dg = -(np.einsum("sip,sj->pij", He, A) + np.einsum("si,sjp->pij", A, He))
    return g, dg, None


# ---------------------------------------------------------------------------
# Simons-type slack on a lattice

@dataclass
class SimonsReport:
    points: np.ndarray      # interior nodes used, (k, m)
    slack: np.ndarray       # (k,)
    min_slack: float
    dh_max: float           # max |DH| over the nodes (parallel-H diagnostic)
    s_values: np.ndarray


def simons_report(gm: GraphMap, lattice: Lattice, stride: int = 1) -> SimonsReport:
    """Pointwise slack of the Simons-type inequality
    (1/2) Lap S >= sum h_sijk^2 - m |H| S^{3/2} + S^2 / n
    with Lap S from second-order central differences of the S field and
    everything else exact from jets.  Meaningful for maps with parallel
    mean curvature; dh_max reports how far DH is from zero.

    stride > 1 evaluates the slack on every stride-th interior node per
    axis (the S field itself always uses the full lattice resolution, on
    the +-1 cubes of those nodes).
    """
    if any(s < 5 for s in lattice.shape):
        raise LatticeError("simons_report needs at least 5 nodes per axis")
    m, n = gm.m, gm.n
    pts = lat_mod.node_points(lattice)
    chosen = lat_mod.interior_mask(lattice)
    if stride > 1:
        chosen = chosen & np.all(np.indices(lattice.shape) % stride == 0, axis=0)
    # interior nodes have their whole +-1 cube active and inside the lattice
    cube = [lat_mod.flat_offset(lattice, off) for off in itertools.product((-1, 0, 1), repeat=m)]
    s_nodes = np.unique(np.flatnonzero(chosen)[:, None] + cube)

    s_field = np.full(pts.shape[0], np.nan)
    for flat in s_nodes:
        try:
            s_field[flat] = fundamental_forms(gm, pts[flat]).S
        except NotSpacelikeError:
            pass
    ready = chosen & lat_mod.cube_all(np.isfinite(s_field).reshape(lattice.shape), 1)
    flats = np.flatnonzero(ready)
    if not flats.size:
        raise LatticeError("no interior nodes with a full space-like neighborhood")
    grad_s = lat_mod.central_gradient(s_field, lattice, flats)
    hess_s = lat_mod.central_hessian(s_field, lattice, flats)

    slack = np.zeros(flats.size)
    s_values = np.zeros(flats.size)
    dh_max = 0.0
    for k, flat in enumerate(flats):
        x = pts[flat]
        g, dg, _ = graph_metric_derivs_order2(gm, x)
        g_inv = np.linalg.inv(g)
        gamma = christoffel(g, dg)
        lap_s = float(np.einsum("ij,ij->", g_inv, hess_s[k])
                      - np.einsum("ij,kij,k->", g_inv, gamma, grad_s[k]))
        pg = fundamental_forms(gm, x)
        ch = covariant_h(gm, x)
        dh_max = max(dh_max, float(np.linalg.norm(ch.mean_curv_deriv)))
        rhs = float(np.sum(ch.h_cov**2)) - m * pg.H_norm * pg.S**1.5 + pg.S**2 / n
        slack[k] = 0.5 * lap_s - rhs
        s_values[k] = pg.S
    return SimonsReport(points=pts[flats], slack=slack, min_slack=float(slack.min()),
                        dh_max=dh_max, s_values=s_values)
