"""The pseudo-Grassmannian of space-like m-planes in R^{m+n}_n.

A space-like m-plane is charted by its slope matrix A (n x m): the plane
spanned by the columns of [I_m; A], with sigma_max(A) < 1.  The space is
a noncompact symmetric space; its invariant metric in the slope chart is

    ds^2 = tr[(I - A^T A)^{-1} dA^T (I - A A^T)^{-1} dA].

Geodesic distance works in Cholesky frames, the pseudo-orthonormal frames
that the geometry pass builds (``graphgeom._graph_form``): the plane A has tangent frame
[I; A] L_M^-T and normal frame [A^T; I] L_N^-T, with I - A^T A = L_M L_M^T
and I - A A^T = L_N L_N^T.  The boost between the frames of planes A and B
has the normal-tangent block L_N(B)^-1 (B - A) L_M(A)^-T, up to sign; its
singular values are sinh theta_i of the hyperbolic principal angles, the
exact analogue of principal angles in the compact picture, and the
distance is |theta|.  Other frames turn that block by orthogonal factors
only, so the angles do not depend on the choice; read as sinh, an angle
keeps its relative accuracy near the null cone, where tanh theta rounds
towards 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprparse import DomainError
from .failures import DOMAIN, INDEFINITE, OK, PLANE, STATUS, Failures
from .graphgeom import (
    SPACELIKE_TOL, Geometry, GraphMap, NotSpacelikeError, _extremal_residual, _filled,
    _plane_metric, _points, _ricci, _ricci_margin, _swap, _take, _tangent_metric, _view,
    _z_gradient, graph_geometry, signature,
)
from .jets import jet_stack


@dataclass(frozen=True)
class SpacelikePlane:
    """A plane, or a batch of planes, by its slope (..., n, m)."""

    slope: np.ndarray  # (..., n, m)

    def __post_init__(self):
        object.__setattr__(self, "slope", np.atleast_2d(np.asarray(self.slope, dtype=float)))


def gauss_map(gm: GraphMap, x) -> SpacelikePlane:
    """Tangent plane of the graph at a point x (m,), or the planes at a batch
    of points (k, m)."""
    return _view(x, *_gauss_map(gm, _points(x, gm.m)))


def _gauss_map(gm: GraphMap, pts: np.ndarray):
    """The tangent planes at points (..., m) and their failure record, that
    of ``graphgeom._tangent_metric``: a DomainError of the jets, then the
    one definiteness test of the plane's metric I - A^T A."""
    A, _, fails = _tangent_metric(gm, pts)
    return SpacelikePlane(A), fails


def _plane_in_pass(gm: GraphMap, geo: Geometry, row: int, x: np.ndarray):
    """The tangent plane at the point x (m,), which is row ``row`` of the
    order-2 pass ``geo``, and the smallest eigenvalue of its metric
    I - A^T A; raises what ``gauss_map(gm, x)`` raises.  A row whose first
    failure in the pass is DOMAIN, where the Hessians may fail or overflow
    and the plane still exist, gets its order-1 jet on its own."""
    if geo.fails.code[row] == DOMAIN:
        (_, A), fails = jet_stack(gm.components, x[None], 1)
    else:
        A, fails = geo.A[row][None], Failures.clean(1)
    _, min_eig = _plane_metric(A, INDEFINITE, fails)
    fails.raise_first()
    return SpacelikePlane(A), min_eig


def distance(P: SpacelikePlane, Q: SpacelikePlane):
    """Geodesic distance between two space-like planes; batches of planes
    broadcast against each other and give an array of distances."""
    d, fails = _distances(P, Q)
    fails.raise_first()
    return float(d) if d.ndim == 0 else d


def _distances(P: SpacelikePlane, Q: SpacelikePlane):
    """Distances of (batches of) planes, nan for a pair that fails, and the
    failure record of the pairs: ``_definite`` (PLANE) on the metric
    I - A^T A of P, then of Q, then that metric's smallest eigenvalue at most
    SPACELIKE_TOL on P, then on Q, the margin the frames need."""
    A, B = P.slope, Q.slope
    fails = Failures.clean(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]))
    g, min_eig = zip(*(_plane_metric(S, PLANE, fails) for S in (A, B)))
    for e in min_eig:
        fails.add(~(e > SPACELIKE_TOL), PLANE, e)
    # a plane that fails is replaced by the base plane, which factors
    keep = [(e > SPACELIKE_TOL)[..., None, None] for e in min_eig]
    A, B = np.where(keep[0], A, 0.0), np.where(keep[1], B, 0.0)
    L_M = np.linalg.cholesky(np.where(keep[0], g[0], np.eye(A.shape[-1])))
    L_N = np.linalg.cholesky(np.eye(B.shape[-2]) - B @ _swap(B))
    # sinh theta: singular values of L_N(B)^-1 (B - A) L_M(A)^-T (see above)
    sinh = np.linalg.svd(np.linalg.solve(L_M, _swap(np.linalg.solve(L_N, B - A))), compute_uv=False)
    d = np.sqrt(np.sum(np.arcsinh(sinh) ** 2, axis=-1))
    return np.where(fails.code == OK, d, np.nan), fails


def hyperbolic_distance_n1(P: SpacelikePlane, Q: SpacelikePlane) -> float:
    """Independent oracle for n = 1: planes correspond to unit time-like
    normals in the hyperboloid model and d = arccosh |<nu_P, nu_Q>|."""
    a, b = P.slope.ravel(), Q.slope.ravel()
    na = np.concatenate([a, [1.0]]) / np.sqrt(1.0 - a @ a)
    nb = np.concatenate([b, [1.0]]) / np.sqrt(1.0 - b @ b)
    inner = na[:-1] @ nb[:-1] - na[-1] * nb[-1]
    return float(np.arccosh(max(1.0, abs(inner))))


# ---------------------------------------------------------------------------
# Gauss-map pullback: finite-difference stretch vs the second fundamental form

@dataclass
class PullbackReport:
    stretch_formula: float        # (sum_{s,i} (h_sij v_j)^2)^{1/2}
    stretch_fd: float             # Richardson-extrapolated difference quotient
    rel_error: float
    quotients: np.ndarray         # raw quotients per rung, coarse to fine


# Difference-quotient steps of the pullback check, coarse to fine; the
# Richardson step uses the last two, the first shows the convergence.
PULLBACK_STEPS = (1e-2, 5e-3, 2.5e-3)


def pullback_check(gm: GraphMap, x, direction) -> PullbackReport:
    """Compare the Gauss-map stretch along a unit frame direction with the
    second-fundamental-form prediction, at a point (m,) or a batch (k, m).

    ``direction`` is either a tangent frame index or an m-vector of frame
    components (normalized internally).
    """
    v = np.eye(gm.m)[int(direction)] if np.isscalar(direction) else np.asarray(direction, float)
    rep, _, fails = _pullback(gm, x, v[None] / np.linalg.norm(v))
    return _view(x, _take(rep, np.s_[:, 0]), fails)


def pullback_trace(gm: GraphMap, x):
    """Sum of squared stretches over a full tangent frame; equals S."""
    rep, geo, fails = _pullback(gm, x, np.eye(gm.m))
    return _view(x, np.sum(rep.stretch_fd**2, axis=1), fails), _view(x, geo.S)


def _pullback(gm: GraphMap, x, V: np.ndarray):
    """The pullback report along the unit frame directions V (d, m) at a
    point or batch x, its fields led by (k, d); the geometry at the points;
    and the failure record of the points: the geometry's, then the first
    failing rung's Gauss map, then the first failing rung's distance.  One
    geometry pass at the points gives the frames, h and the Gauss map there,
    and one jet pass gives the Gauss map at every rung of every direction."""
    pts = _points(x, gm.m)
    k, m = pts.shape
    geo = graph_geometry(gm, pts, 2)
    # coordinate displacement of each unit frame vector (0 where there is no frame)
    coord_step = np.nan_to_num(V @ geo.tangent_coeff)
    steps = np.array(PULLBACK_STEPS)
    rungs = pts[:, None, None] + steps[:, None] * coord_step[:, :, None]
    plane, rung_fails = _gauss_map(gm, rungs.reshape(k, -1, m))
    d, d_fails = _distances(SpacelikePlane(geo.A[:, None]), plane)
    quotients = d.reshape(k, len(V), len(steps)) / steps
    extrap = 2.0 * quotients[..., -1] - quotients[..., -2]
    formula = np.sqrt(np.sum(np.einsum("ksij,dj->kdsi", geo.h, V) ** 2, axis=(2, 3)))
    rel = np.abs(extrap - formula) / np.maximum(1.0, formula)
    return (PullbackReport(stretch_formula=formula, stretch_fd=extrap, rel_error=rel,
                           quotients=quotients), geo,
            geo.fails.then(rung_fails.first_along(1)).then(d_fails.first_along(1)))


def max_modulus(gm: GraphMap, samples, ref: SpacelikePlane) -> float:
    """Largest Gauss-map distance to ``ref`` over the sample points.

    A lower bound for the true supremum over the sampled region.
    """
    samples = np.asarray(list(samples), dtype=float)
    if not samples.size:
        raise ValueError("max_modulus needs a nonempty sample list")
    plane, fails = _gauss_map(gm, _points(samples, gm.m))
    d, d_fails = _distances(plane, ref)
    fails.then(d_fails).raise_first()
    return float(np.max(d))


# ---------------------------------------------------------------------------
# Node table of a graph, in the lowest module that sees the Gauss map

def graph_node_table(gm: GraphMap, pts: np.ndarray,
                     active: np.ndarray) -> tuple[np.ndarray, dict, list]:
    """Status and named columns of the graph at the nodes ``pts`` (k, m),
    and notes on the columns that could not be computed.

    One batched order-2 pass over the ``active`` nodes and, as extra rows
    after them, the base point of ``gauss_dist`` and the origin (one row
    when they coincide); each stage runs on the nodes that passed the
    earlier ones, a node's status is its first failure, and a column is nan
    where a node does not reach it.  ``gauss_dist`` is to the tangent plane
    over the origin, or over the centre of the nodes' box when the origin is
    outside it (nan where that plane is not space-like, or within
    SPACELIKE_TOL of it); ``z`` and ``grad_ratio`` are of the
    pseudo-distance from X(0), whose offset is the origin row's value.  An
    extra row whose first failure is a DomainError (its Hessians may fail or
    overflow where the plane and the value exist) is evaluated on its own,
    as ``gauss_map`` and ``GraphMap.with_base_point`` do.
    Where that plane is undefined or not space-like, or X(0) is undefined
    (f leaves its domain there), the columns built on it are nan at every
    node and a note says why.
    """
    k, m, notes = pts.shape[0], gm.m, []
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    base = np.zeros(m) if np.all(lo <= 0) and np.all(hi >= 0) else 0.5 * (lo + hi)
    nodes = np.flatnonzero(active)
    extra = [base, np.zeros(m)] if base.any() else [base]
    # positions of f itself: X(0) is subtracted from them below
    geo = graph_geometry(GraphMap(m, gm.n, gm.components), np.vstack([pts[nodes], *extra]), 2)
    try:
        ref, min_eig = _plane_in_pass(gm, geo, nodes.size, base)
        if not min_eig[0] > SPACELIKE_TOL:  # so near the null cone it has no distances
            raise NotSpacelikeError(float(min_eig[0]))
    except (NotSpacelikeError, DomainError) as err:
        ref = None
        why = "undefined" if isinstance(err, DomainError) else "not space-like"
        notes.append(f"gauss_dist is nan, as the tangent plane at x = {base.tolist()} "
                     f"is {why}: {err}")
    try:  # the origin is the last row
        origin_failed = geo.fails.code[-1] == DOMAIN
        offset = gm.with_base_point().offset if origin_failed else geo.X[-1, m:].copy()
    except DomainError as err:  # positions, and so z, are nan everywhere
        offset = np.nan
        notes.append(f"z and grad_ratio are nan, as X(0) is undefined: {err}")
    geo = _take(geo, np.s_[:nodes.size])  # the nodes' rows
    geo.X[:, m:] -= offset
    fails, measured = geo.fails, geo.fails.code != DOMAIN
    framed = fails.code == OK
    on = nodes[framed]
    H_norm = geo.H_norm[framed]
    gauss_dist = np.full(on.size, np.nan)
    if ref is not None:
        gauss_dist, d_fails = _distances(SpacelikePlane(geo.A[framed]), ref)
        fails.then(d_fails, framed)
    done = fails.code == OK
    z, _, _, ratio = _z_gradient(geo.X[done], geo.tangent[done], signature(m, gm.n))
    residual = _extremal_residual(geo.g_inv[framed], geo.He[framed])

    status = np.full(k, "inactive", dtype=object)
    status[nodes] = STATUS[fails.code]
    return status, {
        "min_eig": _filled(k, nodes[measured], geo.min_eig[measured]),
        "det_g": _filled(k, nodes[measured], geo.det_g[measured]),
        "H_norm": _filled(k, on, H_norm),
        "S": _filled(k, on, geo.S[framed]),
        "ricci_margin": _filled(k, on, _ricci_margin(_ricci(geo.h[framed]), H_norm, m)),
        "extremal_residual": _filled(k, on, np.linalg.norm(residual, axis=-1)),
        "gauss_dist": _filled(k, on, gauss_dist),
        "z": _filled(k, nodes[done], z),
        "grad_ratio": _filled(k, nodes[done], ratio),
    }, notes
