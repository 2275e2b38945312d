"""Damped-Newton lattice solvers for the maximal space-like hypersurface
equation and the Monge-Ampere equation, with Dirichlet data.

The maximal equation is discretized in divergence form
div(grad f / sqrt(1 - |grad f|^2)) = 0 with conservative face fluxes
(second order), on the lattice-shaped array: per axis d, whole-grid
slices give the faces (k, k+1) along d at transverse indices 1..n-2, the
only faces an interior node touches.  The same face pass gives the
largest face |grad f|^2 of the space-like safeguard, checked before any
flux is formed.  A continuation parameter lam scales |grad f|^2 inside
the square root: lam = 0 is the Laplace equation (used as the initial
stage), lam = 1 the full equation.  Each accepted Newton step must keep
every face speed below 1 - delta_safe.

The Monge-Ampere residual is det(discrete Hessian) - c with compact
central stencils; a boundary-data homotopy theta starts from the exactly
solvable quadratic matching c, and backtracking preserves discrete
convexity.  Its residual and its safeguard (the smallest eigenvalue of
the discrete Hessians) come from one central_hessian.

Each solver hands Newton one callable per stage, trial(u_int): the
residual at a trial iterate, from the same pass as the safeguard, or None
where the safeguard refuses it.  A stage's start is tried the same way,
and Newton starts from the residual that trial formed.

Continuation is Euler-Newton predictor-corrector: each stage after the
first starts from u + (param' - param) du/dparam.  For the maximal
equation du/dlam is the tangent J du/dlam = -dR/dlam, solved with the LU
of the stage's last Jacobian, which may be that of an earlier iterate than
the stage's solution (dR/dlam in closed form, from the face fluxes); for
Monge-Ampere it is F - quad at the interior nodes, the boundary data
extended by its expression.  A predicted start that fails the safeguard
(space-like cap, convexity), a callable boundary and an F undefined in
the interior fall back to the previous stage's values; a stage that fails
is retried at half the step (the adaptive ladder).  ConvergenceLog.events records the
predictions, fallbacks and rejected stages.

Jacobians are exact and in closed form: each solver differentiates its
stencil (the face fluxes in their normal and tangential differences; the
determinant through the cofactors of the discrete Hessian, written out
for m = 2 only) into a (3^m, K) array whose entry [o, alpha] is the
derivative of node alpha's residual in the value at alpha + offset o of
the +-1 cube.  That array is gathered straight into a CSC pattern fixed
per lattice, in a geometric nested-dissection order of the interior
nodes, and factored with splu in that order; at most one factorization
is alive at a time.  A box's dissection order depends only on its
shape, so it is built once per shape over the interior nodes' bounding
box; the pattern is one sort per column of a (K, 3^m) neighbour table.  Newton runs as the chord
method (Shamanskii's variant): before a new Jacobian is built, full
steps on the last LU are kept while each passes the safeguard and
shrinks the residual to CHORD_CONTRACTION of it or to tol.  The tail
then converges linearly, at that rate or faster, with fewer
factorizations; max_iter bounds the Jacobians built, and the log marks
each step as "newton" or "chord".  A residual or Jacobian that is not
finite (an overflowing gradient or Hessian) ends the solve with
DomainError(OVERFLOW) before splu sees it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice as lat_mod
from .exprparse import DomainError, Expr, eval_values
from .graphgeom import OVERFLOW, _graph_immersion, immersion_geometry, signature
from .lattice import Lattice, LatticeError

# A chord step (a full step on the last LU) is kept if the safeguard passes
# it and it shrinks the residual to at most this fraction of it, or to tol.
CHORD_CONTRACTION = 0.1

# save_field writes a JSON field file's values this many at a time, so that
# its memory does not grow with the field.
_JSON_CHUNK = 4096


class SolverError(RuntimeError):
    pass


@dataclass
class GridField:
    lattice: Lattice
    values: np.ndarray  # full grid, np.nan on inactive nodes


@dataclass
class ConvergenceLog:
    steps: list = field(default_factory=list)  # (stage, iteration, residual, damping, kind)
    events: list = field(default_factory=list)  # (stage, kind, detail)
    final_residual: float = np.nan

    def record(self, stage, iteration, residual, damping, kind):
        """kind: "start" (the iterate a Newton solve starts from), "newton"
        (a damped step on a Jacobian built and factored for it) or "chord"
        (a full step on the last LU, with no new Jacobian)."""
        self.steps.append((float(stage), int(iteration), float(residual), float(damping), kind))

    def event(self, stage, kind, detail=""):
        """kind: "predicted" (a stage starts from its prediction),
        "fallback" (it starts from the previous stage's values; detail says
        why) or "rejected" (a stage attempt failed; detail is the error)."""
        self.events.append((float(stage), kind, detail))


def _boundary_values(lattice: Lattice, boundary) -> np.ndarray:
    pts = lat_mod.node_points(lattice)
    bmask = lat_mod.boundary_mask(lattice).ravel()
    vals = np.full(pts.shape[0], np.nan)
    where = np.flatnonzero(bmask)
    if isinstance(boundary, Expr):
        vals[where] = eval_values(boundary, pts[where])
    else:
        vals[where] = np.asarray(boundary(pts[where]), dtype=float)
    return vals


# ---------------------------------------------------------------------------
# Precomputed index machinery

def _nested_dissection(multi: np.ndarray) -> np.ndarray:
    """Geometric nested dissection of lattice multi-indices (K, m): the
    permutation (new -> old) that orders every box as its lower half, its
    upper half, then the plane between them in flat order, bisecting the
    longest axis until a box spans at most two nodes per axis (a leaf, in
    flat order).  The Jacobians couple a node only to its +-1 cube, so a
    one-node plane separates the halves.  A box's order depends only on
    its shape, so it is built once per shape, over the bounding box of the
    nodes, and the nodes are kept in that order."""
    orders = {}

    def box_order(shape):
        """Flat (C-order) indices of a box of this shape, in its order."""
        if shape not in orders:
            ids = np.arange(math.prod(shape)).reshape(shape)
            n = max(shape)
            if n < 3:
                orders[shape] = ids.ravel()
            else:
                d, mid = shape.index(n), (n - 1) // 2
                at = (slice(None),) * d
                halves = [ids[at + (part,)] for part in (slice(None, mid), slice(mid + 1, None))]
                orders[shape] = np.concatenate([half.ravel()[box_order(half.shape)] for half in halves]
                                               + [ids[at + (mid,)].ravel()])
        return orders[shape]

    lo = multi.min(axis=0)
    shape = tuple(int(n) for n in multi.max(axis=0) - lo + 1)
    node = np.full(math.prod(shape), -1)
    node[np.ravel_multi_index((multi - lo).T, shape)] = np.arange(multi.shape[0])
    order = box_order(shape)
    # free the memo first: the permutation outlives this call, and if it were
    # allocated above the memo's arrays it would keep their pages resident
    orders.clear()
    perm = node[order]
    return perm[perm >= 0]


class _Ops:
    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        m = lattice.m
        self.m = m
        self.h = np.array(lattice.spacing)
        grid = lat_mod.interior_mask(lattice)
        self.int_flat = np.flatnonzero(grid)
        self.K = self.int_flat.size
        if self.K == 0:
            raise LatticeError("lattice has no interior nodes")
        self.int_id = np.full(grid.size, -1, dtype=int)
        self.int_id[self.int_flat] = np.arange(self.K)
        shape = lattice.shape

        multi = np.array(np.unravel_index(self.int_flat, shape)).T  # (K, m)

        # the Jacobian's CSC pattern in nested-dissection order: entry
        # (alpha, beta) for each interior pair within a +-1 cube (an interior
        # node's cube lies inside the lattice), stored as P J P^T; its value
        # is entry [o, alpha] of the (3^m, K) stencil Jacobian, o the index
        # of beta - alpha in the +-1 cube, read at the flat index jac_entries.
        # Column beta's rows are the nodes beta - offset o: one sort per
        # column of a (K, 3^m) table of keys row * 3^m + o, in column order
        self.perm = _nested_dissection(multi)
        rank = np.full(self.K + 1, self.K)  # rank[-1] = K: no node, sorted last
        rank[self.perm] = np.arange(self.K)
        cube = np.array(list(itertools.product((-1, 0, 1), repeat=m))) @ lat_mod.strides(lattice)
        key = rank[self.int_id[self.int_flat[self.perm, None] - cube]] * 3**m + np.arange(3**m)
        row, offset = np.divmod(np.sort(key, axis=1), 3**m)
        held = row < self.K
        self.jac_indices = row[held]
        self.jac_entries = offset[held] * self.K + self.perm[self.jac_indices]
        self.jac_indptr = np.concatenate([[0], np.cumsum(held.sum(axis=1))])

        # per axis d, the lower and upper end nodes of the flux faces (k, k+1)
        # along d at transverse indices 1..n-2, and the idle faces, which
        # touch no interior node: their psq is zeroed, so that a steep face
        # between two boundary nodes never reaches the sqrt
        inner = (slice(1, -1),) * m
        self.ends = [(inner[:d] + (slice(None, -1),) + inner[d + 1:],
                      inner[:d] + (slice(1, None),) + inner[d + 1:]) for d in range(m)]
        self.idle = [~(grid[lo] | grid[hi]) for lo, hi in self.ends]

        # the index of an offset v in the +-1 cube, in the order of
        # itertools.product((-1, 0, 1), repeat=m), is centre + v . cube
        self.centre, self.cube = (3**m - 1) // 2, 3 ** np.arange(m - 1, -1, -1)


def _full_from_interior(ops: _Ops, bvals: np.ndarray, u_int: np.ndarray) -> np.ndarray:
    u = np.array(bvals, dtype=u_int.dtype)
    u[ops.int_flat] = u_int
    return u


def _faces(ops: _Ops, u_full: np.ndarray):
    """Per axis d, the normal difference pd, the tangential derivatives
    [(t, pt)] and the squared gradient psq on the axis-d faces (see _Ops);
    pt is the mean of the two end nodes' central differences along t."""
    u = u_full.reshape(ops.lattice.shape)
    # central differences along t, at the nodes 1..n-2 along t (faces read no others)
    central = np.zeros((ops.m,) + u.shape, dtype=u.dtype)
    for t in range(ops.m):
        along = (slice(None),) * t
        central[t][along + (slice(1, -1),)] = (
            u[along + (slice(2, None),)] - u[along + (slice(None, -2),)]) / (2 * ops.h[t])
    for d, (lo, hi) in enumerate(ops.ends):
        pd = (u[hi] - u[lo]) / ops.h[d]
        psq = pd * pd
        pt = [(t, 0.5 * (central[t][lo] + central[t][hi])) for t in range(ops.m) if t != d]
        for _, p in pt:
            psq = psq + p * p
        psq[ops.idle[d]] = 0.0
        yield pd, pt, psq


def _face_sum(ops: _Ops, fluxes, dtype) -> np.ndarray:
    """Flux out through each node's upper faces minus flux in through its
    lower faces, at the interior nodes, from one flux array per axis."""
    res = np.zeros(ops.lattice.shape, dtype=dtype)
    for (lo, hi), phi in zip(ops.ends, fluxes):
        res[lo] += phi
        res[hi] -= phi
    return res.ravel()[ops.int_flat]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a non-finite residual
def _maximal_residual(ops: _Ops, u_full: np.ndarray, lam, cap: float | None = None):
    """The face fluxes phi = pd / sqrt(1 - lam psq) / h, summed per node.
    Given a cap, the space-like safeguard comes first, from the same face
    pass: for lam > 0, None (and no flux formed) unless lam times the
    largest face psq is at most cap; an overflow, inf or nan, passes no cap."""
    faces = list(_faces(ops, u_full))
    if cap is not None and lam != 0:
        if not lam * np.max([np.max(psq, initial=0.0) for _, _, psq in faces]) <= cap:
            return None
    return _face_sum(ops, (pd / np.sqrt(1.0 - lam * psq) / h
                           for (pd, _, psq), h in zip(faces, ops.h)), u_full.dtype)


@np.errstate(over="ignore", invalid="ignore")
def _maximal_dlam(ops: _Ops, u_full: np.ndarray, lam: float) -> np.ndarray:
    """dR/dlam, from the face fluxes' dphi/dlam = pd psq (1 - lam psq)^(-3/2) / (2 h)."""
    return _face_sum(ops, (pd * psq * (1.0 - lam * psq) ** -1.5 / (2 * h)
                           for (pd, _, psq), h in zip(_faces(ops, u_full), ops.h)), float)


@np.errstate(over="ignore", invalid="ignore")
def _maximal_jacobian(ops: _Ops, u_full: np.ndarray, lam: float) -> np.ndarray:
    """dR/du as a (3^m, K) array: entry [o, alpha] is the derivative of
    node alpha's residual in the value at alpha + offset o (see _Ops).
    The flux of the face from a to a + e_d has, with q = 1 - lam psq,
    dphi/dpd = (q + lam pd^2) q^(-3/2) / h_d and
    dphi/dpt = lam pd pt q^(-3/2) / h_d; pd reads a and a + e_d, pt reads
    a +- e_t and a + e_d +- e_t with weights +-1 / (4 h_t).  The flux
    enters a's residual with + and a + e_d's with -."""
    c, cube = ops.centre, ops.cube
    jac = np.zeros((3**ops.m,) + ops.lattice.shape)
    for d, ((lo, hi), (pd, pt, psq)) in enumerate(zip(ops.ends, _faces(ops, u_full))):
        q = 1.0 - lam * psq
        s = q**-1.5 / ops.h[d]
        g = (q + lam * pd * pd) * s / ops.h[d]
        dphi = [(cube[d], g), (0, -g)]  # (offset from a, dphi/du there)
        for t, p in pt:
            w = lam * pd * p * s / (4 * ops.h[t])
            dphi += [(cube[t], w), (-cube[t], -w), (cube[d] + cube[t], w), (cube[d] - cube[t], -w)]
        for off, w in dphi:
            jac[c + off][lo] += w
            jac[c + off - cube[d]][hi] -= w
    return jac.reshape(3**ops.m, -1)[:, ops.int_flat]


@np.errstate(over="ignore", invalid="ignore")
def _ma_min_eig(H: np.ndarray) -> float:
    """Smallest eigenvalue of the discrete Hessians H (k, m, m), the
    convexity safeguard quantity; DomainError(OVERFLOW) if H or it is not
    finite (H first: LAPACK's eigvalsh fails on an infinite 3 x 3 matrix)."""
    if not np.all(np.isfinite(H)):
        raise DomainError(OVERFLOW)
    if H.shape[-1] == 2:
        tr = 0.5 * (H[:, 0, 0] + H[:, 1, 1])
        disc = np.sqrt(np.maximum(0.0, (0.5 * (H[:, 0, 0] - H[:, 1, 1])) ** 2 + H[:, 0, 1] ** 2))
        min_eig = np.min(tr - disc)
    else:
        min_eig = np.min(np.linalg.eigvalsh(H)[:, 0])
    if not np.isfinite(min_eig):  # the m = 2 closed form may overflow
        raise DomainError(OVERFLOW)
    return float(min_eig)


@np.errstate(over="ignore", invalid="ignore")
def _ma_residual(ops: _Ops, u_full: np.ndarray, c: float, convex: bool = False):
    """det(discrete Hessian) - c at the interior nodes.  With convex, the
    convexity safeguard comes first, from the same Hessians: None unless
    the smallest eigenvalue is positive (see _ma_min_eig)."""
    H = lat_mod.central_hessian(u_full, ops.lattice, ops.int_flat)
    if convex and not _ma_min_eig(H) > 0.0:
        return None
    if ops.m == 2:
        return H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] ** 2 - c
    return np.linalg.det(H) - c


def _hessian_weights(ops: _Ops) -> np.ndarray:
    """central_hessian's weights (3^m, m, m): at offset o of the +-1 cube
    (see _Ops), its Hessian of the unit field at o, on a cube of 3^m nodes
    with the lattice's spacing."""
    cube = Lattice.box((0.0,) * ops.m, 2 * ops.h, 3)
    centre = np.array([ops.centre])
    return np.stack([lat_mod.central_hessian(unit, cube, centre)[0] for unit in np.eye(3**ops.m)])


@np.errstate(over="ignore", invalid="ignore")
def _ma_jacobian(ops: _Ops, u_full: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dR/du as a (3^m, K) array (see _maximal_jacobian): entry [o, alpha]
    is the sum over d, e of cof(H)_de weights[o, d, e] (_hessian_weights).
    The cofactor matrix is closed-form for m = 2 and det(H) H^-1 otherwise;
    the convexity safeguard keeps H positive definite wherever a Jacobian
    is built."""
    H = lat_mod.central_hessian(u_full, ops.lattice, ops.int_flat)
    if ops.m == 2:  # the adjugate of a symmetric 2 x 2 matrix
        cof = H[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    else:
        cof = np.linalg.det(H)[:, None, None] * np.linalg.inv(H)
    return weights.reshape(len(weights), -1) @ cof.reshape(len(cof), -1).T


def splu(*args, **kwargs):
    """scipy.sparse.linalg.splu, imported on the first call: only the
    solvers need scipy.sparse.linalg, which is slow to import."""
    from scipy.sparse.linalg import splu as scipy_splu

    return scipy_splu(*args, **kwargs)


def _jacobian_matrix(ops: _Ops, jac: np.ndarray):
    """P J P^T in the lattice's fixed CSC pattern (see _Ops), a scipy.sparse
    csc_matrix, from the (3^m, K) stencil Jacobian jac;
    DomainError(OVERFLOW) if an entry is not finite."""
    from scipy.sparse import csc_matrix

    values = jac.ravel()[ops.jac_entries]
    if not np.all(np.isfinite(values)):
        raise DomainError(OVERFLOW)
    return csc_matrix((values, ops.jac_indices, ops.jac_indptr), shape=(ops.K, ops.K))


def _lu_solve(ops: _Ops, lu, b: np.ndarray) -> np.ndarray:
    """Solve J x = b with the LU of P J P^T."""
    x = np.empty_like(b)
    x[ops.perm] = lu.solve(b[ops.perm])
    return x


def _norm(r: np.ndarray) -> float:
    """The max norm of a residual; DomainError(OVERFLOW) if it is not
    finite (the field's gradient or Hessian overflowed)."""
    rnorm = float(np.max(np.abs(r)))
    if not np.isfinite(rnorm):
        raise DomainError(OVERFLOW)
    return rnorm


def _newton(ops: _Ops, trial, jac_of_int, u_int: np.ndarray, tol: float, max_iter: int,
            log: ConvergenceLog, stage: float, r: np.ndarray | None = None):
    """Damped Newton from u_int with chord steps.  trial(u) is the residual
    at u, from the same pass as the safeguard, or None where the safeguard
    refuses u; u_int must pass it, and r is the residual at u_int if a
    trial already formed it.
    jac_of_int gives the (3^m, K) stencil Jacobian at an iterate.  Before
    each new Jacobian, full steps on the last LU are taken while each
    shrinks the residual to CHORD_CONTRACTION of it (or to tol).  max_iter
    bounds the Jacobians built, not the steps; the step on the last one
    allowed ends the solve.  Returns the solution and the last LU (None if
    no Jacobian was built)."""

    def tried(u):
        """The residual and its norm at a finite u that the safeguard
        accepts, else None."""
        res = trial(u) if np.all(np.isfinite(u)) else None
        return None if res is None else (res, _norm(res))

    if r is None:
        r = trial(u_int)
    rnorm = _norm(r)
    log.record(stage, 0, rnorm, 1.0, "start")
    lu, it = None, 0
    for _ in range(max_iter):
        while lu is not None and rnorm > tol:
            u = u_int + _lu_solve(ops, lu, -r)
            res = tried(u)
            if res is None or res[1] > max(CHORD_CONTRACTION * rnorm, tol):
                break
            it += 1
            u_int, (r, rnorm) = u, res
            log.record(stage, it, rnorm, 1.0, "chord")
        if rnorm <= tol:
            return u_int, lu
        lu = None  # release the previous factorization before the next
        lu = splu(_jacobian_matrix(ops, jac_of_int(u_int)), permc_spec="NATURAL")
        delta = _lu_solve(ops, lu, -r)
        it += 1
        t = 1.0
        while t >= 2**-24:
            u = u_int + t * delta
            res = tried(u)
            if res is not None and (res[1] < rnorm or res[1] <= tol):
                u_int, (r, rnorm) = u, res
                log.record(stage, it, rnorm, t, "newton")
                break
            t /= 2.0
        else:
            raise SolverError("step damping floor reached (safeguard exhausted)")
    if rnorm <= tol:
        return u_int, lu
    raise SolverError(f"Newton divergence: residual {rnorm:.3e} after {max_iter} iterations")


def _stage_start(log: ConvergenceLog, stage: float, trial, warm, predicted, no_prediction: str,
                 safeguard: str):
    """The predicted start if the safeguard passes it, else the warm start
    (logged as a fallback with its reason), with its residual from trial."""
    if predicted is not None:
        r = trial(predicted)
        if r is not None:
            log.event(stage, "predicted")
            return predicted, r
        no_prediction = f"predicted start {safeguard}"
    log.event(stage, "fallback", no_prediction)
    r = trial(warm)
    if r is None:
        raise SolverError(f"warm start {safeguard}")
    return warm, r


def _adaptive_ladder(solve_stage, log: ConvergenceLog) -> np.ndarray:
    """March a continuation parameter from 0 to 1, halving the step (down to 1e-3) on failure.

    solve_stage(param, warm, predicted) returns (u, slope): the solution at
    param and du/dparam there (or None).  warm is the last solution (None
    at the first stage) and predicted its Euler step to param.
    """
    cur = 0.0
    u, slope = solve_stage(cur, None, None)
    step = 1.0
    while cur < 1.0:
        nxt = min(1.0, cur + step)
        predicted = None if slope is None else u + (nxt - cur) * slope
        try:
            u, slope = solve_stage(nxt, u, predicted)
            cur = nxt
            step *= 2.0
        except SolverError as err:
            log.event(nxt, "rejected", str(err))
            step /= 2.0
            if step < 1e-3:
                raise
    return u


# ---------------------------------------------------------------------------
# Public solvers

def solve_maximal(lattice: Lattice, boundary, tol: float = 1e-10, max_iter: int = 40,
                  delta_safe: float = 1e-6) -> tuple[GridField, ConvergenceLog]:
    """Solve the maximal space-like hypersurface equation with Dirichlet data.

    Returns the solved field and the Newton convergence log.  Fails with
    SolverError if the data does not admit a space-like extension at the
    discrete level (safeguard exhausted) or Newton diverges.
    """
    ops = _Ops(lattice)
    bvals = _boundary_values(lattice, boundary)
    log = ConvergenceLog()
    cap = (1.0 - delta_safe) ** 2

    def stage(lam, warm, predicted):
        def trial(u_int):
            return _maximal_residual(ops, _full_from_interior(ops, bvals, u_int), lam, cap)

        def jac_of_int(u_int):
            return _maximal_jacobian(ops, _full_from_interior(ops, bvals, u_int), lam)

        if warm is None:
            start, r = np.full(ops.K, float(np.mean(bvals[np.isfinite(bvals)]))), None
        else:
            start, r = _stage_start(log, lam, trial, warm, predicted,
                                    "no Newton step to take the tangent from",
                                    "violates the space-like safeguard")
        u_int, lu = _newton(ops, trial, jac_of_int, start, tol, max_iter, log, lam, r)
        if lam == 1.0 or lu is None:
            return u_int, None
        # Euler tangent J du/dlam = -dR/dlam
        dres = _maximal_dlam(ops, _full_from_interior(ops, bvals, u_int), lam)
        return u_int, -_lu_solve(ops, lu, dres)

    u_int = _adaptive_ladder(stage, log)
    u_full = _full_from_interior(ops, bvals, u_int)  # nan on inactive nodes
    log.final_residual = log.steps[-1][2]  # the lam = 1 residual at u_int, from its trial
    return GridField(lattice, u_full.reshape(lattice.shape)), log


def solve_ma(lattice: Lattice, boundary, c: float = 1.0, tol: float = 1e-10,
             max_iter: int = 40) -> tuple[GridField, ConvergenceLog]:
    """Solve det(discrete Hessian F) = c with Dirichlet data, keeping the
    discrete Hessian positive definite along the Newton path."""
    if c <= 0:
        raise ValueError("c must be positive")
    ops = _Ops(lattice)
    pts = lat_mod.node_points(lattice)
    gvals = _boundary_values(lattice, boundary)
    quad = 0.5 * c ** (1.0 / lattice.m) * np.sum(pts**2, axis=1)
    weights = _hessian_weights(ops)
    log = ConvergenceLog()
    # du/dtheta of the predictor: the boundary data's expression inside
    slope, no_prediction = None, "boundary data is a callable"
    if isinstance(boundary, Expr):
        try:
            slope = eval_values(boundary, pts[ops.int_flat]) - quad[ops.int_flat]
        except DomainError as err:
            no_prediction = f"boundary data undefined in the interior: {err}"

    def stage(theta, warm, predicted):
        bvals = gvals if theta == 1.0 else quad + theta * (gvals - quad)  # nan off the boundary

        def trial(u_int):
            return _ma_residual(ops, _full_from_interior(ops, bvals, u_int), c, True)

        def jac_of_int(u_int):
            return _ma_jacobian(ops, _full_from_interior(ops, bvals, u_int), weights)

        start, r = (quad[ops.int_flat], None) if warm is None else _stage_start(
            log, theta, trial, warm, predicted, no_prediction, "lost discrete convexity")
        u_int, _ = _newton(ops, trial, jac_of_int, start, tol, max_iter, log, theta, r)
        return u_int, slope

    try:
        u_int = _adaptive_ladder(stage, log)
    except SolverError as err:
        raise SolverError(f"convexity loss or divergence in the homotopy: {err}") from err
    u_full = _full_from_interior(ops, gvals, u_int)  # nan on inactive nodes
    log.final_residual = log.steps[-1][2]  # the theta = 1 residual at u_int, from its trial
    return GridField(lattice, u_full.reshape(lattice.shape)), log


# ---------------------------------------------------------------------------
# Discrete geometry extraction from solved fields

def field_jet2(field: GridField):
    """Central-difference gradient and compact Hessian at the active nodes
    whose whole +-1 cube is active: (multi-indices, points, grad (k, m),
    hess (k, m, m))."""
    lat = field.lattice
    nodes = np.argwhere(lat_mod.cube_all(lat_mod.active_mask(lat), 1))
    flat = np.ravel_multi_index(nodes.T, lat.shape)
    u = field.values.ravel()
    return (nodes, lat_mod.node_points(lat)[flat], lat_mod.central_gradient(u, lat, flat),
            lat_mod.central_hessian(u, lat, flat))


def field_third(field: GridField):
    """Compact Hessian and all third derivatives at the active nodes whose
    whole +-2 cube is active: (multi-indices, points, hess (k, m, m),
    third (k, m, m, m)).  d_p of the Hessian is the central difference of
    the compact Hessians at the nodes +-1 along p."""
    lat = field.lattice
    nodes = np.argwhere(lat_mod.cube_all(lat_mod.active_mask(lat), 2))
    flat = np.ravel_multi_index(nodes.T, lat.shape)
    u = field.values.ravel()
    third = np.zeros((flat.size,) + (lat.m,) * 3)
    for p, (s, h) in enumerate(zip(lat_mod.strides(lat), lat.spacing)):
        third[..., p] = (lat_mod.central_hessian(u, lat, flat + s)
                         - lat_mod.central_hessian(u, lat, flat - s)) / (2 * h)
    # symmetrize over the derivative index vs Hessian indices (discretely
    # they already agree to truncation order; averaging keeps exact symmetry)
    third = (third + third.transpose(0, 1, 3, 2) + third.transpose(0, 3, 2, 1)
             + third.transpose(0, 2, 1, 3) + third.transpose(0, 3, 1, 2)
             + third.transpose(0, 2, 3, 1)) / 6.0
    return nodes, lat_mod.node_points(lat)[flat], lat_mod.central_hessian(u, lat, flat), third


def field_immersion_geometry(field: GridField):
    """Frame-level S and |H| of the solved graph at the nodes of field_jet2:
    (multi-indices, points, S (k,), |H| (k,))."""
    nodes, pts, grad, hess = field_jet2(field)
    J, Hss, normals = _graph_immersion(grad[:, None], hess[:, None])
    geo = immersion_geometry(J, Hss, signature(field.lattice.m, 1), normals)
    geo.fails.raise_first()
    return nodes, pts, geo.S, geo.H_norm


# ---------------------------------------------------------------------------
# Field files (shared schema with the command-line tools)

def _lattice_to_dict(lat: Lattice) -> dict:
    d = {"lo": list(lat.lo), "hi": list(lat.hi), "shape": list(lat.shape)}
    if lat.mask is not None:
        d["mask"] = list(lat.mask)
    return d


def _lattice_from_dict(d: dict) -> Lattice:
    mask = d.get("mask")
    if mask is not None:
        mask = tuple(mask[:1] + [float(v) for v in mask[1:]])
    return Lattice(tuple(d["lo"]), tuple(d["hi"]), tuple(int(s) for s in d["shape"]), mask)


def save_field(field: GridField, path: str, fmt: str = "json") -> None:
    vals = field.values.ravel()
    if fmt == "json":
        # the bytes of json.dump(indent=1) of {"meta", "lattice", "values"}:
        # the dump of the first two keys less its closing "\n}", then the
        # values a chunk at a time, float.__repr__ of each finite one and
        # null for the others (whose repr is nan here; no finite repr has an n)
        head = json.dumps({"meta": {"kind": "field"}, "lattice": _lattice_to_dict(field.lattice)},
                          indent=1)
        sep = ",\n  "
        with open(path, "w") as fh:
            fh.write(head[:-2] + ',\n "values": [\n  ')
            for start in range(0, vals.size, _JSON_CHUNK):
                part = vals[start:start + _JSON_CHUNK]
                text = sep.join(map(float.__repr__, np.where(np.isfinite(part), part, np.nan).tolist()))
                fh.write((sep if start else "") + text.replace("nan", "null"))
            fh.write("\n ]\n}\n")
    elif fmt == "csv":
        lat = field.lattice
        value = np.where(np.isfinite(vals), vals.astype(object), "nan")
        role = np.where(lat_mod.interior_mask(lat).ravel(), "interior",
                        np.where(lat_mod.boundary_mask(lat).ravel(), "boundary", "inactive"))
        # a column at a time: str of a Python int or float is its repr
        numbers = [*np.indices(lat.shape).reshape(lat.m, -1), *lat_mod.node_points(lat).T, value]
        rows = zip(*(map(str, col.tolist()) for col in numbers), role.tolist())
        head = [f"i{d+1}" for d in range(lat.m)] + [f"x{d+1}" for d in range(lat.m)] + ["value", "role"]
        with open(path, "w", newline="") as fh:
            fh.write("# lattice=" + json.dumps(_lattice_to_dict(lat)) + "\n")
            fh.write("\n".join(map(",".join, [head, *rows])) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_field(path: str) -> GridField:
    with open(path) as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            payload = json.load(fh)
            lat = _lattice_from_dict(payload["lattice"])
            vals = np.array(payload["values"], dtype=float)  # None reads as nan
            return GridField(lat, vals.reshape(lat.shape))
        first = fh.readline()
        if not first.startswith("# lattice="):
            raise ValueError("not a field file")
        lat = _lattice_from_dict(json.loads(first[len("# lattice="):]))
        fh.readline()  # header
        vals = np.loadtxt(fh, delimiter=",", usecols=2 * lat.m, ndmin=1, comments=None)
        return GridField(lat, vals.reshape(lat.shape))
