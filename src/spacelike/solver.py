"""Damped-Newton lattice solvers for the maximal space-like hypersurface
equation and the Monge-Ampere equation, with Dirichlet data.

The maximal equation is discretized in divergence form
div(grad f / sqrt(1 - |grad f|^2)) = 0 with conservative face fluxes
(second order).  A continuation parameter lam scales |grad f|^2 inside
the square root: lam = 0 is the Laplace equation (used as the initial
stage), lam = 1 the full equation; the ladder adapts on failure.  Each
accepted Newton step must keep every face speed below 1 - delta_safe.

The Monge-Ampere residual is det(discrete Hessian) - c with compact
central stencils; a boundary-data homotopy starts from the exactly
solvable quadratic matching c, and backtracking preserves discrete
convexity.

Jacobians are exact, assembled by colored complex-step differentiation
(stencil width 1, 3^m colors), so Newton converges quadratically.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from . import lattice as lat_mod
from .exprparse import Expr, eval_values
from .graphgeom import _graph_immersion, immersion_geometry, signature
from .lattice import Lattice, LatticeError


class SolverError(RuntimeError):
    pass


@dataclass
class GridField:
    lattice: Lattice
    values: np.ndarray  # full grid, np.nan on inactive nodes

    def spacing(self):
        return self.lattice.spacing


@dataclass
class ConvergenceLog:
    steps: list = field(default_factory=list)  # (stage, iteration, residual, damping)
    final_residual: float = np.nan

    def record(self, stage, iteration, residual, damping):
        self.steps.append((float(stage), int(iteration), float(residual), float(damping)))

    def residual_history(self, stage=None):
        if stage is None:
            stage = self.steps[-1][0] if self.steps else None
        return [s[2] for s in self.steps if s[0] == stage]


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

class _Ops:
    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        m = lattice.m
        self.m = m
        self.h = np.array(lattice.spacing)
        act = lat_mod.active_mask(lattice).ravel()
        inter = lat_mod.interior_mask(lattice).ravel()
        self.act = act
        self.int_flat = np.flatnonzero(inter)
        self.K = self.int_flat.size
        if self.K == 0:
            raise LatticeError("lattice has no interior nodes")
        self.int_id = np.full(act.size, -1, dtype=int)
        self.int_id[self.int_flat] = np.arange(self.K)
        self.strides = lat_mod.strides(lattice)
        shape = lattice.shape

        multi = np.array(np.unravel_index(self.int_flat, shape)).T  # (K, m)
        self.colors = np.zeros(self.K, dtype=int)
        for d in range(m):
            self.colors += (multi[:, d] % 3) * 3**d

        # offset -> (rows alpha, cols beta) over interior pairs; an interior
        # node's +-1 cube lies inside the lattice
        self.offset_pairs = {}
        for off in itertools.product((-1, 0, 1), repeat=m):
            nb = self.int_id[self.int_flat + lat_mod.flat_offset(lattice, off)]
            self.offset_pairs[off] = (np.flatnonzero(nb >= 0), nb[nb >= 0])

        # axis faces for the divergence-form flux
        self.faces = []
        for d in range(m):
            step = int(self.strides[d])
            cand = np.flatnonzero(act)
            nb = cand + step
            ok = nb < act.size
            # stay in the same row block along axis d
            idx_d = np.array(np.unravel_index(cand, shape))[d]
            ok &= idx_d < shape[d] - 1
            ok[ok] &= act[nb[ok]]
            L = cand[ok]
            R = nb[ok]
            touching = (self.int_id[L] >= 0) | (self.int_id[R] >= 0)
            L, R = L[touching], R[touching]
            trans = {}
            for t in range(m):
                if t == d:
                    continue
                st = int(self.strides[t])
                for name, basearr in (("L", L), ("R", R)):
                    for sgn, tag in ((+1, "p"), (-1, "m")):
                        arr = basearr + sgn * st
                        if arr.size and (arr.min() < 0 or arr.max() >= act.size or not np.all(self.act[arr])):
                            raise LatticeError("mask too thin: a flux face lacks transverse neighbors")
                        trans[(name, t, tag)] = arr
            self.faces.append({"L": L, "R": R, "trans": trans,
                               "rowsL": self.int_id[L], "rowsR": self.int_id[R]})


def _full_from_interior(ops: _Ops, bvals: np.ndarray, u_int: np.ndarray) -> np.ndarray:
    u = np.array(bvals, dtype=u_int.dtype)
    u[ops.int_flat] = u_int
    return u


def _face_gradient(ops: _Ops, u_full: np.ndarray, d: int):
    """Normal difference pd and squared gradient psq on the axis-d faces."""
    fc = ops.faces[d]
    pd = (u_full[fc["R"]] - u_full[fc["L"]]) / ops.h[d]
    psq = pd * pd
    for t in range(ops.m):
        if t == d:
            continue
        cL = (u_full[fc["trans"][("L", t, "p")]] - u_full[fc["trans"][("L", t, "m")]]) / (2 * ops.h[t])
        cR = (u_full[fc["trans"][("R", t, "p")]] - u_full[fc["trans"][("R", t, "m")]]) / (2 * ops.h[t])
        pt = 0.5 * (cL + cR)
        psq = psq + pt * pt
    return pd, psq


def _maximal_residual(ops: _Ops, u_full: np.ndarray, lam: float) -> np.ndarray:
    res = np.zeros(ops.K, dtype=u_full.dtype)
    for d in range(ops.m):
        fc = ops.faces[d]
        pd, psq = _face_gradient(ops, u_full, d)
        phi = pd / np.sqrt(1.0 - lam * psq)
        okL = fc["rowsL"] >= 0
        okR = fc["rowsR"] >= 0
        res[fc["rowsL"][okL]] += phi[okL] / ops.h[d]
        res[fc["rowsR"][okR]] -= phi[okR] / ops.h[d]
    return res


def _maximal_speed2(ops: _Ops, u_full: np.ndarray) -> float:
    """Largest face |grad f|^2 (the space-like safeguard quantity)."""
    worst = 0.0
    for d in range(ops.m):
        _, psq = _face_gradient(ops, u_full, d)
        if psq.size:
            worst = max(worst, float(np.max(psq)))
    return worst


def _ma_hessians(ops: _Ops, u_full: np.ndarray) -> np.ndarray:
    return lat_mod.central_hessian(u_full, ops.lattice, ops.int_flat)


def _ma_residual(ops: _Ops, u_full: np.ndarray, c: float) -> np.ndarray:
    H = _ma_hessians(ops, u_full)
    m = ops.m
    if m == 1:
        det = H[:, 0, 0]
    elif m == 2:
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] ** 2
    else:
        det = np.linalg.det(H)
    return det - c


def _ma_min_eig(ops: _Ops, u_full: np.ndarray) -> float:
    H = _ma_hessians(ops, u_full).real
    m = ops.m
    if m == 1:
        return float(np.min(H[:, 0, 0]))
    if m == 2:
        tr = 0.5 * (H[:, 0, 0] + H[:, 1, 1])
        disc = np.sqrt(np.maximum(0.0, (0.5 * (H[:, 0, 0] - H[:, 1, 1])) ** 2 + H[:, 0, 1] ** 2))
        return float(np.min(tr - disc))
    return float(np.min(np.linalg.eigvalsh(H)[:, 0]))


def _colored_jacobian(ops: _Ops, res_fn, u_int: np.ndarray, eps: float = 1e-50) -> csr_matrix:
    rows, cols, data = [], [], []
    ncolors = 3**ops.m
    base = u_int.astype(complex)
    for c in range(ncolors):
        mask = ops.colors == c
        if not mask.any():
            continue
        up = base.copy()
        up[mask] += 1j * eps
        im = res_fn(up).imag / eps
        for off, (alpha, beta) in ops.offset_pairs.items():
            sel = mask[beta]
            if not sel.any():
                continue
            rows.append(alpha[sel])
            cols.append(beta[sel])
            data.append(im[alpha[sel]])
    J = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ops.K, ops.K),
    )
    return J


def _newton(ops: _Ops, res_of_int, accept, u_int: np.ndarray, tol: float,
            max_iter: int, log: ConvergenceLog, stage: float) -> np.ndarray:
    r = res_of_int(u_int)
    rnorm = float(np.max(np.abs(r.real)))
    log.record(stage, 0, rnorm, 1.0)
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return u_int
        J = _colored_jacobian(ops, res_of_int, u_int)
        delta = spsolve(J.tocsc(), -r.real)
        t = 1.0
        while t >= 2**-24:
            trial = u_int + t * delta
            if accept(trial):
                tr = res_of_int(trial)
                tn = float(np.max(np.abs(tr.real)))
                if tn < rnorm or tn <= tol:
                    u_int, r, rnorm = trial, tr, tn
                    log.record(stage, it, rnorm, t)
                    break
            t /= 2.0
        else:
            raise SolverError("step damping floor reached (safeguard exhausted)")
    if rnorm <= tol:
        return u_int
    raise SolverError(f"Newton divergence: residual {rnorm:.3e} after {max_iter} iterations")


def _adaptive_ladder(solve_stage, start: float, target: float, min_step: float = 1e-3):
    """March a continuation parameter from start to target, bisecting on failure."""
    cur = start
    state = solve_stage(cur, None)
    step = target - start
    while cur < target:
        nxt = min(target, cur + step)
        try:
            state = solve_stage(nxt, state)
            cur = nxt
            step *= 2.0
        except SolverError:
            step /= 2.0
            if step < min_step:
                raise
    return state


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

    def stage(lam, warm):
        if warm is None:
            finite = bvals[np.isfinite(bvals)]
            warm = np.full(ops.K, float(np.mean(finite)))
        u_full0 = _full_from_interior(ops, bvals, warm)
        if lam > 0 and lam * _maximal_speed2(ops, u_full0) > cap:
            raise SolverError("warm start violates the space-like safeguard")

        def res_of_int(u_int):
            return _maximal_residual(ops, _full_from_interior(ops, bvals, u_int), lam)

        def accept(u_int):
            if lam == 0:
                return True
            full = _full_from_interior(ops, bvals, u_int)
            return lam * _maximal_speed2(ops, full) <= cap

        return _newton(ops, res_of_int, accept, warm, tol, max_iter, log, lam)

    u_int = _adaptive_ladder(stage, 0.0, 1.0)
    u_full = _full_from_interior(ops, bvals, u_int)
    vals = np.full(ops.act.size, np.nan)
    vals[ops.act] = u_full[ops.act]
    log.final_residual = float(np.max(np.abs(_maximal_residual(ops, u_full, 1.0))))
    return GridField(lattice, vals.reshape(lattice.shape)), log


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
    bmask = np.isfinite(gvals)
    log = ConvergenceLog()

    def stage(theta, warm):
        bvals = np.full_like(gvals, np.nan)
        bvals[bmask] = quad[bmask] + theta * (gvals[bmask] - quad[bmask])
        if warm is None:
            warm = quad[ops.int_flat].copy()

        def res_of_int(u_int):
            return _ma_residual(ops, _full_from_interior(ops, bvals, u_int), c)

        def accept(u_int):
            full = _full_from_interior(ops, bvals, u_int)
            return _ma_min_eig(ops, full) > 0.0

        u_full0 = _full_from_interior(ops, bvals, warm)
        if _ma_min_eig(ops, u_full0) <= 0.0:
            raise SolverError("warm start lost discrete convexity")
        return _newton(ops, res_of_int, accept, warm, tol, max_iter, log, theta)

    try:
        u_int = _adaptive_ladder(stage, 0.0, 1.0)
    except SolverError as err:
        raise SolverError(f"convexity loss or divergence in the homotopy: {err}") from err
    bvals = gvals
    u_full = _full_from_interior(ops, bvals, u_int)
    vals = np.full(ops.act.size, np.nan)
    vals[ops.act] = u_full[ops.act]
    log.final_residual = float(np.max(np.abs(_ma_residual(ops, u_full, c))))
    return GridField(lattice, vals.reshape(lattice.shape)), log


# ---------------------------------------------------------------------------
# Discrete geometry extraction from solved fields

def _stencil_ready_nodes(field: GridField, margin: int):
    """Multi-indices of active nodes whose full +-margin cube is active."""
    return np.argwhere(lat_mod.cube_all(lat_mod.active_mask(field.lattice), margin))


def field_jet2(field: GridField, nodes=None):
    """Central-difference gradient and compact Hessian at lattice nodes.

    Returns (multi-indices, points, grad (k,m), hess (k,m,m)) over nodes
    whose +-1 cube is active (or the provided node list).
    """
    lat = field.lattice
    if nodes is None:
        nodes = _stencil_ready_nodes(field, 1)
    nodes = np.asarray(nodes, dtype=int).reshape(-1, lat.m)
    flat = np.ravel_multi_index(nodes.T, lat.shape)
    u = field.values.ravel()
    return (nodes, lat_mod.node_points(lat)[flat], lat_mod.central_gradient(u, lat, flat),
            lat_mod.central_hessian(u, lat, flat))


def field_third(field: GridField, nodes=None):
    """Central differences of the compact Hessian: all third derivatives.

    Nodes need a +-2 active cube.
    """
    lat = field.lattice
    m = lat.m
    h = np.array(lat.spacing)
    if nodes is None:
        nodes = _stencil_ready_nodes(field, 2)
    nodes = np.asarray(nodes, dtype=int).reshape(-1, m)
    third = np.zeros((nodes.shape[0], m, m, m))
    for p in range(m):
        ep = np.zeros(m, dtype=int)
        ep[p] = 1
        _, _, _, h_plus = field_jet2(field, nodes + ep)
        _, _, _, h_minus = field_jet2(field, nodes - ep)
        third[:, :, :, p] = (h_plus - h_minus) / (2 * h[p])
    # symmetrize over the derivative index vs Hessian indices (discretely
    # they already agree to truncation order; averaging keeps exact symmetry)
    third = (third + third.transpose(0, 1, 3, 2) + third.transpose(0, 3, 2, 1)
             + third.transpose(0, 2, 1, 3) + third.transpose(0, 3, 1, 2)
             + third.transpose(0, 2, 3, 1)) / 6.0
    _, pts, _, hess = field_jet2(field, nodes)
    return nodes, pts, hess, third


def field_immersion_geometry(field: GridField, nodes=None):
    """Frame-level S and |H| of the solved graph at stencil-ready nodes."""
    nodes, pts, grad, hess = field_jet2(field, nodes)
    S, H = _n1_geometry(grad, hess)
    return nodes, pts, S, H


def spline_geometry(field: GridField, pts, index_box):
    """S and |H| at arbitrary points via bicubic interpolation of the field.

    index_box = ((i0, i1), (j0, j1)) selects a fully active subrectangle.
    """
    from scipy.interpolate import RectBivariateSpline

    lat = field.lattice
    if lat.m != 2:
        raise LatticeError("spline extraction is two-dimensional")
    (i0, i1), (j0, j1) = index_box
    xs, ys = lat.axes()
    sub = field.values[i0:i1, j0:j1]
    if not np.all(np.isfinite(sub)):
        raise LatticeError("index_box must select an active subrectangle")
    sp = RectBivariateSpline(xs[i0:i1], ys[j0:j1], sub, kx=3, ky=3)
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    grad = [[sp(x, y, dx=1)[0, 0], sp(x, y, dy=1)[0, 0]] for x, y in pts]
    hess = [[[sp(x, y, dx=2)[0, 0], sp(x, y, dx=1, dy=1)[0, 0]],
             [sp(x, y, dx=1, dy=1)[0, 0], sp(x, y, dy=2)[0, 0]]] for x, y in pts]
    return _n1_geometry(np.reshape(grad, (-1, 2)), np.reshape(hess, (-1, 2, 2)))


def _n1_geometry(grad: np.ndarray, hess: np.ndarray):
    """Frame-level S and |H| of the hypersurface graph with the given
    gradients (k, m) and Hessians (k, m, m)."""
    sig = signature(grad.shape[1], 1)
    S = np.zeros(grad.shape[0])
    H = np.zeros(grad.shape[0])
    for i in range(grad.shape[0]):
        J, Hss, normals = _graph_immersion(grad[i][None], hess[i][None])
        geo = immersion_geometry(J, Hss, sig, normals)
        S[i] = geo.S
        H[i] = geo.H_norm
    return S, H


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
    if fmt == "json":
        payload = {
            "meta": {"kind": "field"},
            "lattice": _lattice_to_dict(field.lattice),
            "values": [None if not np.isfinite(v) else float(v) for v in field.values.ravel()],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    elif fmt == "csv":
        lat = field.lattice
        pts = lat_mod.node_points(lat)
        bnd = lat_mod.boundary_mask(lat).ravel()
        inter = lat_mod.interior_mask(lat).ravel()
        with open(path, "w", newline="") as fh:
            fh.write("# lattice=" + json.dumps(_lattice_to_dict(lat)) + "\n")
            cols = [f"i{d+1}" for d in range(lat.m)] + [f"x{d+1}" for d in range(lat.m)] + ["value", "role"]
            fh.write(",".join(cols) + "\n")
            for flat, v in enumerate(field.values.ravel()):
                idx = np.unravel_index(flat, lat.shape)
                role = "interior" if inter[flat] else ("boundary" if bnd[flat] else "inactive")
                val = repr(float(v)) if np.isfinite(v) else "nan"
                row = [str(i) for i in idx] + [repr(float(c)) for c in pts[flat]] + [val, role]
                fh.write(",".join(row) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_field(path: str) -> GridField:
    with open(path) as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            payload = json.load(fh)
            lat = _lattice_from_dict(payload["lattice"])
            vals = np.array([np.nan if v is None else float(v) for v in payload["values"]])
            return GridField(lat, vals.reshape(lat.shape))
        first = fh.readline()
        if not first.startswith("# lattice="):
            raise ValueError("not a field file")
        lat = _lattice_from_dict(json.loads(first[len("# lattice="):]))
        fh.readline()  # header
        vals = np.full(int(np.prod(lat.shape)), np.nan)
        for flat, line in enumerate(fh):
            parts = line.rstrip("\n").split(",")
            v = parts[2 * lat.m]
            vals[flat] = np.nan if v == "nan" else float(v)
        return GridField(lat, vals.reshape(lat.shape))
