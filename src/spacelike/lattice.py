"""Axis-aligned sample lattices with optional disc/annulus masks.

Nodes are classified as inactive (outside the mask), boundary (active
and either on the array edge or adjacent to an inactive node within the
full 3^m - 1 neighborhood), or interior.  Solvers impose Dirichlet data
on boundary nodes and unknowns live on interior nodes.  The cached node
and mask arrays are read-only: every caller shares them.  ``cube_all``
tests a mask over the +-k cube around each node (the interior mask is its
k = 1 case), and ``cube_offsets`` lists the +-1 cube; ``central_gradient``
and ``central_hessian`` difference a lattice field at chosen nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    lo: tuple
    hi: tuple
    shape: tuple          # node count per axis, endpoints included
    mask: tuple | None = None  # None | ('disc', r) | ('annulus', r0, r1)

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.shape):
            raise LatticeError("lo, hi and shape must have the same length")
        if any(n < 2 for n in self.shape):
            raise LatticeError("need at least two nodes per axis")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise LatticeError("hi must exceed lo on every axis")
        if self.mask is not None:
            kind, *radii = self.mask
            if (kind, len(radii)) not in (("disc", 1), ("annulus", 2)):
                raise LatticeError(f"unknown mask {self.mask!r}: need ('disc', r) "
                                   "or ('annulus', r_min, r_max)")
            if not all(0 < r < math.inf for r in radii):
                raise LatticeError(f"mask radii must be finite and positive, got {radii}")
            if kind == "annulus" and not radii[0] < radii[1]:
                raise LatticeError("need 0 < r_min < r_max")

    @property
    def m(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple:
        return tuple((h - l) / (n - 1) for l, h, n in zip(self.lo, self.hi, self.shape))

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(l, h, n) for l, h, n in zip(self.lo, self.hi, self.shape)]

    # -- constructors --------------------------------------------------------

    @classmethod
    def box(cls, lo, hi, nodes) -> "Lattice":
        lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
        if isinstance(nodes, int):
            nodes = (nodes,) * len(lo)
        return cls(lo, hi, tuple(int(n) for n in nodes))

    @classmethod
    def disc(cls, radius: float, nodes: int) -> "Lattice":
        r = float(radius)
        return cls((-r, -r), (r, r), (int(nodes),) * 2, mask=("disc", r))

    @classmethod
    def annulus(cls, r_min: float, r_max: float, nodes: int) -> "Lattice":
        r = float(r_max)
        return cls((-r, -r), (r, r), (int(nodes),) * 2, mask=("annulus", float(r_min), r))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False  # cached and shared by every caller
    return arr


@lru_cache(maxsize=64)
def node_points(lat: Lattice) -> np.ndarray:
    """All node coordinates, shape (prod(shape), m), C-order."""
    grids = np.meshgrid(*lat.axes(), indexing="ij")
    return _frozen(np.stack([g.ravel() for g in grids], axis=-1))


@lru_cache(maxsize=64)
def active_mask(lat: Lattice) -> np.ndarray:
    pts = node_points(lat)
    if lat.mask is None:
        act = np.ones(pts.shape[0], dtype=bool)
    else:
        # radii in units of a power of two near the box's largest coordinate:
        # no |x|^2 overflows, and the scaling is exact, so the mask is the
        # one of the unscaled radii wherever those are finite
        scale = math.ldexp(1.0, math.frexp(max(map(abs, lat.lo + lat.hi)))[1] - 1)
        r = np.linalg.norm(pts / scale, axis=1)
        eps = 1e-9 * max(lat.spacing)
        if lat.mask[0] == "disc":
            act = r <= (lat.mask[1] + eps) / scale
        else:
            act = (r >= (lat.mask[1] - eps) / scale) & (r <= (lat.mask[2] + eps) / scale)
    return _frozen(act.reshape(lat.shape))


@lru_cache(maxsize=64)
def boundary_mask(lat: Lattice) -> np.ndarray:
    return _frozen(active_mask(lat) & ~interior_mask(lat))


@lru_cache(maxsize=64)
def interior_mask(lat: Lattice) -> np.ndarray:
    return _frozen(cube_all(active_mask(lat), 1))


def cube_all(mask: np.ndarray, margin: int) -> np.ndarray:
    """True where ``mask`` holds on the whole +-margin cube around a node,
    False where that cube leaves the array.  A cube is a product of
    intervals, so the test runs one axis at a time over a False-padded copy."""
    ok = np.pad(np.asarray(mask, dtype=bool), margin)
    for d in range(ok.ndim):
        ok = sliding_window_view(ok, 2 * margin + 1, axis=d).all(axis=-1)
    return ok


def central_gradient(u: np.ndarray, lat: Lattice, flat: np.ndarray) -> np.ndarray:
    """Central-difference gradient (k, m) of the flattened field ``u`` at the
    flat node indices ``flat``, in u's dtype."""
    h = np.array(lat.spacing)
    return np.stack([(u[flat + s] - u[flat - s]) / (2 * h[d])
                     for d, s in enumerate(strides(lat))], axis=-1)


def central_hessian(u: np.ndarray, lat: Lattice, flat: np.ndarray) -> np.ndarray:
    """Compact central-difference Hessian (k, m, m) of the flattened field
    ``u`` at the flat node indices ``flat``.

    Each node needs its +-1 cube inside the lattice.  The result keeps u's
    dtype and is linear in u: the Monge-Ampere Jacobian reads these
    stencils' weights off unit fields (solver._hessian_weights).
    """
    h = np.array(lat.spacing)
    st = strides(lat)
    hess = np.empty((flat.size, lat.m, lat.m), dtype=u.dtype)
    u0 = u[flat]
    for d, sd in enumerate(st):
        hess[:, d, d] = (u[flat + sd] - 2 * u0 + u[flat - sd]) / h[d] ** 2
        for e in range(d + 1, lat.m):
            s1, s2 = sd + st[e], sd - st[e]
            v = (u[flat + s1] - u[flat + s2] - u[flat - s2] + u[flat - s1]) / (4 * h[d] * h[e])
            hess[:, d, e] = hess[:, e, d] = v
    return hess


def strides(lat: Lattice) -> np.ndarray:
    st = np.ones(lat.m, dtype=int)
    for d in range(lat.m - 2, -1, -1):
        st[d] = st[d + 1] * lat.shape[d + 1]
    return st


def cube_offsets(m: int) -> np.ndarray:
    """The 3^m offsets (3^m, m) of the +-1 cube around a node, in the order
    of itertools.product((-1, 0, 1), repeat=m): offset v is row
    (3^m - 1) / 2 + v . (3^(m-1), ..., 3, 1), so the centre is the middle
    row and the rows after it are the offsets whose first nonzero entry is +1."""
    return np.indices((3,) * m).reshape(m, -1).T - 1
