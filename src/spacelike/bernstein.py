"""Estimate checkers and rigidity experiments.

* geodesic_radius: intrinsic distance field on a lattice by Dijkstra
  (scipy.sparse.csgraph) over the 3^m - 1 neighbor graph, with edge
  lengths from the induced metric at all edge midpoints in one batch.
* estimate_report: finite-sample ratios of S against the two second-
  fundamental-form bounds (mean-curvature-only, and mean curvature plus
  Gauss-map modulus); the theory's absolute constant is never assigned,
  so the contract is finiteness and stability.
* decay_scan: the desk-scale Bernstein experiment.  For each radius a the
  maximal-surface problem is solved on the disc of radius a with the
  scale-covariant Dirichlet family  f|_{dB_a}(x) = a * g(x / a)  (the
  blow-down of a fixed boundary shape g; an affine g is reproduced
  exactly at every scale).  The decaying statistic is the maximum of S
  over the center region |x| <= a/4; for nonflat data it decays like
  a^{-2}, the rate of the curvature estimate at fixed center.
* completeness_probe: integrates unit-speed geodesics of the induced
  metric from the origin, all directions as one ODE (each stops on its
  own when it leaves the coordinate box, and the rest restart from
  there), and compares the growth exponent of z + 1 with the sampled
  supremum of |grad z| / (z + 1), the integrated gradient estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lattice as lat_mod
from .exprparse import DomainError, Expr, eval_values
from .graphgeom import (
    GraphMap, _check_base_point, _spacelike_metric, graph_geometry, integrate_geodesic,
    pseudo_distance,
)
from .grassmann import SpacelikePlane, _distances, gauss_map
from .lattice import Lattice, LatticeError
from .solver import SolverError, field_immersion_geometry, solve_maximal

# worst-case ratio of the 8-neighbor lattice path length to the straight
# line in a flat metric: 1/cos(pi/8) - 1, about 8.24 percent
DIJKSTRA_METRICATION = 1.0 / np.cos(np.pi / 8.0) - 1.0


@dataclass
class RadiusField:
    lattice: Lattice
    r: np.ndarray          # full grid, np.inf for unreachable, nan inactive
    source_index: tuple


def geodesic_radius(gm: GraphMap, lattice: Lattice, x0) -> RadiusField:
    """Shortest-path distance field from x0 under the induced metric.

    Edges join each active node to its 3^m - 1 neighbors with length
    sqrt(d^T g(midpoint) d).  Along the lattice axes the radii converge at
    order 2 as the spacing shrinks; off them they do not converge: on the
    hyperboloid over [-2, 2]^2 the error against asinh|x| in the ball of
    radius 1.5 stalls at 0.226, 0.244 and 0.251 at 21^2, 41^2 and 81^2
    nodes, and the largest relative overshoot, about 16 %, exceeds the
    flat-metric bound DIJKSTRA_METRICATION (8.2 %).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    act = lat_mod.active_mask(lattice)
    pts = lat_mod.node_points(lattice)
    shape = lattice.shape
    m = lattice.m
    x0 = np.asarray(x0, dtype=float)

    act_flat = act.ravel()
    if not act_flat.any():
        raise LatticeError("empty lattice")
    cand = np.flatnonzero(act_flat)
    src_flat = int(cand[np.argmin(np.linalg.norm(pts[cand] - x0, axis=1))])
    if np.linalg.norm(pts[src_flat] - x0) > max(lattice.spacing):
        raise LatticeError("source point is not on the lattice")

    # one entry per undirected edge: the offsets whose first nonzero entry is +1
    offsets = [off for off in itertools.product((-1, 0, 1), repeat=m) if off > (0,) * m]
    nodes = np.argwhere(act)
    heads, tails, counts = [], [], []
    for off in offsets:
        nb = nodes + off
        ok = np.all((nb >= 0) & (nb < shape), axis=1)
        ok[ok] = act[tuple(nb[ok].T)]
        heads.append(np.ravel_multi_index(nodes[ok].T, shape))
        tails.append(np.ravel_multi_index(nb[ok].T, shape))
        counts.append(np.count_nonzero(ok))
    a, b = np.concatenate(heads), np.concatenate(tails)
    step = np.repeat(np.multiply(offsets, lattice.spacing), counts, axis=0)

    g = _spacelike_metric(gm, 0.5 * (pts[a] + pts[b]))
    length = np.sqrt(((step[:, None, :] @ g) @ step[:, :, None]).ravel())

    dist = dijkstra(csr_matrix((length, (a, b)), shape=(act_flat.size,) * 2),
                    directed=False, indices=src_flat)
    if not np.all(np.isfinite(dist[act_flat])):
        raise LatticeError("active-node graph is disconnected")
    r = np.full(act_flat.size, np.nan)
    r[act_flat] = dist[act_flat]
    return RadiusField(lattice=lattice, r=r.reshape(shape),
                       source_index=tuple(np.unravel_index(src_flat, shape)))


# ---------------------------------------------------------------------------
# Ball reports for the second-fundamental-form estimates

@dataclass
class BallReport:
    center: np.ndarray
    radius: float
    points: np.ndarray     # sample coordinates inside the geodesic ball
    r: np.ndarray          # geodesic radii of the samples
    S: np.ndarray
    H_norm: np.ndarray
    mu_dist: np.ndarray    # Gauss-map distance of each sample to the plane at the center
    mu: float              # max modulus over the ball
    h_bar: float           # max sampled |H|
    ratio29: float
    ratio28: float


def estimate_report(gm: GraphMap, x0, a: float, lattice: Lattice) -> BallReport:
    """Sampled ratios of S against the two curvature-estimate right-hand
    sides on the geodesic ball of radius a about x0.

    ratio29 uses the mean-curvature-only bound; ratio28 additionally uses
    the Gauss-map maximum modulus mu.  Both are finite for space-like
    data; the unspecified absolute constant means only finiteness and
    refinement stability are contractual.
    """
    m, n = gm.m, gm.n
    rf = geodesic_radius(gm, lattice, x0)
    act = lat_mod.active_mask(lattice).ravel()
    pts = lat_mod.node_points(lattice)
    rflat = rf.r.ravel()
    if np.nanmax(rflat[act]) < a:
        raise LatticeError("geodesic ball of radius a exceeds the sampled lattice")
    sel = np.flatnonzero(act & np.isfinite(rflat) & (rflat <= a))
    ref = gauss_map(gm, np.asarray(x0, dtype=float))

    geo = graph_geometry(gm, pts[sel], 2)
    mu_d, d_fails = _distances(SpacelikePlane(geo.A), ref)
    geo.fails.then(d_fails).raise_first()  # space-like samples have space-like planes
    S, H = geo.S, geo.H_norm
    h_bar = float(H.max(initial=0.0))
    mu = float(mu_d.max(initial=0.0))
    r = rflat[sel]

    num = S * (a**2 - r**2) ** 2
    den29 = (m**2 * n**2 * h_bar**2 * a**4 + m * n * (m - 1) * h_bar * a**3
             + 2 * n * (m + 4) * a**2)
    ratio29 = float(np.max(num / den29)) if den29 > 0 else 0.0
    bracket = 0.0
    if mu > 0:
        w = 2.0 + mu**2 / n
        bracket = ((8 * mu * a + m * a**2 * h_bar) ** 2 * mu**4 / w**2
                   + (2 * (m + 4) * a**2 + m * (m - 1) * h_bar * a**3) * mu**2 / w)
    ratio28 = float(np.max(num / bracket)) if bracket > 0 else 0.0
    return BallReport(center=np.asarray(x0, dtype=float), radius=float(a),
                      points=pts[sel], r=r, S=S, H_norm=H, mu_dist=mu_d,
                      mu=mu, h_bar=h_bar, ratio29=ratio29, ratio28=ratio28)


# ---------------------------------------------------------------------------
# Bernstein decay scan

@dataclass
class ScanConfig:
    nodes: int = 65            # nodes per axis (fixed-nodes policy)
    policy: str = "fixed-nodes"  # or "fixed-spacing"
    spacing: float = 0.25
    domain: str = "disc"       # or "box"
    tol: float = 1e-10
    max_iter: int = 40
    center_fraction: float = 0.25


@dataclass
class DecayScanRow:
    a: float
    s_center: float        # max S over the center region |x| <= fraction * a
    s_center_node: float   # S at the node nearest the exact center
    nodes: int
    spacing: float
    status: str


@dataclass
class DecayScan:
    rows: list
    slope: float | None
    slope_kind: str      # 'fit' | 'exact-zero' | 'insufficient'


def decay_scan(boundary: Expr, radii, cfg: ScanConfig = None) -> DecayScan:
    """Solve the maximal-surface problem on nested discs with the
    blow-down data family a * g(x/a) and record the decay of S near the
    center.  Returns the per-radius table and the fitted log-log slope; a
    radius whose lattice or solve fails, or whose center region holds no
    node, gets a status other than "ok".
    """
    cfg = cfg or ScanConfig()
    rows = []
    for a in map(float, radii):
        nodes = int(round(2 * a / cfg.spacing)) + 1 if cfg.policy == "fixed-spacing" else cfg.nodes
        row = DecayScanRow(a=a, s_center=np.nan, s_center_node=np.nan, nodes=nodes,
                           spacing=2 * a / (nodes - 1) if nodes > 1 else np.nan, status="ok")
        rows.append(row)

        def data(pts, _a=a):
            return _a * eval_values(boundary, np.asarray(pts) / _a)

        try:
            lat = Lattice.box((-a, -a), (a, a), nodes) if cfg.domain == "box" else Lattice.disc(a, nodes)
            fld, _ = solve_maximal(lat, data, tol=cfg.tol, max_iter=cfg.max_iter)
        except (SolverError, LatticeError, DomainError) as err:
            kind = "domain-error" if isinstance(err, DomainError) else "solver-failed"
            row.status = f"{kind}: {err}"
            continue
        _, pts, S, _ = field_immersion_geometry(fld)
        rad = np.linalg.norm(pts, axis=1)
        region = rad <= cfg.center_fraction * a
        row.s_center_node = float(S[np.argmin(rad)])
        if region.any():
            row.s_center = float(np.max(S[region]))
        else:
            row.status = f"empty-center: no node with |x| <= {cfg.center_fraction:g} a"
    good = [(row.a, row.s_center) for row in rows if row.status == "ok" and np.isfinite(row.s_center)]
    if len(good) >= 2 and max(s for _, s in good) > 1e-10:
        loga = np.log([a for a, _ in good])
        logs = np.log([max(s, 1e-300) for _, s in good])
        slope = float(np.polyfit(loga, logs, 1)[0])
        kind = "fit"
    elif good:
        slope, kind = None, "exact-zero"
    else:
        slope, kind = None, "insufficient"
    return DecayScan(rows=rows, slope=slope, slope_kind=kind)


# ---------------------------------------------------------------------------
# Completeness probe along geodesics

@dataclass
class ProbeReport:
    direction: np.ndarray
    t: np.ndarray
    z: np.ndarray
    ratio: np.ndarray        # |grad z| / (z + 1) along the path
    b_emp: float             # sup log(z + 1) / t
    ratio_sup: float
    status: str


def completeness_probe(gm: GraphMap, directions, T: float, n_samples: int = 200,
                       region_halfwidth: float = np.inf) -> list[ProbeReport]:
    """Integrate unit-speed geodesics from the origin (integrate_geodesic:
    one ODE for the directions still inside the box, restarted at each
    exit), and compare the empirical growth exponent of z + 1 against the
    sampled supremum of |grad z| / (z + 1); the integrated gradient estimate
    forces b_emp <= ratio_sup (up to quadrature error).  A direction that
    leaves the box |x_i| <= region_halfwidth (> 0; inf, the default, is no
    box) is sampled up to its own exit and reported "left-region"; one that
    stops before T without leaving (the integrator failed) is reported
    "integration-failed: <message>".  T > 0 is finite, each direction finite
    and nonzero, and n_samples >= 1."""
    _check_base_point(gm)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    m, directions = gm.m, np.array(directions, dtype=float).reshape(-1, gm.m)
    sol = integrate_geodesic(gm, np.zeros(m), directions, (0.0, T),
                             region_halfwidth=region_halfwidth)
    ts = np.linspace(0.0, sol.t_end, n_samples + 1, axis=1)[:, 1:]
    pd = pseudo_distance(gm, np.concatenate([sol.state(j, t)[:m].T for j, t in enumerate(ts)]))
    zs, ratios = pd.z.reshape(ts.shape), pd.ratio.reshape(ts.shape)
    exited = [len(te) > 0 for te in sol.t_events]

    def status(end, left):
        if end >= T * (1 - 1e-9):
            return "ok"
        return "left-region" if left else f"integration-failed: {sol.message}"

    return [ProbeReport(direction=d, t=t, z=z, ratio=ratio,
                        b_emp=float(np.max(np.log(z + 1.0) / t)), ratio_sup=float(ratio.max()),
                        status=status(end, left))
            for d, t, z, ratio, end, left in zip(directions, ts, zs, ratios, sol.t_end, exited)]
