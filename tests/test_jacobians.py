"""The lattice solvers' Jacobians against a colored complex-step reference.

Interior nodes whose multi-indices agree mod 3 on every axis share a color,
and no two of them lie in one +-1 cube, so one complex step per color gives
every entry of a Jacobian of stencil width 1 (Curtis, Powell and Reid's
column grouping with Squire and Trapp's complex step)."""

import numpy as np
import pytest

from spacelike import lattice as lm
from spacelike import solver
from spacelike.lattice import Lattice

EPS = 1e-50


def complex_step_jacobian(ops, res_of_int, u_int):
    """The dense (K, K) Jacobian of ``res_of_int`` (complex-safe, a function
    of the interior values) at ``u_int``, in the interior's C order."""
    multi = np.array(np.unravel_index(ops.int_flat, ops.lattice.shape)).T
    colors = (multi % 3) @ 3 ** np.arange(ops.m)
    near = np.max(np.abs(multi[:, None] - multi[None]), axis=-1) <= 1
    jac = np.zeros((ops.K, ops.K))
    for c in np.unique(colors):
        probe = u_int.astype(complex)
        probe[colors == c] += 1j * EPS
        column = res_of_int(probe).imag / EPS
        hit = near & (colors == c)
        jac[hit] = np.broadcast_to(column[:, None], jac.shape)[hit]
    return jac


def dense(ops, csc):
    """The (K, K) Jacobian J, in the interior's C order, from P J P^T."""
    rank = np.argsort(ops.perm)
    return csc.toarray()[np.ix_(rank, rank)]


def assert_close(jac, ref):
    assert np.all(np.isfinite(jac))
    assert np.max(np.abs(jac - ref)) <= 1e-13 * np.max(np.abs(ref))


MAXIMAL_LATTICES = [
    Lattice.box((0.0,), (1.0,), 11),
    Lattice.box((-1, -1), (1, 0.5), (7, 9)),
    Lattice.box((-1, -1, -1), (1, 1, 1), (5, 6, 4)),
    Lattice.disc(1.0, 17),
    Lattice.annulus(0.5, 2.0, 21),
]
MAXIMAL_IDS = ["box-m1", "box-m2", "box-m3", "disc", "annulus"]


def maximal_field(lat):
    """A space-like field, steep outside the mask, where no interior node's
    face reads it."""
    pts = lm.node_points(lat)
    u = 0.2 * pts.sum(axis=1) + 0.1 * np.sin(2 * pts[:, 0]) + 0.01 * np.cos(7 * pts[:, -1])
    outside = ~lm.active_mask(lat).ravel()
    u[outside] = 50.0 * pts[outside, 0]
    return u


@pytest.mark.parametrize("lam", [0.0, 0.8, 1.0])
@pytest.mark.parametrize("lat", MAXIMAL_LATTICES, ids=MAXIMAL_IDS)
def test_maximal_jacobian_matches_complex_step(lat, lam):
    ops = solver._Ops(lat)
    u = maximal_field(lat)

    def res_of_int(u_int):
        return solver._maximal_residual(ops, solver._full_from_interior(ops, u, u_int), lam)

    ref = complex_step_jacobian(ops, res_of_int, u[ops.int_flat])
    assert_close(dense(ops, solver._jacobian_matrix(ops, solver._maximal_jacobian(ops, u, lam))), ref)


@pytest.mark.parametrize("lam", [0.0, 0.8, 1.0])
@pytest.mark.parametrize("lat", MAXIMAL_LATTICES, ids=MAXIMAL_IDS)
def test_maximal_dlam_matches_complex_step(lat, lam):
    ops = solver._Ops(lat)
    u = maximal_field(lat)
    ref = solver._maximal_residual(ops, u.astype(complex), lam + 1j * EPS).imag / EPS
    dlam = solver._maximal_dlam(ops, u, lam)
    assert np.max(np.abs(dlam - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("lat", [
    Lattice.box((0.0,), (1.0,), 11),
    Lattice.box((-1, -1), (1, 0.5), (7, 9)),
    Lattice.box((-1, -1, -1), (1, 1, 1), (5, 6, 4)),
], ids=["m1", "m2", "m3"])
def test_ma_jacobian_matches_complex_step(lat):
    # convex and not quadratic: the Hessian is I plus a positive rank-one
    # term, minus at most 0.05 I
    ops = solver._Ops(lat)
    pts = lm.node_points(lat)
    u = (0.5 * np.sum(pts**2, axis=1) + 0.1 * np.exp(0.5 * pts[:, 0] + 0.3 * pts[:, -1])
         + 0.05 * np.sin(pts[:, 0]))

    def res_of_int(u_int):
        return solver._ma_residual(ops, solver._full_from_interior(ops, u, u_int), 1.0)

    ref = complex_step_jacobian(ops, res_of_int, u[ops.int_flat])
    assert_close(dense(ops, solver._jacobian_matrix(ops, solver._ma_jacobian(ops, u, solver._hessian_weights(ops)))), ref)
