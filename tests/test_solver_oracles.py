"""Oracles for the solvers' fixed costs: the index setup of _Ops and the
JSON field writer must reproduce, array for array and byte for byte, the
straightforward constructions kept here as references."""

import itertools
import json

import numpy as np
import pytest

from spacelike import lattice as lm
from spacelike import solver
from spacelike.lattice import Lattice
from spacelike.solver import GridField, save_field


def reference_nested_dissection(multi):
    """Nested dissection by per-level digits and one lexsort: every node
    records, per bisection level, whether it fell in the lower half (0),
    the upper half (1) or the separator plane (2) of its box; sorting by
    the digit strings orders each box as lower half, upper half, plane."""
    K = multi.shape[0]
    rows = np.arange(K)
    lo = np.tile(multi.min(axis=0), (K, 1))
    hi = np.tile(multi.max(axis=0), (K, 1))
    open_ = np.ones(K, dtype=bool)
    digits = []
    while open_.any():
        d = np.argmax(hi - lo, axis=1)
        a, b, c = lo[rows, d], hi[rows, d], multi[rows, d]
        mid = (a + b) // 2
        split = open_ & (b - a >= 2)
        lower, upper = split & (c < mid), split & (c > mid)
        digits.append(np.select([lower, upper, split], [0, 1, 2], 0))
        hi[rows, d] = np.where(lower, mid - 1, b)
        lo[rows, d] = np.where(upper, mid + 1, a)
        open_ = lower | upper
    return np.lexsort([rows] + digits[::-1])


def reference_pattern(lat):
    """(perm, jac_entries, jac_indices, jac_indptr) of the Jacobian's CSC
    pattern: every interior pair within a +-1 cube, stored as P J P^T and
    sorted by (column, row) with a two-key lexsort."""
    grid = lm.interior_mask(lat)
    int_flat = np.flatnonzero(grid)
    K = int_flat.size
    int_id = np.full(grid.size, -1, dtype=int)
    int_id[int_flat] = np.arange(K)
    multi = np.array(np.unravel_index(int_flat, lat.shape)).T
    alpha, beta, offset = [], [], []
    for o, off in enumerate(itertools.product((-1, 0, 1), repeat=lat.m)):
        nb = int_id[int_flat + int(np.dot(lm.strides(lat), off))]
        alpha.append(np.flatnonzero(nb >= 0))
        beta.append(nb[nb >= 0])
        offset.append(np.full(alpha[-1].size, o))
    alpha, beta, offset = map(np.concatenate, (alpha, beta, offset))
    perm = reference_nested_dissection(multi)
    rank = np.empty(K, dtype=int)
    rank[perm] = np.arange(K)
    order = np.lexsort((rank[alpha], rank[beta]))
    entries = offset[order] * K + alpha[order]
    indices = rank[alpha[order]]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rank[beta], minlength=K))])
    return perm, entries, indices, indptr


@pytest.mark.parametrize("lat", [
    Lattice.box((0.0,), (1.0,), 11),
    Lattice.box((-1, -1), (1, 0.5), (7, 9)),
    Lattice.box((-1, -1, -1), (1, 1, 1), (5, 6, 4)),
    Lattice.disc(1.0, 17),
    Lattice.annulus(0.5, 2.0, 21),
    Lattice.box((-1, -1, -1), (1, 1, 1), 9),
    Lattice.box((-1, -1), (1, 1), (40, 23)),
    Lattice.box((0.0,), (1.0,), 50),
    Lattice((-1, -1), (1, 1), (129, 129), ("annulus", 0.3, 1.0)),
], ids=["box-m1", "box-m2", "box-m3", "disc", "annulus", "box-9^3", "box-40x23", "box-m1-50",
        "annulus-129"])
def test_ops_pattern_matches_the_reference(lat):
    ops = solver._Ops(lat)
    for name, ref in zip(("perm", "jac_entries", "jac_indices", "jac_indptr"), reference_pattern(lat)):
        got = getattr(ops, name)
        assert got.shape == ref.shape and np.array_equal(got, ref), name


def reference_json(field):
    """The JSON field file as json.dump(indent=1) writes it."""
    vals = field.values.ravel()
    payload = {
        "meta": {"kind": "field"},
        "lattice": solver._lattice_to_dict(field.lattice),
        "values": np.where(np.isfinite(vals), vals.astype(object), None).tolist(),
    }
    return json.dumps(payload, indent=1) + "\n"


SPECIALS = [np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, 0.1 + 0.2,
            1.0 / 3.0, 2.0 / 3.0, 1e16, 1.5e-7, 123456789.01234567, 1.0, -2.0]


@pytest.mark.parametrize("lat", [
    Lattice.box((0.0,), (1.0,), 40),
    Lattice.box((-1, -1, -1), (1, 1, 1), (5, 6, 4)),
    Lattice.disc(1.0, 17),
    Lattice.box((-1, -1), (1, 1), (9, 7)),
    Lattice((-1, -1), (1, 1), (129, 129), ("annulus", 0.3, 1.0)),
], ids=["m1", "m3", "disc", "box-m2", "annulus-129"])
def test_json_field_file_is_json_dump_with_indent_1(tmp_path, lat):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(lat.shape) * 10.0 ** rng.integers(-20, 20, lat.shape)
    vals.ravel()[:len(SPECIALS)] = SPECIALS
    vals[~lm.active_mask(lat)] = np.nan
    field = GridField(lat, vals)
    path = tmp_path / "field.json"
    save_field(field, str(path), "json")
    assert path.read_bytes() == reference_json(field).encode()
