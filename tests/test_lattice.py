import itertools
import json

import numpy as np
import pytest

import spacelike.lattice as lm
from spacelike.lattice import Lattice

LATTICES = {
    "m1-box": Lattice.box((-1,), (1,), 7),
    "m1-disc": Lattice((-1.0,), (1.0,), (9,), mask=("disc", 0.6)),
    "m2-box": Lattice.box((-1, -1), (1, 2), (6, 9)),
    "m2-disc": Lattice.disc(1.0, 13),
    "m2-annulus": Lattice.annulus(0.4, 1.0, 15),
    "m2-disconnected-annulus": Lattice((-2.0, -2.0), (2.0, 2.0), (13, 13),
                                       mask=("annulus", 2.45, 4.0)),
    "m3-box": Lattice.box((-1,) * 3, (1,) * 3, 5),
    "m3-disc": Lattice((-1.0,) * 3, (1.0,) * 3, (7,) * 3, mask=("disc", 0.9)),
    "m3-annulus": Lattice((-1.0,) * 3, (1.0,) * 3, (9,) * 3, mask=("annulus", 0.5, 1.0)),
}


def _cube_all_reference(mask, margin):
    """cube_all by a per-node loop over the +-margin cube."""
    out = np.zeros(mask.shape, dtype=bool)
    for idx in itertools.product(*(range(n) for n in mask.shape)):
        cube = (tuple(i + o for i, o in zip(idx, off))
                for off in itertools.product(range(-margin, margin + 1), repeat=mask.ndim))
        out[idx] = all(all(0 <= c < n for c, n in zip(nb, mask.shape)) and mask[nb]
                       for nb in cube)
    return out


@pytest.mark.parametrize("name", LATTICES)
def test_roles_match_per_node_neighbourhood_loop(name):
    lat = LATTICES[name]
    act = lm.active_mask(lat)
    inter = _cube_all_reference(act, 1)
    assert np.array_equal(lm.interior_mask(lat), inter)
    assert np.array_equal(lm.boundary_mask(lat), act & ~inter)
    assert not np.any(lm.boundary_mask(lat) & lm.interior_mask(lat))


def test_cube_all_matches_loop_at_margin_2():
    mask = np.random.default_rng(3).random((9, 8)) < 0.9
    assert np.array_equal(lm.cube_all(mask, 2), _cube_all_reference(mask, 2))


@pytest.mark.parametrize("shape", [(3,), (4, 6), (5, 5, 5)])
def test_cube_all_margin_at_least_shape_is_all_false(shape):
    mask = np.ones(shape, dtype=bool)
    for margin in (max(shape), max(shape) + 3):
        out = lm.cube_all(mask, margin)
        assert out.shape == shape and not out.any()


def test_cached_arrays_are_read_only():
    lat = Lattice.disc(1.0, 9)
    for fn in (lm.node_points, lm.active_mask, lm.boundary_mask, lm.interior_mask):
        arr = fn(lat)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
        assert fn(lat) is arr


def test_central_gradient_and_hessian_exact_for_quadratic_keep_dtype():
    lat = Lattice.box((-1, -1, -1), (1, 2, 1), (5, 7, 6))
    x = lm.node_points(lat)
    u = x[:, 0] ** 2 + 3 * x[:, 0] * x[:, 2] - x[:, 1] * x[:, 2]
    flat = np.flatnonzero(lm.interior_mask(lat))
    grad = lm.central_gradient(u + 1j * x[:, 1], lat, flat)
    hess = lm.central_hessian(u + 1j * x[:, 1], lat, flat)
    assert grad.dtype == hess.dtype == complex
    p = x[flat]
    want = np.stack([2 * p[:, 0] + 3 * p[:, 2], -p[:, 2], 3 * p[:, 0] - p[:, 1]], axis=-1)
    assert np.allclose(grad.real, want, atol=1e-12)
    assert np.allclose(grad.imag, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(hess.real, [[2, 0, 3], [0, 0, -1], [3, -1, 0]], atol=1e-12)
    assert np.allclose(hess.imag, 0.0, atol=1e-12)


def _unscaled_active(lat):
    """The disc or annulus mask from the unscaled radii |x|."""
    r, eps = np.linalg.norm(lm.node_points(lat), axis=1), 1e-9 * max(lat.spacing)
    inner = lat.mask[1] - eps if lat.mask[0] == "annulus" else -np.inf
    return ((r >= inner) & (r <= lat.mask[-1] + eps)).reshape(lat.shape)


@pytest.mark.parametrize("name", [name for name, lat in LATTICES.items() if lat.mask])
def test_scaled_radii_select_the_nodes_of_the_unscaled_ones(name):
    lat = LATTICES[name]
    assert np.array_equal(lm.active_mask(lat), _unscaled_active(lat))


def test_masks_of_huge_radii_do_not_overflow():
    # |x|^2 overflows at these radii; the masks are those of radius 1, with
    # interior nodes, and no RuntimeWarning is raised
    for small, huge in ((Lattice.disc(1.0, 9), Lattice.disc(1e200, 9)),
                        (Lattice.annulus(0.5, 2.0, 17), Lattice.annulus(0.5e200, 2e200, 17))):
        assert np.array_equal(lm.active_mask(huge), lm.active_mask(small))
        assert lm.interior_mask(huge).any()


@pytest.mark.parametrize("mask", [
    ("annulus", 2.0, 1.0), ("annulus", 1.0, 1.0), ("annulus", 0.0, 1.0), ("disc", -1.0),
    ("disc", 0.0), ("disc", float("inf")), ("disc", float("nan")), ("annulus", 0.5, float("inf")),
    ("ring", 1.0), ("disc",), ("disc", 1.0, 2.0), ("annulus", 1.0),
])
def test_a_mask_without_nodes_to_select_is_rejected_when_built(mask, tmp_path):
    # these once built lattices of 0 active nodes, or failed only in active_mask
    with pytest.raises(lm.LatticeError):
        Lattice((-1.0, -1.0), (1.0, 1.0), (9, 9), mask)
    from spacelike.solver import load_field

    path = tmp_path / "field.json"
    path.write_text(json.dumps({"lattice": {"lo": [-1, -1], "hi": [1, 1], "shape": [3, 3],
                                            "mask": list(mask)}, "values": [0.0] * 9}))
    with pytest.raises(lm.LatticeError):
        load_field(str(path))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cube_offsets_are_the_product_order(m):
    ref = np.array(list(itertools.product((-1, 0, 1), repeat=m)))
    got = lm.cube_offsets(m)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    # the rows after the centre are the offsets whose first nonzero entry is +1
    assert np.array_equal(got[(3**m + 1) // 2:], [off for off in ref if tuple(off) > (0,) * m])
