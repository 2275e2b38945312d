import re

import numpy as np
import pytest

from conftest import convex_sample
from oracles import moduli_ricci_from_riemann
from spacelike.exprparse import DomainError
from spacelike.graphgeom import first_bianchi_residual
from spacelike.jets import evaluate_jet
from spacelike.lagrangian import (
    NotConvexError, Potential, gradient_graph, lagrangian_forms, ma_residual,
    moduli_curvature, moduli_curvature_oracle, null_to_standard_matrix, to_standard,
)


# -- gradient graph ------------------------------------------------------------

def test_quadratic_metric_identity():
    P = Potential.from_string(2, "0.5*(x1^2+x2^2)")
    for x in ([0.0, 0.0], [1.3, -0.7]):
        gg = gradient_graph(P, x)
        assert np.allclose(gg.metric, np.eye(2))
        assert gg.convex


def test_quartic_metric_1d():
    P = Potential.from_string(1, "x1^4")
    gg = gradient_graph(P, [1.0])
    assert np.isclose(gg.metric[0, 0], 12.0)


def test_metric_is_jet_hessian():
    rng = np.random.default_rng(6)
    P, x = convex_sample(rng, 50)
    gg = gradient_graph(P, x)
    assert np.array_equal(gg.metric, evaluate_jet(P.F, x).hess)


def test_null_form_frame_identities():
    # <e_i, e_j> = F_ij, <n_i, n_j> = -F_ij, <e_i, n_j> = 0 exactly under
    # Q((u,v),(u',v')) = (u.v' + u'.v)/2
    rng = np.random.default_rng(9)
    P, x = convex_sample(rng, 50)
    g = gradient_graph(P, x).metric
    m = P.m
    eye = np.eye(m)
    E = np.hstack([eye, g])
    N = np.hstack([eye, -g])

    def q_inner(u, v):
        return 0.5 * (u[:m] @ v[m:] + v[:m] @ u[m:])

    for i in range(m):
        for j in range(m):
            assert np.isclose(q_inner(E[i], E[j]), g[i, j], atol=1e-15)
            assert np.isclose(q_inner(N[i], N[j]), -g[i, j], atol=1e-15)
            assert np.isclose(q_inner(E[i], N[j]), 0.0, atol=1e-15)


def test_non_convex_flagged():
    P = Potential.from_string(1, "-(x1^2)")
    assert not gradient_graph(P, [0.0]).convex
    with pytest.raises(NotConvexError):
        lagrangian_forms(P, [0.0])


# -- forms ----------------------------------------------------------------------

def test_forms_quadratic_zero():
    P = Potential.from_string(2, "0.5*(2*x1^2 + x2^2)")
    lf = lagrangian_forms(P, [0.3, -0.8])
    assert np.allclose(lf.B_coeff, 0.0)
    assert np.allclose(lf.H_coeff, 0.0)
    assert lf.S == 0.0 and lf.H_norm == 0.0


def test_forms_quartic_1d_hand_values():
    P = Potential.from_string(1, "x1^4")
    lf = lagrangian_forms(P, [1.0])
    # B coefficient on n_1: -(1/2) * 24 * (1/12) = -1
    assert np.isclose(lf.B_coeff[0, 0, 0], -1.0)
    # H coefficient: -(1/(2*12)) * 24 * (1/12) = -1/12
    assert np.isclose(lf.H_coeff[0], -1.0 / 12.0)
    # frame-invariant norms
    assert np.isclose(lf.S, 1.0 / 12.0)
    assert np.isclose(lf.H_norm, 1.0 / np.sqrt(12.0))
    # Jacobi: d_l ln det g = g^{ij} F_ijl, against central differences of ln det g
    x, shifts = np.array([1.0]), 1e-6 * np.eye(P.m)
    jet = evaluate_jet(P.F, x)
    dlog = np.einsum("ij,ijl->l", np.linalg.inv(jet.hess), jet.third)
    dp, dm = (np.linalg.det(evaluate_jet(P.F, x + s * shifts).hess) for s in (1, -1))
    assert np.max(np.abs((np.log(dp) - np.log(dm)) / 2e-6 - dlog)) <= 1e-6


def test_ma_residual_values():
    assert ma_residual(Potential.from_string(2, "0.5*(x1^2+x2^2)", c=1.0), [0.4, 0.2]) == 0.0
    assert ma_residual(Potential.from_string(2, "0.5*(2*x1^2+x2^2)", c=2.0), [1.0, 1.0]) == 0.0
    assert np.isclose(ma_residual(Potential.from_string(1, "x1^4", c=1.0), [1.0]), 11.0)


def test_mean_curvature_vanishes_iff_ma_residual_does():
    # determinant-preserving potential: F with det Hess F = 1 identically
    # (separable 1d pieces won't do; use F = 0.5(x1^2 + x2^2) rotated/sheared)
    P = Potential.from_string(2, "0.5*(x1^2+x2^2) + 0.3*x1*x2", c=1.0 - 0.09)
    for x in ([0.0, 0.0], [0.5, -0.2]):
        assert abs(ma_residual(P, x)) <= 1e-12
        assert lagrangian_forms(P, x).H_norm <= 1e-12
    # and a potential with nonconstant determinant has H != 0 where det varies
    Q = Potential.from_string(1, "x1^4", c=12.0)
    assert abs(ma_residual(Q, [1.1])) > 1e-3
    assert lagrangian_forms(Q, [1.1]).H_norm > 1e-3


# -- cross-module route -----------------------------------------------------------

def test_standard_transform_is_isometry():
    m = 3
    T = null_to_standard_matrix(m)
    eta = np.diag([1.0] * m + [-1.0] * m)
    Q = np.zeros((2 * m, 2 * m))
    Q[:m, m:] = 0.5 * np.eye(m)
    Q[m:, :m] = 0.5 * np.eye(m)
    assert np.allclose(T.T @ eta @ T, Q, atol=1e-15)


def test_quadratic_standard_graph_flat():
    P = Potential.from_string(2, "0.5*(x1^2+x2^2)")
    si = to_standard(P, [0.7, -0.1])
    assert si.S <= 1e-15
    assert si.H_norm <= 1e-15


def test_cross_module_quartic_1d():
    P = Potential.from_string(1, "x1^4")
    lf = lagrangian_forms(P, [1.0])
    si = to_standard(P, [1.0])
    assert abs(si.S - lf.S) <= 1e-12
    assert abs(si.H_norm - lf.H_norm) <= 1e-12
    # metric agreement: <e_i, e_j> transported equals Hess F
    assert np.allclose(si.g, gradient_graph(P, [1.0]).metric, atol=1e-12)


def test_cross_module_random_quartics():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        P, x = convex_sample(rng, 50)
        lf = lagrangian_forms(P, x)
        si = to_standard(P, x)
        worst = np.maximum(worst, abs(si.S - lf.S) / (1 + lf.S))
        worst = np.maximum(worst, abs(si.H_norm - lf.H_norm) / (1 + lf.H_norm))
    assert worst <= 1e-8


# -- moduli curvature --------------------------------------------------------------

def test_moduli_quadratic_exactly_zero():
    P = Potential.from_string(2, "0.5*(3*x1^2 + x2^2) + 0.2*x1*x2")
    mc = moduli_curvature(P, [0.4, 0.6])
    assert np.all(mc.riemann == 0.0)
    assert np.all(mc.ricci == 0.0)
    assert mc.scalar == 0.0


def test_moduli_1d_riemann_vanishes():
    P = Potential.from_string(1, "x1^4 + 0.5*x1^2")
    mc = moduli_curvature(P, [0.8])
    assert np.all(mc.riemann == 0.0)


def test_moduli_tensor_symmetries_and_bianchi():
    rng = np.random.default_rng(99)
    P, x = convex_sample(rng, 50)
    R = moduli_curvature(P, x).riemann
    scale = 1 + np.max(np.abs(R))
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) <= 1e-12 * scale
    assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= 1e-12 * scale
    assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) <= 1e-12 * scale
    assert first_bianchi_residual(R) <= 1e-10 * scale


def test_moduli_matches_intrinsic_oracle():
    rng = np.random.default_rng(101)
    worst_r = worst_ric = 0.0
    for _ in range(12):
        P, x = convex_sample(rng, 50)
        mc = moduli_curvature(P, x)
        oracle = moduli_curvature_oracle(P, x)
        scale = max(np.max(np.abs(oracle)), 1e-10)
        worst_r = np.maximum(worst_r, np.max(np.abs(mc.riemann - oracle)) / scale)
        ric_oracle = moduli_ricci_from_riemann(gradient_graph(P, x).metric_inv, oracle)
        ric_scale = max(np.max(np.abs(ric_oracle)), 1e-10)
        worst_ric = np.maximum(worst_ric, np.max(np.abs(mc.ricci - ric_oracle)) / ric_scale)
    assert worst_r <= 1e-6
    assert worst_ric <= 1e-6


@pytest.mark.parametrize("text, x, error", [
    ("x1^2 - x2^2 + 0.1*x1^3*x2", [0.1, 0.2], NotConvexError),
    ("x1^2 + x2^2 + log(x1)", [-0.1, 0.2], DomainError),     # zero jets: not convex too
    ("x2^2 - x1^2 + log(x1)", [5e-5, 0.2], NotConvexError),  # and a shifted point fails
    ("x1^2 + x2^2 - log(x1)", [5e-5, 0.2], None),            # only a shifted point fails
])
def test_moduli_oracle_checks_as_moduli_curvature_does(text, x, error):
    # the oracle raises what moduli_curvature raises, then a shifted point's DomainError
    P = Potential.from_string(2, text)
    if error is None:
        moduli_curvature(P, x)
        with pytest.raises(DomainError, match="log argument out of range"):
            moduli_curvature_oracle(P, x)
    else:
        with pytest.raises(error) as raised:
            moduli_curvature(P, x)
        with pytest.raises(error, match=re.escape(str(raised.value))):
            moduli_curvature_oracle(P, x)


def test_hessian_whose_smallest_eigenvalue_overflows_is_a_domain_error():
    # Hess F = -1e308 [[1, 1], [1, 1]] is finite; its eigenvalue -2e308 is not
    with pytest.raises(DomainError, match=re.escape("non-finite metric (overflow)")):
        gradient_graph(Potential.from_string(2, "-5e307*(x1+x2)^2"), [0.0, 0.0])


def test_mean_curvature_controlled_by_ma_residual_on_lattice():
    # on a sampled box, max |H| <= C * max |det Hess F - c| with a modest C
    for eps in (1e-3, 1e-2):
        P = Potential.from_string(2, f"0.5*(x1^2+x2^2) + ({eps!r})*x1^3", c=1.0)
        xs = np.linspace(-0.3, 0.3, 7)
        delta = 0.0
        h_max = 0.0
        for a in xs:
            for b in xs:
                delta = np.maximum(delta, abs(ma_residual(P, [a, b])))
                h_max = np.maximum(h_max, lagrangian_forms(P, [a, b]).H_norm)
        C = h_max / delta
        assert np.isfinite(C) and C <= 10.0


def test_moduli_ricci_nonnegative_when_ma_holds():
    # det Hess F constant implies the first Ricci term drops and the rest is PSD
    P = Potential.from_string(2, "0.5*(x1^2+x2^2) + 0.3*x1*x2", c=0.91)
    mc = moduli_curvature(P, [0.5, -0.3])
    assert mc.min_ricci_eig >= -1e-12
