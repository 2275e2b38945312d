import itertools
import json
import re

import numpy as np
import pytest

from spacelike import lattice as lm
from spacelike import solver
from spacelike.cli import main
from spacelike.exprparse import DomainError, eval_values, parse
from spacelike.lattice import Lattice
from spacelike.solver import (
    ConvergenceLog, GridField, SolverError, field_immersion_geometry, field_jet2, field_third,
    load_field, save_field, solve_ma, solve_maximal,
)


def catenoid_expr():
    return parse("asinh(sqrt(x1^2+x2^2))", 2)


def catenoid_values(pts):
    r = np.linalg.norm(pts, axis=1)
    return np.arcsinh(r)


# -- maximal surface -----------------------------------------------------------

def test_affine_boundary_exact():
    lat = Lattice.box((-1, -1), (1, 1), 17)
    fld, log = solve_maximal(lat, parse("0.3*x1 - 0.2*x2 + 0.5", 2))
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1).reshape(-1, 2)
    exact = 0.3 * pts[:, 0] - 0.2 * pts[:, 1] + 0.5
    assert np.max(np.abs(fld.values.ravel() - exact)) <= 1e-12
    assert log.final_residual <= 1e-12


def _catenoid_error(nodes):
    lat = Lattice.annulus(0.5, 2.0, nodes)
    fld, log = solve_maximal(lat, catenoid_expr(), tol=1e-11)
    act = np.isfinite(fld.values)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1)
    exact = np.arcsinh(np.linalg.norm(pts, axis=-1))
    return float(np.max(np.abs(fld.values - exact)[act])), log


def test_catenoid_convergence_order():
    errs = {}
    for nodes in (65, 129, 257):  # h = 1/16, 1/32, 1/64 on [-2, 2]
        errs[nodes], _ = _catenoid_error(nodes)
    p1 = np.log2(errs[65] / errs[129])
    p2 = np.log2(errs[129] / errs[257])
    assert 1.7 <= p1 <= 2.3
    assert 1.7 <= p2 <= 2.3


def test_catenoid_newton_superlinear_tail():
    _, log = _catenoid_error(65)
    hist = [step[2] for step in log.steps if step[0] == 1.0]
    # drop the recorded initial residual, keep accepted iterations
    hist = [h for h in hist if h > 0]
    assert len(hist) >= 3
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1) if hist[i] > 1e-14]
    assert ratios[-1] < 0.1 * (1 + ratios[0])


@pytest.mark.parametrize("lat, data", [
    (Lattice.annulus(0.5, 2.0, 33), "asinh(sqrt(x1^2+x2^2))"),
    (Lattice.annulus(0.5, 2.0, 65), "asinh(sqrt(x1^2+x2^2))"),
    (Lattice.annulus(0.5, 2.0, 97), "asinh(sqrt(x1^2+x2^2))"),
    (Lattice.box((-1, -1), (1, 1), 17), "0.3*x1 - 0.2*x2 + 0.5"),
], ids=["catenoid-33", "catenoid-65", "catenoid-97", "affine-17"])
def test_final_residual_is_the_residual_of_the_returned_field(lat, data):
    fld, log = solve_maximal(lat, parse(data, 2))
    fresh = solver._maximal_residual(solver._Ops(lat), fld.values.ravel(), 1.0)
    assert log.final_residual == float(np.max(np.abs(fresh)))


def test_maximum_principle_spot_check():
    # affine plus a nonnegative boundary bump: interior values stay within
    # the range of the boundary data
    lat = Lattice.box((-1, -1), (1, 1), 33)
    expr = parse("0.2*x1 + 0.1*(1 - x1^2)*(1 - x2^2) + 0.05*cos(x2)", 2)
    fld, _ = solve_maximal(lat, expr)
    bvals = fld.values.ravel()[lm.boundary_mask(lat).ravel()]
    interior = fld.values.ravel()[lm.interior_mask(lat).ravel()]
    assert interior.max() <= bvals.max() + 0.15 + 1e-9
    assert interior.min() >= bvals.min() - 0.15 - 1e-9


def test_maximal_one_dimensional():
    # the 1d maximal equation forces an affine solution for any admissible data
    lat = Lattice.box((0.0,), (1.0,), 21)
    fld, _ = solve_maximal(lat, parse("0.5*sin(x1)", 1))
    xs = np.asarray(lat.axes()[0])
    line = 0.5 * np.sin(1.0) * xs
    assert np.max(np.abs(fld.values - line)) <= 1e-10


def test_maximal_three_dimensional_smoke():
    lat = Lattice.box((-1, -1, -1), (1, 1, 1), 9)
    fld, log = solve_maximal(lat, parse("0.2*x1 + 0.1*x2*x3", 3))
    assert log.final_residual <= 1e-10
    assert np.all(np.isfinite(fld.values))


# -- Newton's exits: the Laplace stage (lam = 0) runs before the continuation
# ladder, so a failure there is final

def test_newton_converges_on_its_last_allowed_iteration():
    lat = Lattice.box((-1, -1), (1, 1), 9)
    fld, log = solve_maximal(lat, parse("0.3*x1^2", 2), max_iter=1)
    # the linear stage converges on its only iteration; later stages that
    # need more are rejected until the ladder's steps are short enough
    assert [step[:2] for step in log.steps[:2]] == [(0.0, 0), (0.0, 1)]
    assert log.steps[1][2] <= 1e-10 and log.final_residual <= 1e-10
    assert any(kind == "rejected" and detail.endswith("after 1 iterations")
               for _, kind, detail in log.events)


@pytest.mark.parametrize("settings, message", [
    ({"tol": 1e-20, "max_iter": 1}, r"Newton divergence: residual \S+ after 1 iterations"),
    # a tolerance below rounding: no damped step lowers the residual
    ({"tol": 1e-300}, r"step damping floor reached \(safeguard exhausted\)"),
], ids=["divergence", "damping-floor"])
def test_newton_failures_exit_2(tmp_path, capsys, settings, message):
    lat = Lattice.box((-1, -1), (1, 1), 9)
    with pytest.raises(SolverError, match=f"^{message}$"):
        solve_maximal(lat, parse("0.3*x1^2", 2), **settings)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "components": ["0.3*x1^2"], "solver": settings,
                               "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9}}))
    assert main(["solve-maximal", "--config", str(cfg), "--out", str(tmp_path / "f.json")]) == 2
    assert re.fullmatch(f"numerical failure: {message}\n", capsys.readouterr().err)


def test_non_spacelike_data_fails():
    lat = Lattice.box((-1, -1), (1, 1), 17)
    with pytest.raises(SolverError):
        solve_maximal(lat, parse("2*x1", 2))


def test_solver_field_geometry_H_to_zero_under_refinement():
    h_norms = []
    for nodes in (33, 65, 129):
        lat = Lattice.annulus(0.5, 2.0, nodes)
        fld, _ = solve_maximal(lat, catenoid_expr(), tol=1e-11)
        # the nodes nearest three points strictly inside the annulus, right of the hole
        _, node_pts, S, H = field_immersion_geometry(fld)
        pts = np.array([[1.2, 0.0], [1.0, 0.3], [1.5, -0.2]])
        near = np.argmin(np.linalg.norm(node_pts[:, None] - pts, axis=-1), axis=0)
        S, H = S[near], H[near]
        assert np.all(S > 0)
        h_norms.append(np.max(H))
    assert h_norms[2] < h_norms[1] < h_norms[0]
    assert h_norms[2] <= 1e-3


# -- Monge-Ampere ---------------------------------------------------------------

def test_ma_recovers_isotropic_quadratic():
    lat = Lattice.box((-1, -1), (1, 1), 21)
    fld, log = solve_ma(lat, parse("0.5*(x1^2+x2^2)", 2), c=1.0, tol=1e-12)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1).reshape(-1, 2)
    exact = 0.5 * np.sum(pts**2, axis=1)
    assert np.max(np.abs(fld.values.ravel() - exact)) <= 1e-10
    assert log.final_residual <= 1e-10


def test_ma_recovers_anisotropic_quadratic():
    lat = Lattice.box((-1, -1), (1, 1), 21)
    fld, _ = solve_ma(lat, parse("x1^2 + 0.25*x2^2", 2), c=1.0, tol=1e-12)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1).reshape(-1, 2)
    exact = pts[:, 0] ** 2 + 0.25 * pts[:, 1] ** 2
    assert np.max(np.abs(fld.values.ravel() - exact)) <= 1e-10


@pytest.mark.parametrize("m, data, c", [
    (1, "x1^2 + 0.5*x1", 2.0),
    (3, "x1^2 + 0.25*x2^2 + 0.5*x3^2 + 0.25*x1 - 0.5*x3", 1.0),
], ids=["m1", "m3"])
def test_ma_solves_quadratic_data_exactly_off_the_plane(m, data, c):
    # dyadic nodes and coefficients: the discrete Hessian of the data is its
    # Hessian exactly, and the prediction F is the solution
    lat = Lattice.box((-1.0,) * m, (1.0,) * m, 5)
    expr = parse(data, m)
    exact = eval_values(expr, lm.node_points(lat))
    fld, log = solve_ma(lat, expr, c=c)
    assert np.array_equal(fld.values.ravel(), exact)
    assert log.final_residual == 0.0
    # a callable boundary has no prediction: Newton starts from the quadratic
    fld, log = solve_ma(lat, lambda pts: eval_values(expr, pts), c=c)
    assert np.max(np.abs(fld.values.ravel() - exact)) <= 1e-12
    assert log.final_residual <= 1e-10


def test_ma_perturbed_boundary_converges_and_stays_convex():
    lat = Lattice.box((0, 0), (1, 1), 33)
    expr = parse("0.5*(x1^2+x2^2) + 0.1*sin(x1)*sin(x2)", 2)
    fld, log = solve_ma(lat, expr, c=1.0, tol=1e-10)
    assert log.final_residual <= 1e-10
    _, _, hess, _ = field_third(fld)
    eigs = np.linalg.eigvalsh(hess)
    assert eigs[:, 0].min() > 0
    # solution is genuinely non-quadratic
    nodes, pts, _, hess2 = field_jet2(fld)
    assert np.std(hess2[:, 0, 0]) > 1e-4


@pytest.mark.parametrize("lat, data, c", [
    (Lattice.box((-1, -1), (1, 1), 33),
     "0.5*(x1^2+x2^2)+0.08*sin(1.1*x1)*sin(0.9*x2)+0.05*exp(0.6*x1+0.3*x2)", 1.0),
    (Lattice.box((0, 0), (1, 1), 65), "x1^2+0.7*x2^2+0.02*x1^4", 2.8),
    (Lattice.box((-1, -1), (1, 1), 21), "0.5*(x1^2+x2^2) - 0.3*exp(-20*(x1^2+x2^2))", 1.0),
    (Lattice.box((-1,) * 3, (1,) * 3, 9), "0.5*(x1^2+x2^2+x3^2)+0.05*x1^4+0.03*x2^2*x3^2", 1.0),
], ids=["trig-exp-33", "quartic-65", "fallback-21", "m3-9"])
def test_ma_final_residual_is_the_residual_of_the_returned_field(lat, data, c):
    fld, log = solve_ma(lat, parse(data, lat.m), c=c)
    fresh = solver._ma_residual(solver._Ops(lat), fld.values.ravel(), c)
    assert log.final_residual == log.steps[-1][2] == float(np.max(np.abs(fresh)))


def test_ma_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        solve_ma(Lattice.box((0, 0), (1, 1), 9), parse("x1^2+x2^2", 2), c=-1.0)


# -- predicted continuation -------------------------------------------------------

def test_ma_callable_boundary_falls_back_to_the_same_field():
    lat = Lattice.box((0, 0), (1, 1), 17)
    expr = parse("0.5*(x1^2+x2^2) + 0.1*sin(x1)*sin(x2)", 2)
    fld, log = solve_ma(lat, expr, c=1.0, tol=1e-12)
    fld2, log2 = solve_ma(lat, lambda pts: eval_values(expr, pts), c=1.0, tol=1e-12)
    assert log.events == [(1.0, "predicted", "")]
    assert log2.events == [(1.0, "fallback", "boundary data is a callable")]
    assert np.nanmax(np.abs(fld.values - fld2.values)) <= 1e-12


def test_ma_nonconvex_prediction_falls_back():
    # F dips below convexity near |x| = 0.2, so the prediction F is rejected;
    # the boundary data is nearly the quadratic and the solve goes on from it
    lat = Lattice.box((-1, -1), (1, 1), 21)
    fld, log = solve_ma(lat, parse("0.5*(x1^2+x2^2) - 0.3*exp(-20*(x1^2+x2^2))", 2), c=1.0)
    assert (1.0, "fallback", "predicted start lost discrete convexity") in log.events
    assert log.final_residual <= 1e-10


def test_ma_data_undefined_inside_falls_back():
    # the sqrt is real on the boundary (|x| >= 1) and not at |x| < 0.5
    lat = Lattice.box((-1, -1), (1, 1), 21)
    fld, log = solve_ma(lat, parse("0.5*(x1^2+x2^2) + 0.01*sqrt(x1^2+x2^2-0.25)", 2), c=1.0)
    assert [e[1] for e in log.events] == ["fallback"]
    assert log.events[0][2].startswith("boundary data undefined in the interior: ")
    assert log.final_residual <= 1e-10
    assert np.all(np.isfinite(fld.values))


def test_ladder_logs_rejected_stages():
    tried, log = [], ConvergenceLog()

    def stage(param, warm, predicted):
        tried.append(param)
        if len(tried) == 2:
            raise SolverError("Newton divergence")
        return np.zeros(1), None

    solver._adaptive_ladder(stage, log)
    assert tried == [0.0, 1.0, 0.5, 1.0]
    assert log.events == [(1.0, "rejected", "Newton divergence")]


def _count_factorizations(monkeypatch):
    calls, real = [], solver.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "splu", counted)
    return calls


def test_catenoid_factorization_count(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    _, log = _catenoid_error(65)
    assert log.events == [(1.0, "predicted", "")]
    assert 0 < len(calls) <= 8


def test_catenoid_chord_steps_save_factorizations(monkeypatch):
    # chord steps on the last LU stand in for the last Newton steps' Jacobians
    calls = _count_factorizations(monkeypatch)
    _, log = _catenoid_error(65)
    assert 0 < len(calls) <= 4
    assert len(calls) == sum(step[4] == "newton" for step in log.steps)


def test_max_iter_bounds_the_jacobians_not_the_steps(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    lat = Lattice.annulus(0.5, 2.0, 65)
    _, log = solve_maximal(lat, catenoid_expr(), tol=1e-10, max_iter=5)
    assert log.events == [(1.0, "predicted", "")]  # no stage is rejected
    assert log.final_residual <= 1e-10
    assert max(step[1] for step in log.steps) > 5 >= len(calls)


def test_log_marks_chord_steps():
    _, log = _catenoid_error(65)
    assert [step[1] == 0 for step in log.steps] == [step[4] == "start" for step in log.steps]
    full = [step for step in log.steps if step[0] == 1.0]
    kinds = [step[4] for step in full]
    assert kinds[0] == "start" and "newton" in kinds and "chord" in kinds
    for before, step in zip(full, full[1:]):
        if step[4] == "chord":  # a full step that shrank the residual tenfold, or to tol
            assert step[3] == 1.0
            assert step[2] <= max(solver.CHORD_CONTRACTION * before[2], 1e-11)


def _count_calls(monkeypatch, *names):
    """Call counts of the named solver functions, wrapped in place."""
    counts = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    return counts


CATENOID_65_STEPS = ([(0.0, 0, 1.0, "start"), (0.0, 1, 1.0, "newton"), (1.0, 0, 1.0, "start"),
                      (1.0, 1, 0.5, "newton"), (1.0, 2, 1.0, "newton"), (1.0, 3, 1.0, "newton")]
                     + [(1.0, it, 1.0, "chord") for it in range(4, 12)])


# (solve, factorizations, LU solves, (stage, iteration, damping, kind) of
# each logged step).  A chord trial after every Newton step would make 15,
# 29 and 8 LU solves: the catenoid's damped step and its step that shrinks
# the residual 2.0 -> 0.75, and the disc's steps at contractions 0.39 and
# 0.13, each rule out the chord step that would follow.
@pytest.mark.parametrize("solve, factorizations, lu_solves, steps", [
    (lambda: solve_maximal(Lattice.annulus(0.5, 2.0, 65), catenoid_expr(), tol=1e-11), 4, 13,
     CATENOID_65_STEPS),
    (lambda: solve_maximal(Lattice.disc(1.0, 41), parse("0.9*x1+0.05*sin(5*x2)", 2)), 6, 27, None),
    (lambda: solve_ma(Lattice.box((-1, -1), (1, 1), 33), parse(MA_DATA, 2), c=1.0, tol=1e-10), 1, 8,
     None),
], ids=["catenoid-65", "disc-41", "ma-33"])
def test_chord_trials_only_after_a_full_contracting_newton_step(monkeypatch, solve, factorizations,
                                                               lu_solves, steps):
    counts = _count_calls(monkeypatch, "splu", "_lu_solve")
    _, log = solve()
    assert counts == {"splu": factorizations, "_lu_solve": lu_solves}
    if steps is not None:
        assert [step[:2] + step[3:] for step in log.steps] == steps
    # a chord step follows a full Newton step on its LU that shrank the
    # residual to CHORD_CONTRACTION of it, and the chord steps after that
    chord_open = False
    for before, step in zip(log.steps, log.steps[1:]):
        if step[4] == "chord":
            assert chord_open
        else:
            chord_open = (step[4] == "newton" and step[3] == 1.0
                          and step[2] <= solver.CHORD_CONTRACTION * before[2])


def test_residuals_are_read_only_where_the_safeguard_passes(monkeypatch):
    # the maximal residual is undefined past the space-like cap, so a trial
    # forms no flux before its face pass has checked the largest face psq
    sums, real_sum = [], solver._face_sum
    monkeypatch.setattr(solver, "_face_sum", lambda *args: sums.append(1) or real_sum(*args))
    ops = solver._Ops(Lattice.box((-1, -1), (1, 1), 6))
    steep = 2.0 * lm.node_points(ops.lattice)[:, 0]  # every face psq is 4, up to rounding
    assert solver._maximal_residual(ops, steep, 1.0, 1.0) is None and sums == []
    assert solver._maximal_residual(ops, steep, 0.2, 1.0) is not None and len(sums) == 1
    assert solver._maximal_residual(ops, steep, 0.0, 1.0) is not None  # Laplace: no safeguard

    # and no trial, chord or damped, reaches a residual that its safeguard
    # refused: every residual _newton logs is one that trial returned
    start, refused, norms = np.zeros(ops.K), [], []

    def trial(u):
        if np.max(u) > 0.9:
            refused.append(u)
            return None
        r = u + u**3 - 1.0
        norms.append(float(np.max(np.abs(r))))
        return r

    log = ConvergenceLog()
    solver._newton(ops, trial, lambda u: _diagonal_jacobian(ops, 1.0 + 3.0 * u**2), start,
                   1e-12, 10, log, 1.0)
    assert refused and {step[2] for step in log.steps} <= set(norms)
    assert "chord" in [step[4] for step in log.steps]


def _diagonal_jacobian(ops, diagonal):
    """The (3^m, K) stencil Jacobian of a residual whose node alpha reads
    only alpha."""
    jac = np.zeros((3**ops.m, ops.K))
    jac[ops.centre] = diagonal
    return jac


@pytest.mark.parametrize("trial, diagonal", [
    (lambda u: u + np.inf, 1.0),
    (lambda u: u - 1.0, np.inf),  # a finite residual whose Jacobian overflows
], ids=["residual", "jacobian"])
def test_an_overflow_never_reaches_splu(monkeypatch, trial, diagonal):
    calls = _count_factorizations(monkeypatch)
    ops = solver._Ops(Lattice.box((-1, -1), (1, 1), 6))
    with pytest.raises(DomainError, match=r"^non-finite metric \(overflow\)$"):
        solver._newton(ops, trial, lambda u: _diagonal_jacobian(ops, diagonal),
                       np.zeros(ops.K), 1e-10, 5, ConvergenceLog(), 0.0)
    assert calls == []


def _count_residuals(monkeypatch, name):
    """The arguments of every call to solver.<name>, a residual function."""
    calls, real = [], getattr(solver, name)

    def counted(ops, u_full, *args):
        calls.append(u_full)
        return real(ops, u_full, *args)

    monkeypatch.setattr(solver, name, counted)
    return calls


def test_catenoid_takes_no_residual_pass_per_jacobian_color(monkeypatch):
    # a Jacobian built from residual passes would cost 3^m of them
    calls = _count_residuals(monkeypatch, "_maximal_residual")
    _, log = _catenoid_error(65)
    assert len(calls) <= 2 * len(log.steps)


MA_DATA = "0.5*(x1^2+x2^2)+0.08*sin(1.1*x1)*sin(0.9*x2)+0.05*exp(0.6*x1+0.3*x2)"


def test_no_residual_is_evaluated_at_a_complex_field(monkeypatch):
    maximal = _count_residuals(monkeypatch, "_maximal_residual")
    ma = _count_residuals(monkeypatch, "_ma_residual")
    solve_maximal(Lattice.annulus(0.5, 2.0, 33), catenoid_expr())
    solve_ma(Lattice.box((-1, -1), (1, 1), 33), parse(MA_DATA, 2), c=1.0)
    assert maximal and ma
    assert not any(np.iscomplexobj(u) for u in maximal + ma)


def test_ma_factorization_count(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    lat = Lattice.box((-1, -1), (1, 1), 33)
    _, log = solve_ma(lat, parse(MA_DATA, 2), c=1.0, tol=1e-10)
    assert log.final_residual <= 1e-10
    assert 0 < len(calls) <= 4


def _reference_faces(lat, u, lam):
    """The maximal equation's flux residual at each interior node (C order)
    and the largest face |grad f|^2, by a plain loop over each interior
    node's 2m faces.  A node's value is a 1-element array, so that the
    arithmetic runs through the same ufunc loops as on whole arrays (numpy's
    complex scalar product can round differently)."""
    grid, h, e = u.reshape(lat.shape + (1,)), lat.spacing, np.eye(lat.m, dtype=int)

    def face(a, d):  # the face from node a to a + e_d
        b = a + e[d]
        pd = (grid[tuple(b)] - grid[tuple(a)]) / h[d]
        psq = pd * pd
        for t in range(lat.m):
            if t != d:
                c_a = (grid[tuple(a + e[t])] - grid[tuple(a - e[t])]) / (2 * h[t])
                c_b = (grid[tuple(b + e[t])] - grid[tuple(b - e[t])]) / (2 * h[t])
                pt = 0.5 * (c_a + c_b)
                psq = psq + pt * pt
        return pd, psq

    res, worst = [], 0.0
    for node in np.argwhere(lm.interior_mask(lat)):
        r = 0.0
        for d in range(lat.m):
            for start, sign in ((node, 1.0), (node - e[d], -1.0)):  # upper face, then lower
                pd, psq = face(start, d)
                worst = np.maximum(worst, float(psq.real[0]))
                r = r + sign * (pd / np.sqrt(1.0 - lam * psq) / h[d])
        res.append(r)
    return np.concatenate(res), worst


@pytest.mark.parametrize("lat", [
    Lattice.box((0.0,), (1.0,), 11),
    Lattice.box((-1, -1), (1, 0.5), (7, 9)),
    Lattice.box((-1, -1, -1), (1, 1, 1), (5, 6, 4)),
    Lattice.disc(1.0, 17),
    Lattice.annulus(0.5, 2.0, 21),
], ids=["box-m1", "box-m2", "box-m3", "disc", "annulus"])
def test_maximal_stencil_matches_a_per_node_loop(lat):
    pts = lm.node_points(lat)
    u = 0.2 * pts.sum(axis=1) + 0.1 * np.sin(2 * pts[:, 0]) + 0.01 * np.cos(7 * pts[:, -1])
    # steep values outside the mask: no interior node's face reads them, so
    # they must raise no RuntimeWarning from the sqrt
    u[~lm.active_mask(lat).ravel()] = 50.0 * pts[~lm.active_mask(lat).ravel(), 0]
    ops = solver._Ops(lat)
    stepped = u.astype(complex)
    stepped[ops.int_flat[::3]] += 1e-50j  # a complex-step probe in u
    for field, lam in ((u, 0.0), (u, 0.8), (u, 1.0), (stepped, 1.0), (stepped, 0.6 + 1e-50j)):
        res, worst = _reference_faces(lat, field, lam)
        assert np.array_equal(solver._maximal_residual(ops, field, lam), res)
        if field is u and lam:  # the safeguard's largest face psq is exactly worst
            assert np.array_equal(solver._maximal_residual(ops, u, lam, lam * worst), res)
            assert solver._maximal_residual(ops, u, lam, np.nextafter(lam * worst, 0.0)) is None


def test_nested_dissection_is_a_permutation_with_separators_last():
    lat = Lattice.annulus(0.5, 2.0, 17)
    ops = solver._Ops(lat)
    assert np.array_equal(np.sort(ops.perm), np.arange(ops.K))
    # the first cut halves the longest axis (axis 0 of a square) at its
    # middle row, whose nodes come last
    multi = np.array(np.unravel_index(ops.int_flat[ops.perm], lat.shape)).T
    middle = multi[:, 0] == 8
    assert np.all(middle[-middle.sum():])
    assert np.all(multi[:np.sum(multi[:, 0] < 8), 0] < 8)


# -- extraction and files ---------------------------------------------------------

def test_field_jet2_exact_for_quadratic():
    lat = Lattice.box((-1, -1), (1, 1), 11)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1)
    vals = 0.5 * pts[..., 0] ** 2 + 0.25 * pts[..., 1] ** 2 + 0.1 * pts[..., 0] * pts[..., 1]
    fld = GridField(lat, vals)
    _, _, grad, hess = field_jet2(fld)
    assert np.allclose(hess[:, 0, 0], 1.0, atol=1e-12)
    assert np.allclose(hess[:, 1, 1], 0.5, atol=1e-12)
    assert np.allclose(hess[:, 0, 1], 0.1, atol=1e-12)


def test_field_third_exact_for_cubic():
    # the compact stencils and their central difference are exact on cubics;
    # on x^4 / 2 the compact Hessian is off by a constant, which the central
    # difference cancels and a one-sided one would not
    lat = Lattice.box((-1, -0.5, 0), (1, 0.5, 1), 9)
    x, y, z = np.moveaxis(np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1), -1, 0)
    vals = (x**3 + 2 * x**2 * y - x * y * z + 0.5 * z**3 + y**2 * z + 0.3 * x * y**2
            + 0.2 * x**2 - y + 0.5 * x**4)
    exact = np.zeros((3, 3, 3))
    for idx, value in (((0, 0, 0), 6.0), ((0, 0, 1), 4.0), ((0, 1, 2), -1.0),
                       ((2, 2, 2), 3.0), ((1, 1, 2), 2.0), ((0, 1, 1), 0.6)):
        for perm in set(itertools.permutations(idx)):
            exact[perm] = value
    fld = GridField(lat, vals)
    nodes, pts, hess, third = field_third(fld)
    assert nodes.shape == (5**3, 3)
    assert np.array_equal(pts, lm.node_points(lat)[np.ravel_multi_index(nodes.T, lat.shape)])
    exact = np.broadcast_to(exact, third.shape).copy()
    exact[:, 0, 0, 0] += 12.0 * pts[:, 0]
    assert np.max(np.abs(third - exact)) <= 1e-10
    nodes2, _, _, hess2 = field_jet2(fld)
    rows = {tuple(n): k for k, n in enumerate(nodes2)}
    assert np.array_equal(hess, hess2[[rows[tuple(n)] for n in nodes]])


def test_field_immersion_geometry_flat():
    lat = Lattice.box((-1, -1), (1, 1), 9)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1)
    fld = GridField(lat, 0.4 * pts[..., 0])
    _, _, S, H = field_immersion_geometry(fld)
    assert np.max(S) <= 1e-14
    assert np.max(H) <= 1e-14


def test_field_round_trip(tmp_path):
    lat = Lattice.annulus(0.5, 2.0, 17)
    fld, _ = solve_maximal(lat, catenoid_expr())
    for fmt in ("json", "csv"):
        path = tmp_path / f"field.{fmt}"
        save_field(fld, str(path), fmt)
        back = load_field(str(path))
        assert back.lattice == fld.lattice
        both = np.isfinite(fld.values) & np.isfinite(back.values)
        assert np.array_equal(np.isfinite(fld.values), np.isfinite(back.values))
        assert np.allclose(fld.values[both], back.values[both], rtol=0, atol=0)
