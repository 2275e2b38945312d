"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity at its stated tolerance (run with -s to see
them)."""

import json
import subprocess
import sys
import time

import numpy as np

from conftest import convex_sample, random_spacelike_graph
from spacelike.bernstein import ScanConfig, completeness_probe, decay_scan
from spacelike.checks import gauss_equation, hyperboloid
from spacelike.exprparse import parse
from spacelike.graphgeom import (
    GraphMap, covariant_h, curvature, fundamental_forms, pseudo_distance, ricci_bound_check,
    simons_report,
)
from spacelike.grassmann import (
    SpacelikePlane, distance, hyperbolic_distance_n1, pullback_check, pullback_trace,
)
from spacelike.lagrangian import (
    Potential, lagrangian_forms, moduli_curvature,
    moduli_curvature_arrays, moduli_curvature_oracle, to_standard,
)
from spacelike.lattice import Lattice
from spacelike.solver import field_third, solve_ma, solve_maximal


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_01_gauss_equation_oracle():
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    ok, detail = gauss_equation(rng, graphs=50)
    elapsed = time.perf_counter() - t0
    assert ok
    assert elapsed < 10.0
    report(1, f"frame vs coordinate curvature on 50 graphs: {detail} (tol 1e-6), "
              f"{elapsed:.1f}s < 10s")


def test_02_hyperboloid_battery():
    worst = {}
    for m in (2, 3):
        gm = hyperboloid(m)
        rng = np.random.default_rng(7 + m)
        for _ in range(3):
            x = rng.uniform(-0.8, 0.8, size=m)
            pg = curvature(gm, x)
            assert abs(pg.H_norm - 1.0) <= 1e-9
            assert abs(pg.S - m) <= 1e-9
            for i in range(m):
                for j in range(m):
                    if i != j:
                        assert abs(pg.riemann[i, j, i, j] + 1.0) <= 1e-8
            ch = covariant_h(gm, x)
            assert float(np.max(np.abs(ch.h_cov))) <= 1e-8
            assert ricci_bound_check(gm, x) >= -1e-10
        rep = simons_report(gm, Lattice.box((-0.5,) * m, (0.5,) * m, 5))
        assert rep.min_slack >= 0.0
        worst[m] = rep.min_slack
    report(2, f"H=1, S=m, K=-1, parallel h, ricci margin, simons slack "
              f"{worst[2]:.3f} (m=2), {worst[3]:.3f} (m=3)")


def test_03_catenoid_battery():
    gm = GraphMap.from_strings(2, ["asinh(sqrt(x1^2+x2^2))"])
    rng = np.random.default_rng(33)
    worst_h = 0.0
    for _ in range(10):
        r = rng.uniform(0.5, 2.0)
        t = rng.uniform(0, 2 * np.pi)
        worst_h = np.maximum(worst_h, fundamental_forms(gm, [r * np.cos(t), r * np.sin(t)]).H_norm)
    assert worst_h <= 1e-9

    expr = parse("asinh(sqrt(x1^2+x2^2))", 2)
    errors = {}
    for nodes in (65, 129, 257):  # spacing 1/16, 1/32, 1/64
        lat = Lattice.annulus(0.5, 2.0, nodes)
        fld, _ = solve_maximal(lat, expr, tol=1e-11)
        pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1)
        exact = np.arcsinh(np.linalg.norm(pts, axis=-1))
        act = np.isfinite(fld.values)
        errors[nodes] = float(np.max(np.abs(fld.values - exact)[act]))
    p1 = np.log2(errors[65] / errors[129])
    p2 = np.log2(errors[129] / errors[257])
    assert 1.7 <= p1 <= 2.3 and 1.7 <= p2 <= 2.3
    report(3, f"max |H| {worst_h:.1e} (tol 1e-9); solver orders {p1:.2f}, {p2:.2f} in 2 +- 0.3")


def test_04_codazzi_symmetry():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        gm, x = random_spacelike_graph(rng, m, n, degree=3)
        ch = covariant_h(gm, x)
        worst = np.maximum(worst, ch.codazzi_asym / (1.0 + float(np.max(np.abs(ch.h_cov)))))
    assert worst <= 1e-6
    report(4, f"max h_sijk asymmetry {worst:.2e} (tol 1e-6) on 20 random graphs")


def test_05_gauss_map_pullback():
    rng = np.random.default_rng(55)
    worst_dir = worst_tr = 0.0
    cases = [(hyperboloid(2), np.array([0.0, 0.0]))]
    for _ in range(8):
        cases.append(random_spacelike_graph(rng, 2, 2, degree=3))
    for gm, x in cases:
        for k in range(gm.m):
            rep = pullback_check(gm, x, k)
            worst_dir = np.maximum(worst_dir, rep.rel_error)
        tr, S = pullback_trace(gm, x)
        worst_tr = np.maximum(worst_tr, abs(tr - S) / (1.0 + S))
    assert worst_dir <= 1e-3
    assert worst_tr <= 1e-3
    report(5, f"pullback stretch dev {worst_dir:.2e}, trace dev {worst_tr:.2e} (tol 1e-3)")


def test_06_grassmann_distance():
    rng = np.random.default_rng(66)
    worst_oracle = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        P, Q = (SpacelikePlane(A * (0.9 * rng.uniform(0.05, 1.0)
                                    / np.linalg.svd(A, compute_uv=False)[0]))
                for A in (rng.normal(size=(1, m)) for _ in range(2)))
        worst_oracle = np.maximum(worst_oracle, abs(distance(P, Q) - hyperbolic_distance_n1(P, Q)))
    assert worst_oracle <= 1e-8

    worst_add = 0.0
    for m, n in [(2, 1), (3, 2)]:
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        for t1, t2 in [(0.3, 1.1), (-0.7, 0.4)]:
            P = SpacelikePlane(np.tanh(t1) * np.outer(u, v))
            Q = SpacelikePlane(np.tanh(t2) * np.outer(u, v))
            worst_add = np.maximum(worst_add, abs(distance(P, Q) - abs(t1 - t2)))
    assert worst_add <= 1e-9

    worst_inv = 0.0
    for _ in range(10):
        m, n = 3, 2
        A, B = (M * (0.7 / np.linalg.svd(M, compute_uv=False)[0])
                for M in (rng.normal(size=(n, m)) for _ in range(2)))
        qm, _ = np.linalg.qr(rng.normal(size=(m, m)))
        qn, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d0 = distance(SpacelikePlane(A), SpacelikePlane(B))
        d1 = distance(SpacelikePlane(qn @ A @ qm.T), SpacelikePlane(qn @ B @ qm.T))
        worst_inv = np.maximum(worst_inv, abs(d1 - d0))
    assert worst_inv <= 1e-12
    report(6, f"n=1 oracle {worst_oracle:.1e} (1e-8), additivity {worst_add:.1e} (1e-9), "
              f"invariance {worst_inv:.1e} (1e-12)")


def test_07_lagrangian_cross_module():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        P, x = convex_sample(rng, 100)
        lf = lagrangian_forms(P, x)
        si = to_standard(P, x)
        worst = np.maximum(worst, abs(si.S - lf.S) / (1.0 + lf.S))
    assert worst <= 1e-8
    report(7, f"coefficient-route vs standard-coordinate S dev {worst:.2e} (tol 1e-8)")


def test_08_moduli_curvature_oracle():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        P, x = convex_sample(rng, 100)
        mc = moduli_curvature(P, x)
        oracle = moduli_curvature_oracle(P, x)
        scale = max(float(np.max(np.abs(oracle))), 1e-10)
        worst = np.maximum(worst, float(np.max(np.abs(mc.riemann - oracle))) / scale)
    assert worst <= 1e-6
    Pq = Potential.from_string(2, "x1^2 + 0.4*x1*x2 + 0.8*x2^2")
    mq = moduli_curvature(Pq, [0.3, -0.9])
    assert np.all(mq.riemann == 0.0) and np.all(mq.ricci == 0.0) and mq.scalar == 0.0
    report(8, f"moduli curvature vs intrinsic oracle dev {worst:.2e} (tol 1e-6); "
              f"quadratic exactly zero")


def test_09_monge_ampere_rigidity_shadow():
    lat = Lattice.box((-1, -1), (1, 1), 33)
    fld, _ = solve_ma(lat, parse("0.5*(x1^2+x2^2)", 2), c=1.0, tol=1e-12)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1).reshape(-1, 2)
    exact = 0.5 * np.sum(pts**2, axis=1)
    quad_err = float(np.max(np.abs(fld.values.ravel() - exact)))
    assert quad_err <= 1e-10

    lat2 = Lattice.box((0, 0), (1, 1), 65)
    fld2, log2 = solve_ma(lat2, parse("0.5*(x1^2+x2^2) + 0.1*sin(x1)*sin(x2)", 2),
                          c=1.0, tol=1e-11)
    assert log2.final_residual <= 1e-11
    _, _, hess, third = field_third(fld2)
    min_eig = np.min(moduli_curvature_arrays(hess, np.linalg.inv(hess), third).min_ricci_eig)
    assert min_eig >= -1e-4
    report(9, f"quadratic recovered to {quad_err:.1e} (tol 1e-10); "
              f"perturbed solve min moduli-Ricci eig {min_eig:.2e} >= -1e-4")


def test_10_bernstein_decay():
    t0 = time.perf_counter()
    scan = decay_scan(parse("0.3*x1 + 0.1*sin(x2)", 2), [4.0, 8.0, 16.0, 32.0],
                      ScanConfig(nodes=65))
    elapsed = time.perf_counter() - t0
    assert all(row.status == "ok" for row in scan.rows)
    assert scan.slope_kind == "fit"
    assert -2.6 <= scan.slope <= -1.4
    assert elapsed < 300.0
    vals = ", ".join(f"a={r.a:g}: S={r.s_center:.3e}" for r in scan.rows)
    report(10, f"decay slope {scan.slope:.3f} in [-2.6, -1.4]; {vals}; {elapsed:.0f}s < 300s")


def test_11_gradient_estimate_shadow():
    flat = GraphMap.from_strings(2, ["0.5*x1 + 0.2*x2"])
    shifted = hyperboloid(2, shifted=True)
    worst_gap = -np.inf
    for gm, dirs in ((flat, [np.array([1.0, 0.0]), np.array([0.3, 1.0])]),
                     (shifted, [np.array([1.0, 0.0]), np.array([0.6, 0.8])])):
        reports = completeness_probe(gm, dirs, T=3.0, n_samples=120)
        for rep in reports:
            assert rep.b_emp <= rep.ratio_sup + 1e-3
            worst_gap = np.maximum(worst_gap, rep.b_emp - rep.ratio_sup)

    pd1 = pseudo_distance(GraphMap.from_strings(1, ["0.6*x1"]), [1.0])
    assert abs(pd1.z - 0.64) <= 1e-12
    pd2 = pseudo_distance(shifted, [1.0, 0.0])
    assert abs(pd2.z - (2.0 * np.sqrt(2.0) - 2.0)) <= 1e-12
    rng = np.random.default_rng(111)
    worst_tr = 0.0
    for _ in range(10):
        gm, x = random_spacelike_graph(rng, 2, 1)
        pd = pseudo_distance(gm.with_base_point(), x)
        worst_tr = np.maximum(worst_tr, abs(np.trace(pd.hess) - pd.lap))
    assert worst_tr <= 1e-10
    report(11, f"b_emp <= ratio sup + 1e-3 (worst gap {worst_gap:.2e}); z hand values to "
               f"1e-12; trace-lap dev {worst_tr:.1e} (tol 1e-10)")


def test_12_determinism(tmp_path):
    cmd = [sys.executable, "-m", "spacelike"]
    acfg = tmp_path / "analyze.json"
    acfg.write_text(json.dumps({
        "m": 2, "n": 1, "components": ["sqrt(1+x1^2+x2^2)-1"],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9},
        "format": "csv", "seed": 5,
    }))
    ccfg = tmp_path / "check.json"
    ccfg.write_text(json.dumps({"format": "csv", "seed": 5}))

    outputs = {}
    for name, cfg, sub in (("analyze", acfg, "analyze"), ("check", ccfg, "check")):
        pair = []
        for run in (1, 2):
            out = tmp_path / f"{name}{run}.csv"
            res = subprocess.run(cmd + [sub, "--config", str(cfg), "--out", str(out)],
                                 capture_output=True)
            assert res.returncode == 0, res.stderr.decode()
            pair.append(out.read_bytes())
        assert pair[0] == pair[1], f"{name} output not byte-identical"
        outputs[name] = pair[0]
    report(12, f"byte-identical outputs: analyze ({len(outputs['analyze'])} bytes), "
               f"check ({len(outputs['check'])} bytes)")
