import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

from spacelike import checks
from spacelike.cli import main, write_records


def run_cli(args):
    return main(args)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def analyze_config(tmp_path, out, components=("0.6*x1",), m=2, fmt="csv", extra=None):
    payload = {
        "m": m, "n": len(components), "components": list(components),
        "lattice": {"lo": [-1] * m, "hi": [1] * m, "nodes": 9},
        "out": out, "format": fmt,
    }
    if extra:
        payload.update(extra)
    return write_config(tmp_path, "cfg.json", payload)


def test_analyze_linear_graph(tmp_path):
    out = str(tmp_path / "report.csv")
    cfg = analyze_config(tmp_path, out, components=["0.6*x1"])
    assert run_cli(["analyze", "--config", cfg]) == 0
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert len(rows) == 81
    assert all(r["status"] == "ok" for r in rows)
    s_vals = {float(r["S"]) for r in rows}
    assert max(abs(v) for v in s_vals) <= 1e-12
    gauss = {r["gauss_dist"] for r in rows}
    assert len(gauss) == 1  # constant tangent plane


def test_analyze_hyperboloid_H(tmp_path):
    out = str(tmp_path / "r.csv")
    cfg = analyze_config(tmp_path, out, components=["sqrt(1+x1^2+x2^2)-1"])
    assert run_cli(["analyze", "--config", cfg]) == 0
    lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert all(abs(float(r["H_norm"]) - 1.0) <= 1e-9 for r in rows)


def test_analyze_not_spacelike_warns_but_succeeds(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    cfg = analyze_config(tmp_path, out, components=["2*x1"])
    assert run_cli(["analyze", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "81 warnings" in text
    body = (tmp_path / "r.csv").read_text()
    assert "not-spacelike" in body
    assert "nan" in body


def test_analyze_domain_error_is_a_node_status(tmp_path):
    out = str(tmp_path / "r.csv")
    cfg = analyze_config(tmp_path, out, components=["0.2*log(x1+0.5)"],
                         extra={"lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5}})
    assert run_cli(["analyze", "--config", cfg]) == 0
    lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert len(rows) == 25
    for r in rows:
        if float(r["x1"]) <= -0.5:
            assert r["status"] == "error:DomainError"
            assert r["min_eig"] == r["S"] == "nan"
        else:
            assert r["status"] == "ok"


@pytest.mark.parametrize("component, overflows", [
    # the metric 1 - 1e320 overflows at every node
    ("1e160*x1", lambda x1: True),
    # the metric overflows where x1 != 0; the third derivative overflows too,
    # but the node table does not read it
    ("2e307*x1^4", lambda x1: x1 != 0),
])
def test_analyze_overflowing_metric_is_a_domain_error(tmp_path, component, overflows):
    out = tmp_path / "r.csv"
    cfg = analyze_config(tmp_path, str(out), components=[component],
                         extra={"lattice": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5], "nodes": 3}})
    res = subprocess.run([sys.executable, "-m", "spacelike", "analyze", "--config", cfg],
                         capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == ""
    assert "not space-like" not in res.stdout
    if overflows(0.0):
        assert "x = [0.0, 0.0] is undefined: non-finite metric (overflow)" in res.stdout
    lines = out.read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 9
    for r in rows:
        assert r["status"] == ("error:DomainError" if overflows(float(r["x1"])) else "ok")


def test_analyze_overflowing_metric_at_m_3_is_a_domain_error(tmp_path):
    # the metric overflows at every node; LAPACK's eigvalsh raises on an
    # infinite 3 x 3 matrix, where numpy gives nan at m <= 2
    out = tmp_path / "r.csv"
    cfg = analyze_config(tmp_path, str(out), components=["1e200*(x1+x2+x3)"], m=3,
                         extra={"lattice": {"lo": [-1] * 3, "hi": [1] * 3, "nodes": 3}})
    res = subprocess.run([sys.executable, "-m", "spacelike", "analyze", "--config", cfg],
                         capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout.splitlines()[-1] == "analyze: 27 nodes, 27 warnings"
    lines = out.read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 27 and all(r["status"] == "error:DomainError" for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_overflowing_curvature_is_a_domain_error(tmp_path):
    # at the origin the metric is exactly I, but h is about 1e200, so S overflows
    out = tmp_path / "r.csv"
    cfg = analyze_config(tmp_path, str(out), components=["1e200*x1*x2"],
                         extra={"lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5}})
    res = subprocess.run([sys.executable, "-m", "spacelike", "analyze", "--config", cfg],
                         capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout.splitlines()[-1] == "analyze: 25 nodes, 25 warnings"
    lines = out.read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert rows[12]["x1"] == rows[12]["x2"] == "0.0"
    assert all(r["status"] == "error:DomainError" for r in rows)
    assert main(["analyze", "--config", cfg]) == 0  # in-process, with warnings as errors


def _imported(argv, prefixes):
    """The modules under ``prefixes`` that a fresh interpreter holds after main(argv)."""
    code = ("import sys, spacelike\n"
            "from spacelike.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print(sorted(k for k in sys.modules if k.startswith({prefixes!r})))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()[-1]


def test_analyze_imports_no_scipy_it_does_not_use(tmp_path):
    # scipy.integrate and scipy.sparse.linalg serve only the geodesic and
    # solver paths, and take most of the start-up time when imported
    cfg = analyze_config(tmp_path, str(tmp_path / "r.csv"))
    assert _imported(["analyze", "--config", cfg],
                     ("scipy.integrate", "scipy.sparse.linalg", "scipy.interpolate")) == "[]"


_SMALL_RUNS = {
    "lagrangian": {"m": 2, "potential": "0.5*(x1^2+x2^2)+0.1*x1^3",
                   "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5}},
    "solve-maximal": {"m": 2, "n": 1, "components": ["0.3*x1+0.1*x2^2"],
                      "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9}},
    "solve-ma": {"m": 2, "potential": "0.5*(x1^2+x2^2)+0.05*x1^4",
                 "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9}},
    "scan": {"m": 2, "n": 1, "components": ["0.3*x1+0.1*sin(x2)"], "radii": [2.0, 4.0],
             "scan": {"nodes": 9}},
}


@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_commands_import_no_scipy_they_do_not_use(tmp_path, command):
    # lagrangian needs no scipy at all, and the solvers only scipy.sparse:
    # importing scipy.integrate alone takes about 0.4 s and 50 MiB
    cfg = write_config(tmp_path, "cfg.json", {**_SMALL_RUNS[command],
                                              "out": str(tmp_path / "out.json"), "format": "json"})
    unused = ("scipy",) if command == "lagrangian" else (
        "scipy.integrate", "scipy.special", "scipy.optimize")
    assert _imported([command, "--config", cfg], unused) == "[]"


@pytest.mark.parametrize("component, lo, hi, nan_cols, expected", [
    # X(0) undefined; |grad f| = 0.3/x1 < 1 everywhere
    ("0.3*log(x1)", [1, 1], [2, 2], ("z", "grad_ratio"), lambda x1, x2: "ok"),
    # X(0) undefined; |grad f| = 1/x1^2 reaches 1 at x1 = 1
    ("1/x1", [1, 1], [2, 2], ("z", "grad_ratio"),
     lambda x1, x2: "not-spacelike" if x1 == 1 else "ok"),
    # the plane over the box centre (3, 1) is undefined, X(0) is not
    ("0.1*log((x1-3)^2+x2^2-1)", [2, 0.5], [4, 1.5], ("gauss_dist",),
     lambda x1, x2: "error:DomainError" if (x1 - 3) ** 2 + x2 ** 2 - 1 <= 0 else "ok"),
])
def test_analyze_undefined_reference_point_gives_nan_columns(
        tmp_path, capsys, component, lo, hi, nan_cols, expected):
    out = tmp_path / "r.csv"
    cfg = analyze_config(tmp_path, str(out), components=[component],
                         extra={"lattice": {"lo": lo, "hi": hi, "nodes": 5}})
    assert run_cli(["analyze", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert f"analyze: {' and '.join(nan_cols)} {'are' if len(nan_cols) > 1 else 'is'} nan, as " \
        in stdout
    body = out.read_text()
    assert "undefined" not in body
    header, *lines = body.strip().split("\n")
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 25
    for r in rows:
        assert r["status"] == expected(float(r["x1"]), float(r["x2"]))
        for col in ("gauss_dist", "z", "grad_ratio"):
            if col in nan_cols:
                assert r[col] == "nan"
            elif r["status"] == "ok":
                assert math.isfinite(float(r[col]))


def test_analyze_reference_plane_not_spacelike_gives_a_note(tmp_path, capsys):
    # slope 4cos(4 x1) is inside (-1, 1) only at x1 = 0.4; -1.66 over the box centre
    out = tmp_path / "r.csv"
    cfg = analyze_config(tmp_path, str(out), components=["sin(4*x1)"],
                         extra={"lattice": {"lo": [0.3, 0.3], "hi": [0.7, 0.7], "nodes": 5}})
    assert run_cli(["analyze", "--config", cfg]) == 0
    stdout = capsys.readouterr().out.split("\n")
    assert stdout[0].startswith("analyze: gauss_dist is nan, as the tangent plane at "
                                "x = [0.5, 0.5] is not space-like: ")
    assert stdout[1:] == ["analyze: 25 nodes, 20 warnings", ""]
    header, *lines = out.read_text().strip().split("\n")
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) == 5 and all(abs(float(r["x1"]) - 0.4) < 1e-12 for r in ok)
    assert all(r["gauss_dist"] == "nan" and math.isfinite(float(r["z"])) for r in ok)


def test_bad_expression_exits_1_without_traceback(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["1e400*x1"],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9},
        "out": str(tmp_path / "f.json"),
    })
    res = subprocess.run([sys.executable, "-m", "spacelike", "solve-maximal", "--config", cfg],
                         capture_output=True, text=True)
    assert res.returncode == 1
    assert "not a finite number" in res.stderr
    assert "Traceback" not in res.stderr


def test_overflowing_boundary_data_exits_2_as_domain_error(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["exp(40*x1)^20"],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9},
        "out": str(tmp_path / "f.json"),
    })
    res = subprocess.run([sys.executable, "-m", "spacelike", "solve-maximal", "--config", cfg],
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert "non-finite value" in res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr


def test_lagrangian_quadratic_zero_curvature(tmp_path):
    out = str(tmp_path / "l.json")
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "0.5*(x1^2+x2^2)",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 7},
        "out": out, "format": "json",
    })
    assert run_cli(["lagrangian", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "l.json").read_text())
    assert payload["meta"]["version"]
    for rec in payload["records"]:
        assert rec["status"] == "ok"
        assert abs(rec["S"]) <= 1e-14
        assert abs(rec["min_ricci_eig"]) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lagrangian_overflowing_det_is_nan_without_a_warning(tmp_path):
    out = tmp_path / "l.csv"
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "1e200*x1^2+1e200*x2^2",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 3}, "out": str(out),
    })
    assert run_cli(["lagrangian", "--config", cfg]) == 0
    lines = out.read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 9
    assert all(r["status"] == "ok" and r["det_hess"] == r["ma_residual"] == "nan"
               and r["min_eig_hess"] == "2e+200" for r in rows)


def test_lagrangian_overflowing_hessian_eigenvalue_is_a_domain_error(tmp_path):
    # Hess F = -1e308 [[1, 1], [1, 1]] is finite, but its smallest eigenvalue
    # -2e308 is not; F itself overflows where |x1 + x2| = 2
    out = tmp_path / "l.csv"
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "-5e307*(x1+x2)^2",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 3}, "out": str(out),
    })
    assert run_cli(["lagrangian", "--config", cfg]) == 0
    lines = out.read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 9 and all(r["status"] == "error:DomainError" for r in rows)
    origin = next(r for r in rows if float(r["x1"]) == float(r["x2"]) == 0.0)
    assert origin["min_eig_hess"] == "nan"


def test_lagrangian_nonconvex_rows_flagged(tmp_path):
    out = str(tmp_path / "l.csv")
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 1, "potential": "x1^4 - x1^2",
        "lattice": {"lo": [-1], "hi": [1], "nodes": 21},
        "out": out, "format": "csv",
    })
    assert run_cli(["lagrangian", "--config", cfg]) == 0
    body = (tmp_path / "l.csv").read_text()
    assert "not-convex" in body and ",ok," in body


def test_lagrangian_oracle_column(tmp_path):
    out = str(tmp_path / "l.csv")
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "0.5*(x1^2+x2^2) + 0.05*x1^4 + 0.05*x2^4 + 0.05*x1^3",
        "lattice": {"lo": [-0.4, -0.4], "hi": [0.4, 0.4], "nodes": 5},
        "out": out, "format": "csv",
    })
    assert run_cli(["lagrangian", "--config", cfg, "--oracle"]) == 0
    lines = (tmp_path / "l.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert "riemann_oracle_err" in header
    col = header.index("riemann_oracle_err")
    for line in lines[1:]:
        assert float(line.split(",")[col]) <= 1e-6


def test_solve_maximal_writes_field_and_log(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["asinh(sqrt(x1^2+x2^2))"],
        "lattice": {"lo": [-2, -2], "hi": [2, 2], "nodes": 33,
                    "mask": {"kind": "annulus", "r_min": 0.5, "r_max": 2.0}},
        "solver": {"tol": 1e-10},
        "out": str(tmp_path / "field.json"), "format": "json",
    })
    assert run_cli(["solve-maximal", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "final residual" in text
    from spacelike.solver import load_field

    fld = load_field(str(tmp_path / "field.json"))
    assert fld.lattice.shape == (33, 33)


def test_solve_ma_quadratic(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "0.5*(x1^2+x2^2)",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 13},
        "solver": {"tol": 1e-11, "c": 1.0},
        "out": str(tmp_path / "f.json"), "format": "json",
    })
    assert run_cli(["solve-ma", "--config", cfg]) == 0
    assert "final residual" in capsys.readouterr().out


def test_solve_prints_events_before_final_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "0.5*(x1^2+x2^2) - 0.3*exp(-20*(x1^2+x2^2))",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 21},
        "out": str(tmp_path / "f.json"), "format": "json",
    })
    assert run_cli(["solve-ma", "--config", cfg]) == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert lines[-1].startswith("final residual ")
    assert lines[-2] == "event stage=1.0 fallback: predicted start lost discrete convexity"
    assert all(line.startswith("stage=") for line in lines[:-2])


def test_solve_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["2*x1"],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 9},
        "out": str(tmp_path / "f.json"),
    })
    assert run_cli(["solve-maximal", "--config", cfg]) == 2


def test_scan_affine_exact_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["0.3*x1"],
        "radii": [2.0, 4.0],
        "scan": {"nodes": 17},
        "out": str(tmp_path / "scan.csv"), "format": "csv",
    })
    assert run_cli(["scan", "--config", cfg]) == 0
    assert "exact-zero" in capsys.readouterr().out


@pytest.mark.parametrize("scan, status", [
    ({"policy": "fixed-spacing", "spacing": 5}, "solver-failed: need at least two nodes per axis"),
    ({"nodes": 4, "domain": "box"}, "empty-center: no node with |x| <= 0.25 a"),
], ids=["lattice-fails", "empty-center"])
def test_scan_bad_radius_is_a_failed_row(tmp_path, scan, status):
    # the table is still written, one row per radius, and the run exits 2
    out = tmp_path / "scan.csv"
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["0.3*x1+0.1*x1^2"], "radii": [1.0, 2.0], "scan": scan,
        "out": str(out), "format": "json"})
    assert run_cli(["scan", "--config", cfg]) == 2
    rows = json.loads(out.read_text())["records"]
    assert [r["a"] for r in rows] == [1.0, 2.0]
    assert rows[0]["status"] == status and rows[0]["s_center"] == "nan"
    assert all(r["status"] != "ok" for r in rows)


def test_solve_log_tells_chord_steps_from_newton_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["asinh(sqrt(x1^2+x2^2))"],
        "lattice": {"lo": [-2, -2], "hi": [2, 2], "nodes": 33,
                    "mask": {"kind": "annulus", "r_min": 0.5, "r_max": 2.0}},
        "out": str(tmp_path / "field.json"), "format": "json",
    })
    assert run_cli(["solve-maximal", "--config", cfg]) == 0
    steps = [line.rsplit(" ", 1)[1] for line in capsys.readouterr().out.split("\n")
             if line.startswith("stage=")]
    assert set(steps) == {"step=start", "step=newton", "step=chord"}


_BOX9 = {"lo": [-1, -1], "hi": [1, 1], "nodes": 9}


@pytest.mark.parametrize("command, payload, err", [
    ("solve-maximal", {"components": ["1e154*x1"], "lattice": _BOX9},
     "numerical failure: non-finite metric (overflow)"),
    ("solve-ma", {"potential": "1e200*(x1^2+x2^2)", "lattice": _BOX9},
     "numerical failure: non-finite metric (overflow)"),
    # data near 1e308: the discrete Hessians overflow, and LAPACK's eigvalsh
    # raises on them at m = 3
    ("solve-ma", {"m": 3, "potential": "1e308 + x1^2+x2^2+x3^2",
                  "lattice": {"lo": [-1] * 3, "hi": [1] * 3, "nodes": 5}},
     "numerical failure: non-finite metric (overflow)"),
    ("solve-ma", {"m": 1, "potential": "1e308 + x1^2", "lattice": {"lo": [-1], "hi": [1], "nodes": 5}},
     "numerical failure: non-finite metric (overflow)"),
    # the disc masks no longer overflow: the lattices have interior nodes
    ("scan", {"components": ["0.3*x1+0.1*sin(x2)"], "radii": [1e200, 2e200], "scan": {"nodes": 9}},
     "numerical failure: 2 of 2 radii failed, the first at a = 1e+200: solver-failed: "),
], ids=["solve-maximal", "solve-ma", "solve-ma-m3", "solve-ma-m1", "scan"])
def test_overflow_exits_2_with_one_line_and_no_warning(tmp_path, capsys, command, payload, err):
    cfg = write_config(tmp_path, "cfg.json", {"m": 2, "n": 1, **payload})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out.json")]) == 2
    assert caught == []
    lines = capsys.readouterr().err.split("\n")
    assert len(lines) == 2 and lines[0].startswith(err) and lines[1] == ""
    assert "no interior nodes" not in lines[0]


def test_config_errors(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 2, "components": ["x1"],  # wrong count
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5},
    })
    assert run_cli(["analyze", "--config", cfg]) == 1
    cfg2 = write_config(tmp_path, "bad.json", {
        "m": 2, "n": 1, "components": ["x1"],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "spacing": -0.5},
    })
    assert run_cli(["analyze", "--config", cfg2]) == 1
    cfg3 = write_config(tmp_path, "bad2.json", {
        "m": 2, "n": 1, "components": ["x1"], "radii": [4.0, 2.0],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5},
    })
    assert run_cli(["scan", "--config", cfg3]) == 1


def test_lattice_spacing_rounds_the_node_count(tmp_path):
    # spacing 0.3 on [-1, 1] gives round(2 / 0.3) + 1 = 8 nodes per axis, at 2/7
    outs = []
    for name, size in [("spacing", {"spacing": 0.3}), ("nodes", {"nodes": 8})]:
        out = tmp_path / f"{name}.csv"
        cfg = analyze_config(tmp_path, str(out), components=["sqrt(1+x1^2+x2^2)-1"],
                             extra={"lattice": {"lo": [-1, -1], "hi": [1, 1], **size}})
        assert run_cli(["analyze", "--config", cfg]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header, *lines = outs[0].decode().strip().split("\n")
    x1 = sorted({float(line.split(",")[1]) for line in lines})
    assert len(lines) == 64 and np.allclose(x1, np.linspace(-1, 1, 8), rtol=0, atol=1e-15)


@pytest.mark.parametrize("size", [{"spacing": 0.5}, {"nodes": 5}], ids=["spacing", "nodes"])
def test_lattice_hi_below_lo_is_one_config_error(tmp_path, capsys, size):
    cfg = analyze_config(tmp_path, str(tmp_path / "r.csv"),
                         extra={"lattice": {"lo": [1, -1], "hi": [-1, 1], **size}})
    assert run_cli(["analyze", "--config", cfg]) == 1
    assert capsys.readouterr().err == "config error: lattice: hi must exceed lo on every axis\n"


def test_check_battery_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"out": str(tmp_path / "check.csv")})
    assert run_cli(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 14
    rows = (tmp_path / "check.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "exprparse-round-trip", "jets-vs-finite-differences", "frames-pseudo-orthonormal",
        "gauss-equation-vs-coordinate-oracle", "bianchi-schwarz-ricci-bound", "codazzi-symmetry",
        "hyperboloid-battery", "catenoid-maximal-from-jets", "pseudo-distance-identities",
        "grassmann-distance-oracles", "gauss-map-pullback-trace", "lagrangian-cross-module",
        "moduli-curvature-oracle", "solver-exactness", "simons-slack-hyperboloid",
        "completeness-probe-inequality"]


def test_check_violation_exit_code(tmp_path, monkeypatch, capsys):
    forced = ("forced-failure", lambda rng: (False, "synthetic violation"))
    monkeypatch.setattr(checks, "SUITES", checks.SUITES[:2] + (forced,))
    cfg = write_config(tmp_path, "cfg.json", {"out": str(tmp_path / "c.csv")})
    assert run_cli(["check", "--config", cfg]) == 3
    assert "FAIL forced-failure" in capsys.readouterr().out


def test_check_reports_a_crashing_suite_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    ran = []

    def crash(rng):
        raise ZeroDivisionError("planted")

    def after(rng):
        ran.append(True)
        return True, "ran"

    monkeypatch.setattr(checks, "SUITES", (("crash", crash), ("after", after)))
    cfg = write_config(tmp_path, "cfg.json", {"out": str(tmp_path / "c.csv")})
    assert run_cli(["check", "--config", cfg]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL crash: exception: ZeroDivisionError: planted (")
    assert out[1].startswith("PASS after: ran (")
    assert ran == [True]
    assert (tmp_path / "c.csv").read_text().splitlines()[1:] == [
        "crash,FAIL,exception: ZeroDivisionError: planted", "after,pass,ran"]


def test_check_suites_fail_on_nan(monkeypatch):
    # a NaN deviation fails its suite instead of being dropped by the fold
    frames = checks.fundamental_forms
    nan = NS(codazzi_asym=np.nan, h_cov=np.zeros(1), H_norm=np.nan, S=np.nan)
    for name, value in [
            ("fundamental_forms", lambda gm, x: NS(tangent=frames(gm, x).tangent,
                                                   normal=frames(gm, x).normal * np.nan,
                                                   H_norm=np.nan)),
            ("frame_riemann_oracle", lambda gm, x: np.full((gm.m,) * 4, np.nan)),
            ("covariant_h", lambda gm, x: nan),
            ("pullback_trace", lambda gm, x: (np.nan, 1.0)), ("to_standard", lambda P, x: nan),
            ("moduli_curvature_oracle", lambda P, x: np.full((2,) * 4, np.nan))]:
        monkeypatch.setattr(checks, name, value)
    for suite in (checks.frames_pseudo_orthonormal, checks.gauss_equation,
                  checks.codazzi_symmetry, checks.catenoid_maximal, checks.gauss_map_pullback_trace,
                  checks.lagrangian_cross_module, checks.moduli_curvature_check):
        ok, detail = suite(np.random.default_rng(0))
        assert not ok and "nan" in detail, suite.__name__


def test_determinism_byte_identical(tmp_path):
    # identical config, two runs, byte-identical outputs (analyze and check)
    env_cmd = [sys.executable, "-m", "spacelike"]
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "n": 1, "components": ["sqrt(1+x1^2+x2^2)-1"],
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 7},
        "format": "csv",
    })
    outs = []
    for run in (1, 2):
        out = tmp_path / f"a{run}.csv"
        res = subprocess.run(env_cmd + ["analyze", "--config", cfg, "--out", str(out)],
                             capture_output=True)
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _hostile(change):
    payload = {"m": 2, "n": 1, "components": ["0.6*x1"],
               "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5}}
    change(payload)
    return payload


def _scan_job(p):
    p.update(radii=[2.0], scan={"nodes": 9})


def _potential_job(p):
    p.update(potential="0.5*(x1^2+x2^2)")


def _box(m):
    """The box [-1, 1]^m with two nodes per axis."""
    return {"lo": [-1] * m, "hi": [1] * m, "nodes": 2}


@pytest.mark.parametrize("argv, payload, path", [
    (["analyze"], [1, 2], "config"),
    (["analyze"], _hostile(lambda p: p.update(m="two")), "m"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(mask="disc")), "lattice.mask"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(mask={"kind": "annulus", "r_min": 0.2})),
     "lattice.mask.r_max"),
    (["analyze"], _hostile(lambda p: p.update(solver={"tol": "small"})), "solver.tol"),
    (["analyze"], _hostile(lambda p: p.update(solver=[])), "solver"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(lo=["a", -1])), "lattice.lo[0]"),
    (["analyze"], _hostile(lambda p: p.update(components=[3])), "components[0]"),
    (["solve-ma"], _hostile(lambda p: (_potential_job(p), p.update(solver={"c": -1}))), "solver.c"),
    (["solve-ma"], _hostile(lambda p: (_potential_job(p), p.update(solver={"c": 0}))), "solver.c"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p["scan"].update(policy="fixed-spacing", spacing=0))),
     "scan.spacing"),
    (["check", "--seed", "-5"], {}, "seed"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p.update(m=3, components=["0.3*x1+0.1*x3"]))), "m"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p.update(radii=[-2, -1]))), "radii"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(lo=[float("nan"), -1])), "lattice.lo[0]"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p["scan"].update(nodes=1))), "scan.nodes"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(nodes=5.7)), "lattice.nodes"),
    (["analyze"], _hostile(lambda p: p.update(m=2.5)), "m"),
    (["solve-maximal"], _hostile(lambda p: p.update(solver={"delta_safe": 2})), "solver.delta_safe"),
    (["solve-maximal"], _hostile(lambda p: p.update(solver={"tol": float("inf")})), "solver.tol"),
    (["solve-maximal"], _hostile(lambda p: p.update(solver={"max_iter": -3})), "solver.max_iter"),
    (["lagrangian"], _hostile(lambda p: (_potential_job(p), p.update(oracle="false"))), "oracle"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p["scan"].update(center_fraction=-1))),
     "scan.center_fraction"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(mask={"kind": "disc", "r_max": -1})),
     "lattice.mask.r_max"),
    (["analyze", "--format", "xml"], _hostile(lambda p: None), "--format"),
    (["check", "--seed", "x"], {}, "--seed"),
    (["analyze"], _hostile(lambda p: p.update(m=1, lattice={"lo": [-1], "hi": [1], "nodes": 1e300})),
     "lattice.nodes"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(nodes=1e6)), "lattice.nodes"),
    (["analyze"], _hostile(lambda p: p["lattice"].update(nodes=None, spacing=1e-6)), "lattice.spacing"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p["scan"].update(nodes=10**6))), "scan.nodes"),
    (["scan"], _hostile(lambda p: (_scan_job(p), p["scan"].update(policy="fixed-spacing", spacing=1e-6))),
     "scan.spacing"),
    (["analyze"], _hostile(lambda p: p.update(m=9, components=["x1"], lattice=_box(9))), "m"),
    (["lagrangian"], _hostile(lambda p: (_potential_job(p), p.update(m=9, lattice=_box(9)))), "m"),
], ids=["top-level-array", "m-not-a-number", "mask-not-an-object", "annulus-without-r_max",
        "tol-not-a-number", "solver-not-an-object", "lo-not-a-number", "component-not-a-string",
        "ma-c-negative", "ma-c-zero", "scan-spacing-zero", "check-seed-negative",
        "scan-m3", "radii-negative", "lo-nan", "scan-one-node", "nodes-fractional",
        "m-fractional", "delta_safe-above-1", "tol-infinite", "max_iter-negative",
        "oracle-a-string", "center_fraction-negative", "r_max-negative", "format-flag-xml",
        "seed-flag-not-a-number", "nodes-1e300", "nodes-1e6", "spacing-tiny", "scan-nodes-huge",
        "scan-spacing-tiny", "analyze-m-above-jet-cap", "lagrangian-m-above-jet-cap"])
def test_hostile_config_values_exit_1(tmp_path, capsys, argv, payload, path):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run_cli(argv + ["--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("command, job", [
    ("analyze", lambda p: None), ("solve-maximal", lambda p: None), ("solve-ma", _potential_job),
    ("scan", _scan_job), ("check", lambda p: None),
], ids=["analyze", "solve-maximal", "solve-ma", "scan", "check"])
def test_only_lagrangian_takes_the_oracle(tmp_path, capsys, command, job):
    # the flag and the config key are refused alike, before any file is
    # written; "oracle": false, the default, is accepted
    out = tmp_path / "r.out"
    for key, flags in ((None, ["--oracle"]), (True, [])):
        cfg = write_config(tmp_path, "cfg.json", _hostile(lambda p: (job(p), p.update(oracle=key))))
        assert run_cli([command, "--config", cfg, "--out", str(out)] + flags) == 1
        assert capsys.readouterr().err == f"config error: oracle: {command} needs oracle false\n"
        assert not out.exists()
    cfg = write_config(tmp_path, "cfg.json", _hostile(lambda p: (job(p), p.update(oracle=False))))
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


def test_lagrangian_reads_the_oracle_key(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", _hostile(lambda p: (_potential_job(p),
                                                                 p.update(oracle=True))))
    out = tmp_path / "l.csv"
    assert run_cli(["lagrangian", "--config", cfg, "--out", str(out)]) == 0
    assert "riemann_oracle_err" in out.read_text().split("\n")[0]


def test_unwritable_out_exits_1(tmp_path, capsys):
    cfg = analyze_config(tmp_path, str(tmp_path / "missing" / "r.csv"))
    assert run_cli(["analyze", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: out: ")
    assert run_cli(["analyze", "--config", cfg, "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("config error: out: must be a file path")


def test_integer_valued_numbers_are_counts(tmp_path):
    # 5.0 is the count 5: the same job gives the same bytes
    outs = []
    for m, nodes in ((2, 5), (2.0, 5.0)):
        out = tmp_path / f"r{nodes}.csv"
        cfg = write_config(tmp_path, "cfg.json", {
            "m": m, "n": 1, "components": ["0.6*x1+0.1*x2^2"],
            "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": nodes}})
        assert run_cli(["analyze", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_imports_only_public_names():
    import ast

    import spacelike.cli as cli_mod

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(Path(cli_mod.__file__).read_text())
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("spacelike")):
            found += [alias.name for alias in node.names if private(alias.name)]
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("spacelike") and any(map(private, alias.name.split(".")))]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    assert found == []


def test_readme_lists_the_schema():
    from pathlib import Path

    from spacelike.cli import REQUIRED, REQUIRES, SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for path, kind, default, rule in SCHEMA:
        kind = " or ".join(f"`{k}`" for k in kind) if isinstance(kind, tuple) else kind
        default = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
        row = f"| `{path}` | {kind} | {default} | {'' if rule is None else rule.text} |"
        assert row in readme, row
    for command, needs in REQUIRES.items():
        needs = ", ".join(rule.text.replace("{", "").replace("}", "") for _, rule in needs)
        assert f"| `{command}` | {needs or 'nothing'} |" in readme


def test_lagrangian_domain_error_is_a_node_status(tmp_path, capsys):
    out = tmp_path / "l.csv"
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "x1^2+x2^2+0.1*log(x1+0.5)",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5}, "out": str(out),
    })
    assert run_cli(["lagrangian", "--config", cfg, "--oracle"]) == 0
    assert "25 nodes, 10 flagged" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for r in rows:
        if float(r["x1"]) <= -0.5:
            assert r["status"] == "error:DomainError"
            assert r["det_hess"] == r["S"] == r["riemann_oracle_err"] == "nan"
        else:
            assert r["status"] == "ok"
            assert float(r["riemann_oracle_err"]) <= 1e-6


def test_lagrangian_status_ignores_unreported_shifted_points(tmp_path, capsys):
    # at x1 = -0.5 the jets are finite (det_hess about 8e11), but points
    # 1e-6 to the left leave the log's domain: without --oracle no column
    # reads them, so those nodes are ok
    out = tmp_path / "l.csv"
    cfg = write_config(tmp_path, "cfg.json", {
        "m": 2, "potential": "x1^2+x2^2-0.1*log(x1+0.5000005)",
        "lattice": {"lo": [-1, -1], "hi": [1, 1], "nodes": 5}, "out": str(out),
    })
    assert run_cli(["lagrangian", "--config", cfg]) == 0
    assert "25 nodes, 5 flagged" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for r in rows:
        if float(r["x1"]) < -0.5:
            assert r["status"] == "error:DomainError"
        else:
            assert r["status"] == "ok"
            for col in ("S", "H_norm", "min_ricci_eig", "scalar_curv"):
                assert math.isfinite(float(r[col]))
        if float(r["x1"]) == -0.5:
            assert float(r["det_hess"]) > 1e11


@pytest.mark.parametrize("cells, written", [
    (["ok", "not-spacelike", "error:DomainError"],
     b"status,n\nok,0\nnot-spacelike,1\nerror:DomainError,2\n"),
    (["ok", "a,b"], b'status,n\nok,0\n"a,b",1\n'),
    (["ok", 'say "x"'], b'status,n\nok,0\n"say ""x""",1\n'),
    (["ok", "two\nlines"], b'status,n\nok,0\n"two\nlines",1\n'),
    (["a,b", "ok", 'c"d'], b'status,n\n"a,b",0\nok,1\n"c""d",2\n'),
], ids=["plain", "comma", "quote", "newline", "mixed"])
def test_string_cells_are_quoted_only_where_they_need_it(tmp_path, cells, written):
    out = tmp_path / "t.csv"
    write_records(str(out), {"status": np.array(cells), "n": np.arange(len(cells))}, {}, "csv")
    assert out.read_bytes() == written


def test_importing_the_cli_leaves_the_check_battery_unimported():
    # only the check command reads spacelike.checks; every other job skips compiling it
    code = "import sys, spacelike.cli\nprint('spacelike.checks' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_one_process_reuses_the_argument_parser_safely(tmp_path, capsys):
    # a bad flag, a good job and a bad flag again through the one parser of the
    # process: the good job writes what a fresh process writes
    assert main(["analyze", "--format", "xml"]) == 1
    assert capsys.readouterr().err.startswith("config error: --format: invalid choice: 'xml'")
    cfg = analyze_config(tmp_path, None, components=["sqrt(1+x1^2+x2^2)-1"])
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "in.csv")]) == 0
    stdout = capsys.readouterr().out
    res = subprocess.run([sys.executable, "-m", "spacelike", "analyze", "--config", cfg,
                          "--out", str(tmp_path / "fresh.csv")], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "in.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert stdout == res.stdout
    assert main(["check", "--seed", "x"]) == 1
    assert capsys.readouterr().err.startswith("config error: --seed: invalid int value: 'x'")


HELP_80 = """\
usage: spacelike [-h] [--config CONFIG] [--out OUT] [--format {csv,json}]
                 [--oracle] [--seed SEED]
                 {analyze,lagrangian,solve-maximal,solve-ma,scan,check}

space-like graph geometry: batch analysis, lattice solvers, decay scans and
invariant checks

positional arguments:
  {analyze,lagrangian,solve-maximal,solve-ma,scan,check}

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to the JSON job configuration
  --out OUT             output file (default: stdout or command default)
  --format {csv,json}
  --oracle              emit independent-oracle comparison columns
  --seed SEED           seed for sample-point jitter in property suites
"""


def test_help_text_at_80_columns():
    res = subprocess.run([sys.executable, "-m", "spacelike", "--help"], capture_output=True,
                         text=True, env={**os.environ, "COLUMNS": "80"})
    assert res.returncode == 0, res.stderr
    assert res.stdout == HELP_80
