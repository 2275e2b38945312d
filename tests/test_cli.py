import json
import subprocess
import sys

from spacelike.cli import main


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


def test_check_battery_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"out": str(tmp_path / "check.csv")})
    assert run_cli(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 14


def test_check_violation_exit_code(tmp_path, monkeypatch, capsys):
    import spacelike.cli as cli_mod

    real_battery = cli_mod._battery

    def broken_battery(seed):
        checks = real_battery(seed)[:2]
        checks.append(("forced-failure", lambda: (False, "synthetic violation")))
        return checks

    monkeypatch.setattr(cli_mod, "_battery", broken_battery)
    cfg = write_config(tmp_path, "cfg.json", {"out": str(tmp_path / "c.csv")})
    assert run_cli(["check", "--config", cfg]) == 3
    assert "FAIL forced-failure" in capsys.readouterr().out


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
