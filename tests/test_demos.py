"""Every demo runs to completion.

Each demo runs in its own interpreter with numpy RuntimeWarnings turned into
errors, which puts the lattice solvers of demos 02 (catenoid solver, about
4-5 s) and 05 (Bernstein decay scan, about 1-1.5 s) under warnings-as-errors
end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", ["01_graph_geometry_basics", "02_catenoid_solver",
                                  "03_gauss_map_distances", "04_lagrangian_monge_ampere",
                                  "05_bernstein_decay", "06_pseudo_distance_completeness"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
