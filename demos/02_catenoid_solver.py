"""Dirichlet solve of the maximal-hypersurface equation on an annulus.

The Lorentzian catenoid f = arcsinh(r) solves the rotationally symmetric
maximal equation r f' / sqrt(1 - f'^2) = const, so it is an exact
reference for the lattice solver: boundary data from the closed form,
interior recovered at second order in the spacing.
"""

import numpy as np

from spacelike import Lattice, parse, solve_maximal

expr = parse("asinh(sqrt(x1^2 + x2^2))", 2)

print("nodes    spacing    max error    observed order")
prev = None
for nodes in (65, 129, 257):
    lat = Lattice.annulus(0.5, 2.0, nodes)
    fld, log = solve_maximal(lat, expr, tol=1e-11)
    pts = np.stack(np.meshgrid(*lat.axes(), indexing="ij"), axis=-1)
    exact = np.arcsinh(np.linalg.norm(pts, axis=-1))
    act = np.isfinite(fld.values)
    err = float(np.max(np.abs(fld.values - exact)[act]))
    order = "" if prev is None else f"{np.log2(prev / err):14.2f}"
    print(f"{nodes:5d}  {lat.spacing[0]:9.5f}  {err:11.3e}  {order}")
    prev = err

print("\nNewton history of the last solve (stage 1 = full equation):")
for stage, it, res, damp, kind in log.steps:
    if stage == 1.0:
        print(f"  iter {it}: residual {res:.3e}  ({kind} step, damping {damp:g})")
