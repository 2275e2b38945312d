"""Gradient graphs of convex potentials and the Monge-Ampere connection.

In null coordinates the graph of grad F is space-like exactly where F is
convex, its induced metric is the Hessian of F, and its mean curvature
vanishes exactly where det Hess F is constant.  The curvature of the
Hessian metric is written directly in third derivatives of F and checked
against an intrinsic Christoffel oracle.  A perturbed Monge-Ampere solve
feeds the same formulas; on solutions the Ricci form is nonnegative.
"""

import numpy as np

from spacelike import Lattice, Potential, lagrangian_forms, ma_residual, moduli_curvature, parse
from spacelike.lagrangian import moduli_curvature_arrays, moduli_curvature_oracle, to_standard
from spacelike.solver import field_third, solve_ma

P = Potential.from_string(1, "x1^4")
lf = lagrangian_forms(P, [1.0])
print("F = x1^4 at x = 1:")
print("  B coefficient:", lf.B_coeff[0, 0, 0], " (expect -1)")
print("  H coefficient:", lf.H_coeff[0], " (expect -1/12)")
print("  frame-invariant S:", lf.S, " |H|:", lf.H_norm)
print("  Monge-Ampere residual (c=1):", ma_residual(P, [1.0]))

si = to_standard(P, [1.0])
print("  standard-coordinate route: S =", si.geometry.S, " |H| =", si.geometry.H_norm)

Q = Potential.from_string(2, "0.5*(x1^2 + x2^2) + 0.1*x1^4 + 0.08*x2^3")
x = np.array([0.2, -0.1])
mc = moduli_curvature(Q, x)
oracle = moduli_curvature_oracle(Q, x)
print("\nmoduli curvature vs intrinsic oracle, max deviation:",
      float(np.max(np.abs(mc.riemann - oracle))))
print("scalar curvature:", mc.scalar, " min Ricci eigenvalue:", mc.min_ricci_eig)

# Monge-Ampere solve with a perturbed boundary; the solved field's
# moduli Ricci stays nonnegative (up to extraction error)
lat = Lattice.box((0, 0), (1, 1), 49)
fld, log = solve_ma(lat, parse("0.5*(x1^2+x2^2) + 0.1*sin(x1)*sin(x2)", 2), c=1.0, tol=1e-11)
print("\nMA solve final residual:", log.final_residual)
_, _, hess, third = field_third(fld)
min_eig = np.min(moduli_curvature_arrays(hess, np.linalg.inv(hess), third).min_ricci_eig)
print("min moduli-Ricci eigenvalue over the solved field:", min_eig)
