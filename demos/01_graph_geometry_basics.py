"""Walk through the per-point geometry of a space-like graph.

The running example is the unit hyperboloid f = sqrt(1 + |x|^2), whose
graph in R^{3}_1 is the hyperbolic plane: every sectional curvature is
-1, the second fundamental form is the identity in adapted frames, and
|H| = 1.
"""

import numpy as np

from spacelike import (
    GraphMap, covariant_h, curvature, extremal_residual, fundamental_forms, induced_metric,
)

gm = GraphMap.from_strings(2, ["sqrt(1 + x1^2 + x2^2)"])
x = np.array([0.7, -0.4])

mp = induced_metric(gm, x)
print("induced metric g =\n", mp.g)
print("min eigenvalue", mp.min_eig, "-> space-like:", mp.spacelike)

fr = fundamental_forms(gm, x)
sig = np.array([1.0, 1.0, -1.0])
print("\nframe Gram (tangent, should be identity):\n", (fr.tangent * sig) @ fr.tangent.T)
print("frame Gram (normal, should be -1):\n", (fr.normal * sig) @ fr.normal.T)

pg = fundamental_forms(gm, x)
print("\nsecond fundamental form h[0] =\n", pg.h[0])
print("|H| =", pg.H_norm, " S =", pg.S, " (expect 1 and m = 2)")

print("\ncoordinate-form extremality residual:", extremal_residual(gm, x),
      "(nonzero: the hyperboloid is umbilic, not maximal)")

cv = curvature(gm, x)
print("\nsectional curvatures K(e1, e2) =", cv.riemann[0, 1, 0, 1], "(expect -1)")
print("Ricci =\n", cv.ricci, "(expect -(m-1) I)")

ch = covariant_h(gm, x)
print("\nmax |grad h| =", np.max(np.abs(ch.h_cov)),
      "(umbilic: parallel second fundamental form)")
print("Codazzi asymmetry:", ch.codazzi_asym)

# a maximal example for contrast: the Lorentzian catenoid
cat = GraphMap.from_strings(2, ["asinh(sqrt(x1^2 + x2^2))"])
pg_cat = fundamental_forms(cat, [1.0, 0.3])
print("\ncatenoid |H| =", pg_cat.H_norm, " S =", pg_cat.S,
      "(maximal: |H| vanishes, S does not)")
