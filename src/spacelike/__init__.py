"""Geometry of entire space-like graph submanifolds in pseudo-Euclidean
space: induced metrics, second fundamental forms, curvature identities,
Gauss-map geometry on the pseudo-Grassmannian, pseudo-distance estimates,
Lagrangian/Monge-Ampere structure, and lattice solvers with oracle-based
cross-checks."""

from .exprparse import DomainError, ParseError, eval_values, parse, pretty
from .jets import Jet3, evaluate_jet, finite_diff_check
from .lattice import Lattice, LatticeError
from .graphgeom import (
    BasePointError, GraphMap, NotSpacelikeError, covariant_h, curvature,
    extremal_residual, frame_riemann_oracle, fundamental_forms, induced_metric,
    integrate_geodesic, pseudo_distance, ricci_bound_check, simons_report,
)
from .grassmann import (
    SpacelikePlane, distance, gauss_map, max_modulus, pullback_check, pullback_trace,
)
from .lagrangian import (
    ModuliCurvature, NotConvexError, Potential, gradient_graph, lagrangian_forms,
    ma_residual, moduli_curvature, to_standard,
)
from .solver import (
    GridField, SolverError, field_immersion_geometry, load_field, save_field,
    solve_ma, solve_maximal,
)
from .bernstein import (
    BallReport, ScanConfig, completeness_probe, decay_scan, estimate_report,
    geodesic_radius,
)

__version__ = "0.1.0"
