"""Oracles that only tests read, kept out of the package."""

import numpy as np

from spacelike.failures import PLANE, Failures
from spacelike.grassmann import SpacelikePlane, _transport


def transport_slope(P: SpacelikePlane, Q: SpacelikePlane) -> np.ndarray:
    """Slope of Q after the isometry that moves P to the base plane."""
    rel, failed = _transport(P.slope, Q.slope)
    Failures.clean(failed.shape).add(~np.isnan(failed), PLANE, failed).raise_first()
    return rel


def chart_metric(A: np.ndarray, dA: np.ndarray) -> float:
    """Squared length of the chart velocity dA at the plane with slope A."""
    m, n = A.shape[1], A.shape[0]
    P = np.linalg.inv(np.eye(m) - A.T @ A)
    Q = np.linalg.inv(np.eye(n) - A @ A.T)
    return float(np.trace(P @ dA.T @ Q @ dA))


def moduli_ricci_from_riemann(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """g-contraction Ric_ik = g^{jl} R_jilk of the slot-ordered tensor."""
    return np.einsum("jl,jilk->ik", g_inv, riemann)
