"""Oracles that only tests read, kept out of the package."""

import numpy as np

from spacelike.grassmann import SpacelikePlane


def transport_slope(P: SpacelikePlane, Q: SpacelikePlane) -> np.ndarray:
    """Slope of Q after the boost that moves P's Cholesky frame to the base
    plane: L_N^-1 (B - A) (I - A^T B)^-1 L_M, with I - A^T A = L_M L_M^T and
    I - A A^T = L_N L_N^T; its singular values are tanh of the angles."""
    A, B = P.slope, Q.slope
    m, n = A.shape[1], A.shape[0]
    L_M = np.linalg.cholesky(np.eye(m) - A.T @ A)
    L_N = np.linalg.cholesky(np.eye(n) - A @ A.T)
    return np.linalg.solve(L_N, (B - A) @ np.linalg.solve(np.eye(m) - A.T @ B, L_M))


def plane_distance(P: SpacelikePlane, Q: SpacelikePlane) -> float:
    """|theta| over the angles theta_i whose cosh^2 are the eigenvalues of
    (I - A^T A)^-1 (I - A^T B) (I - B^T B)^-1 (I - B^T A), in no frame."""
    A, B = P.slope, Q.slope
    eye = np.eye(A.shape[1])
    M = np.linalg.solve(eye - A.T @ A,
                        (eye - A.T @ B) @ np.linalg.solve(eye - B.T @ B, eye - B.T @ A))
    cosh = np.sqrt(np.maximum(np.linalg.eigvals(M).real, 1.0))
    return float(np.sqrt(np.sum(np.arccosh(cosh) ** 2)))


def chart_metric(A: np.ndarray, dA: np.ndarray) -> float:
    """Squared length of the chart velocity dA at the plane with slope A."""
    m, n = A.shape[1], A.shape[0]
    P = np.linalg.inv(np.eye(m) - A.T @ A)
    Q = np.linalg.inv(np.eye(n) - A @ A.T)
    return float(np.trace(P @ dA.T @ Q @ dA))


def moduli_ricci_from_riemann(g_inv: np.ndarray, riemann: np.ndarray) -> np.ndarray:
    """g-contraction Ric_ik = g^{jl} R_jilk of the slot-ordered tensor."""
    return np.einsum("jl,jilk->ik", g_inv, riemann)
