"""Subspace coherence measures, regularized numerical rank, and the
largest principal angle between subspaces.

Coherence of an orthonormal basis Q with N rows and r columns is
max_i (N/r) * ||Q[i, :]||^2, which lies in [1, N/r]. The combined measure
for a matrix takes the worse of its top-r left and right singular bases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ORTHONORMAL_TOL,
    PINV_RTOL,
    SvdFactors,
    spectral_norm,
)


@dataclass(frozen=True)
class NumericalRankReport:
    """Regularized rank sum_i sigma_i^2 / (sigma_i^2 + m*n*lam) with the
    matching weighted coherence mu_lambda: left rows scale by n / r(M, lam),
    right rows by m / r(M, lam), and at lam = 0 with full-rank bases it
    reduces to the top-r coherence."""

    value: float
    mu_lambda: float


def _check_orthonormal(Q, name: str) -> np.ndarray:
    A = np.asarray(Q, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] < 1:
        raise ValueError(f"{name} must be 2-d with at least one column")
    if A.shape[0] < A.shape[1]:
        raise ValueError(f"{name} has more columns than rows: {A.shape}")
    err = float(np.linalg.norm(A.T @ A - np.eye(A.shape[1])))
    if err > ORTHONORMAL_TOL:
        raise ValueError(
            f"{name} does not have orthonormal columns: "
            f"||Q^T Q - I||_F = {err:.3e}"
        )
    return A


def _leverage(Q: np.ndarray) -> np.ndarray:
    return np.sum(Q * Q, axis=1)


def basis_incoherence(Q, name: str = "Q") -> float:
    """Coherence of one orthonormal basis, clipped into [1, N/r], so every
    reader sees one value in range: the orthonormality check already holds
    its rounding within ORTHONORMAL_TOL of that range."""
    A = _check_orthonormal(Q, name)
    N, r = A.shape
    mu = float(N / r * np.max(_leverage(A)))
    return min(max(mu, 1.0), N / r)


def mu_r(U, V) -> float:
    """Coherence of a left and right basis pair of r columns each: mu_r of
    a matrix from its top-r singular bases, mu_hat of a draw from its
    estimated bases."""
    mu_u = basis_incoherence(U, "U")
    mu_v = basis_incoherence(V, "V")
    if np.shape(U)[1] != np.shape(V)[1]:
        raise ValueError("U and V must have the same column count")
    return max(mu_u, mu_v)


def _weights(sigma: np.ndarray, n: int, m: int, lam: float):
    """Per-direction weights sigma_i / sqrt(sigma_i^2 + m*n*lam) and the
    rank contributions sigma_i^2 / (sigma_i^2 + m*n*lam).

    At lam = 0 directions with sigma at or below the relative zero cutoff
    carry zero weight, so rank-deficient inputs stay well defined.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    s_diag = sigma**2 + m * n * lam
    if lam == 0.0:
        cut = PINV_RTOL * sigma[0] if sigma.size and sigma[0] > 0 else 0.0
        live = sigma > cut
        w = np.where(live, 1.0, 0.0)
        contrib = w.copy()
    else:
        w = sigma / np.sqrt(s_diag)
        contrib = sigma**2 / s_diag
    return w, contrib


def numerical_rank(f: SvdFactors, lam: float) -> NumericalRankReport:
    """Regularized numerical rank, at regularization lam, of the matrix
    with SVD f."""
    n, m = f.U.shape[0], f.V.shape[0]
    w, contrib = _weights(f.sigma, n, m, lam)
    value = float(np.sum(contrib))
    if value <= 0.0:
        raise ValueError("numerical rank is zero; M has no usable spectrum")
    mul = _mu_lambda_from(f.U, f.V, w, value, n, m)
    return NumericalRankReport(value=value, mu_lambda=mul)


def _mu_lambda_from(U, V, w, rank_value: float, n: int, m: int) -> float:
    lev_u = _leverage(U * w)
    lev_v = _leverage(V * w)
    return max(n / rank_value * float(np.max(lev_u)),
               m / rank_value * float(np.max(lev_v)))


def sin_theta(Q1, Q2) -> float:
    """Sine of the largest principal angle between two subspaces of equal
    dimension, ||(I - Q1 Q1^T) Q2||_2 (Bjorck-Golub 1973). Its error is
    a few eps at any angle; sqrt(1 - c^2) from the smallest cosine c of
    Q2^T Q1 reads about 1e-8 for every angle below sqrt(eps)."""
    A = _check_orthonormal(Q1, "Q1")
    B = _check_orthonormal(Q2, "Q2")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return min(1.0, spectral_norm(B - A @ (A.T @ B)))
