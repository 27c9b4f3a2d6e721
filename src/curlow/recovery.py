"""Core low-rank recovery: estimate bases as the top-r left singular
vectors of the sampled columns and rows, then fit the r x r core by least
squares over the observed entries.

The bases come from a thin SVD of the n x d and m x d samples, never from
their n x n Gram matrices, which would cost O(n^3) and square the
condition number. The design matrix K has one row per observed entry
(a, b) and one column per core coefficient (i, j), holding
U_hat[a, i] * V_hat[b, j]; one eigendecomposition of the r^2 x r^2 normal
matrix K^T K solves the fit, and its smallest eigenvalue doubles as the
measured strong convexity of the objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, as_matrix, svd
from .sampling import OmegaSet

# sigma_r - sigma_{r+1} at or below this times max(sigma_1, 1) marks a
# degenerate basis split, the scale at which an SVD resolves singular
# values; recovery proceeds but flags it
GAP_TOL = 1e-12

# lambda_min below 1e-12 * |Omega| / (n * m) marks an ill-posed fit
DEGENERACY_RTOL = 1e-12


class IllPosedError(RuntimeError):
    """The normal equations are numerically singular at ridge zero."""

    def __init__(self, lambda_min: float, threshold: float):
        self.lambda_min = lambda_min
        self.threshold = threshold
        super().__init__(
            f"design matrix is rank-deficient: lambda_min(K^T K) = "
            f"{lambda_min:.3e} below threshold {threshold:.3e}; "
            "enlarge the entry sample or set a positive ridge"
        )


@dataclass(frozen=True)
class Bases:
    """Estimated bases: the top-r left singular vectors of the sampled
    columns A (U_hat) and of the transposed sampled rows B (V_hat), with the
    top r+1 singular values of each, zero-padded when a sample has only r
    (d = r)."""

    U_hat: np.ndarray
    V_hat: np.ndarray
    left_sigma: np.ndarray
    right_sigma: np.ndarray
    degenerate_gap: bool

    @property
    def r(self) -> int:
        return self.U_hat.shape[1]


@dataclass(frozen=True)
class DesignSystem:
    """Least-squares system K z = y over the observed entries."""

    K: np.ndarray  # |Omega| x r^2
    y: np.ndarray
    r: int
    shape: tuple[int, int]  # grid shape the observations came from


@dataclass(frozen=True)
class RecoveryInputs:
    """Sampled columns A (n x d), transposed sampled rows B (m x d),
    observed entries, and the target rank."""

    A: np.ndarray
    B: np.ndarray
    omega: OmegaSet
    r: int

    def __post_init__(self):
        n, m = self.omega.shape
        if self.A.shape[0] != n:
            raise ValueError(f"A has {self.A.shape[0]} rows, expected {n}")
        if self.B.shape[0] != m:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {m}")
        if self.A.shape[1] != self.B.shape[1]:
            raise ValueError("A and B must hold the same number of samples")
        d = self.A.shape[1]
        if not 1 <= self.r <= d:
            raise ValueError(f"r must be in [1, d={d}], got {self.r}")


@dataclass(frozen=True)
class RecoveryResult:
    """Fitted core and diagnostics; M_hat = U_hat @ Z_star @ V_hat.T."""

    Z_star: np.ndarray
    bases: Bases
    lambda_min_KtK: float
    residual: float

    def reconstruct(self) -> DenseMatrix:
        return self.bases.U_hat @ self.Z_star @ self.bases.V_hat.T


def _top_basis(S: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, bool]:
    f = svd(S)
    head = np.zeros(r + 1)
    k = min(r + 1, f.sigma.size)
    head[:k] = f.sigma[:k]
    degenerate = head[r - 1] - head[r] <= GAP_TOL * max(float(head[0]), 1.0)
    return f.U[:, :r], head, bool(degenerate)


def build_bases(A, B, r: int) -> Bases:
    """Top-r left singular vectors of the samples A (n x d) and B (m x d),
    from their thin SVDs.

    A closed singular-value gap at position r, or samples of rank below r,
    only raise the degenerate flag; the fit is still defined, just not
    uniquely oriented.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if not 1 <= r <= min(A.shape[1], B.shape[1]):
        raise ValueError(f"r must be in [1, {min(A.shape[1], B.shape[1])}], got {r}")
    U_hat, sl, deg_l = _top_basis(A, r)
    V_hat, sr, deg_r = _top_basis(B, r)
    return Bases(U_hat=U_hat, V_hat=V_hat, left_sigma=sl, right_sigma=sr,
                 degenerate_gap=deg_l or deg_r)


def assemble_design(bases: Bases, omega: OmegaSet) -> DesignSystem:
    """Rows of K are elementwise products of U_hat and V_hat rows at the
    observed positions; y holds the observed values."""
    n, m = omega.shape
    if bases.U_hat.shape[0] != n or bases.V_hat.shape[0] != m:
        raise ValueError(
            f"bases sized for {bases.U_hat.shape[0]} x {bases.V_hat.shape[0]}, "
            f"observations for {n} x {m}"
        )
    r = bases.r
    ur = bases.U_hat[omega.rows]
    vr = bases.V_hat[omega.cols]
    K = (ur[:, :, None] * vr[:, None, :]).reshape(omega.size, r * r)
    return DesignSystem(K=K, y=omega.values.copy(), r=r, shape=omega.shape)


def _normal_eigh(system: DesignSystem) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of K^T K."""
    return np.linalg.eigh(system.K.T @ system.K)


def strong_convexity_gamma(system: DesignSystem) -> float:
    """Smallest eigenvalue of K^T K (clamped at zero), from the same
    factorization `solve_core` reads it from."""
    return max(float(_normal_eigh(system)[0][0]), 0.0)


def solve_core(system: DesignSystem, ridge: float = 0.0):
    """Minimize ||K z - y||^2 + ridge * ||z||^2 over the core.

    Returns (Z_star, lambda_min, residual) where residual is the data-fit
    term at the optimum. With ridge zero a lambda_min below the degeneracy
    threshold raises IllPosedError instead of returning a garbage fit.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    K, y, r = system.K, system.y, system.r
    w, Q = _normal_eigh(system)
    lambda_min = max(float(w[0]), 0.0)
    n, m = system.shape
    threshold = DEGENERACY_RTOL * len(y) / (n * m)
    if ridge == 0.0 and lambda_min < threshold:
        raise IllPosedError(lambda_min, threshold)
    # eigenvalues of a Gram are nonnegative; clamp rounding below zero so a
    # positive ridge keeps every denominator positive
    z = Q @ ((Q.T @ (K.T @ y)) / (np.maximum(w, 0.0) + ridge))
    residual = float(np.sum((K @ z - y) ** 2))
    return z.reshape(r, r), lambda_min, residual


def fit(bases: Bases, system: DesignSystem, ridge: float = 0.0):
    """Core fit over the design built on `bases`.

    Returns (RecoveryResult, M_hat).
    """
    Z_star, lambda_min, residual = solve_core(system, ridge)
    result = RecoveryResult(Z_star=Z_star, bases=bases,
                            lambda_min_KtK=lambda_min, residual=residual)
    return result, result.reconstruct()


def recover(inputs: RecoveryInputs, ridge: float = 0.0):
    """Full pipeline: bases from A and B, the design over the observations,
    then `fit`. Returns (RecoveryResult, M_hat).
    """
    bases = build_bases(inputs.A, inputs.B, inputs.r)
    return fit(bases, assemble_design(bases, inputs.omega), ridge)
