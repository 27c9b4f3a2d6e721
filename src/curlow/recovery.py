"""Core low-rank recovery: estimate bases as the top-r left singular
vectors of the sampled columns and rows, then fit the r x r core by least
squares over the observed entries.

The bases come from a thin SVD of the n x d and m x d samples, never from
their n x n Gram matrices, which would cost O(n^3) and square the
condition number. The design K has one row per observed entry (a, b) and
one column per core coefficient (i, j): row k is the Kronecker product
u_a (x) v_b of the rows of U_hat and V_hat at the observed position. K is
never formed on the solve path. `DesignSystem` reads that structure
instead: K^T K = sum_a (u_a u_a^T) (x) W_a with W_a the sum of v_b v_b^T
over the observed entries of row a, K^T y = vec(U_hat^T Y V_hat) for Y
holding the observed values and zeros elsewhere, and the residual needs
only the r-wide rows of U_hat Z and V_hat. Each is built
over chunks of Omega of at most CHUNK_BYTES, so memory stays at one chunk
however large Omega is. One eigendecomposition of K^T K solves the fit,
and its smallest eigenvalue doubles as the measured strong convexity of
the objective.
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

# bytes of per-entry arrays built at a time; a smaller Omega is one chunk
CHUNK_BYTES = 16 * 2**20


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


def _pair_products(x: np.ndarray) -> np.ndarray:
    """Rows x[j] * x[l] for the pairs j <= l, in np.triu_indices order."""
    r = len(x)
    out = np.empty((r * (r + 1) // 2, x.shape[1]))
    at = 0
    for j in range(r):
        np.multiply(x[j], x[j:], out=out[at:at + r - j])
        at += r - j
    return out


class DesignSystem:
    """Least-squares system K z = y over the observed entries, where row k
    of K is the Kronecker product of U_hat[rows[k]] and V_hat[cols[k]].

    No row of K is built to solve it: `normal` sums r x r products of V_hat
    rows per observed row of M and contracts them with that row's U_hat
    outer product, and `residual` gathers r-wide rows, each over chunks of
    Omega of at most CHUNK_BYTES. `eigh` factors K^T K once for the fit
    and for the strong convexity read from it."""

    def __init__(self, bases: Bases, omega: OmegaSet):
        self.bases = bases
        self.omega = omega
        self._normal: tuple[np.ndarray, np.ndarray] | None = None
        self._eigh: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def r(self) -> int:
        return self.bases.r

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape the observations came from."""
        return self.omega.shape

    @property
    def y(self) -> np.ndarray:
        return self.omega.values

    @property
    def K(self) -> np.ndarray:
        """The full |Omega| x r^2 design, built on each access; for oracles
        and tests, never read on the solve path."""
        ur = self.bases.U_hat[self.omega.rows]
        vr = self.bases.V_hat[self.omega.cols]
        return (ur[:, :, None] * vr[:, None, :]).reshape(len(ur), self.r ** 2)

    def _chunks(self, entry_bytes: int):
        """Consecutive slices of Omega of at most CHUNK_BYTES at
        `entry_bytes` per entry, and at least one entry each."""
        step = max(1, CHUNK_BYTES // entry_bytes)
        return (slice(start, start + step)
                for start in range(0, self.omega.size, step))

    def normal(self) -> tuple[np.ndarray, np.ndarray]:
        """K^T K and K^T y, accumulated chunk by chunk and built once.

        Omega is sorted by row, so a chunk holds runs of entries that share
        a row a: the products v_b[j] v_b[l] summed over a run give W_a, and
        H[(i, k), (j, l)] collects u_a[i] u_a[k] W_a[j, l]; a row split
        between two chunks adds its two partial sums. Both factors are
        symmetric, so only the pairs i <= k and j <= l are formed. einsum
        without `optimize` runs no BLAS, so the bytes do not depend on the
        BLAS thread count."""
        if self._normal is None:
            r = self.r
            H = np.zeros((r * (r + 1) // 2,) * 2)
            b = np.zeros((r, r))
            # a chunk's pair products, v and v * y
            for sl in self._chunks(8 * (r * (r + 1) // 2 + 2 * r)):
                rows = self.omega.rows[sl]
                starts = np.flatnonzero(np.diff(rows, prepend=-1))
                # C-ordered r x k and r x c gathers: each product row and
                # each run sum reads contiguous memory
                u = self.bases.U_hat.T.take(rows[starts], axis=1)
                v = self.bases.V_hat.T.take(self.omega.cols[sl], axis=1)
                W = np.add.reduceat(_pair_products(v), starts, axis=1)
                H += np.einsum("pa,qa->pq", _pair_products(u), W)
                b += np.einsum("ia,ja->ij", u,
                               np.add.reduceat(v * self.y[sl], starts, axis=1))
                del u, v, W  # free this chunk before the next one is built
            pair = np.empty((r, r), dtype=np.intp)
            upper = np.triu_indices(r)
            pair[upper] = pair[upper[::-1]] = np.arange(len(upper[0]))
            # K^T K[(i, j), (k, l)] = H[(i, k), (j, l)]
            G = H[pair[:, None, :, None], pair[None, :, None, :]]
            self._normal = (G.reshape(r * r, r * r), b.reshape(-1))
        return self._normal

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of K^T K, taken once."""
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self.normal()[0])
        return self._eigh

    def residual(self, Z: np.ndarray) -> float:
        """||K vec(Z) - y||^2, entry t predicted as (U_hat Z)[rows[t]] .
        V_hat[cols[t]]; the two r-wide gathers of a chunk share CHUNK_BYTES."""
        UZ = self.bases.U_hat @ Z
        total = 0.0
        for sl in self._chunks(16 * self.r):
            fitted = np.einsum("ti,ti->t", UZ[self.omega.rows[sl]],
                               self.bases.V_hat[self.omega.cols[sl]])
            total += float(np.sum((fitted - self.y[sl]) ** 2))
        return total


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
    """The design over `omega` on `bases`, once their shapes are checked;
    rows of K are elementwise products of U_hat and V_hat rows at the
    observed positions, and y holds the observed values."""
    n, m = omega.shape
    if bases.U_hat.shape[0] != n or bases.V_hat.shape[0] != m:
        raise ValueError(
            f"bases sized for {bases.U_hat.shape[0]} x {bases.V_hat.shape[0]}, "
            f"observations for {n} x {m}"
        )
    return DesignSystem(bases, omega)


def strong_convexity_gamma(system: DesignSystem) -> float:
    """Smallest eigenvalue of K^T K (clamped at zero), from the system's
    one `eigh`, which `solve_core` also reads."""
    return max(float(system.eigh()[0][0]), 0.0)


def solve_core(system: DesignSystem, ridge: float = 0.0):
    """Minimize ||K z - y||^2 + ridge * ||z||^2 over the core.

    Returns (Z_star, lambda_min, residual) where residual is the data-fit
    term at the optimum. With ridge zero a lambda_min below the degeneracy
    threshold raises IllPosedError instead of returning a garbage fit.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    w, Q = system.eigh()
    lambda_min = max(float(w[0]), 0.0)
    n, m = system.shape
    threshold = DEGENERACY_RTOL * system.omega.size / (n * m)
    if ridge == 0.0 and lambda_min < threshold:
        raise IllPosedError(lambda_min, threshold)
    # eigenvalues of a Gram are nonnegative; clamp rounding below zero so a
    # positive ridge keeps every denominator positive
    z = Q @ ((Q.T @ system.normal()[1]) / (np.maximum(w, 0.0) + ridge))
    Z = z.reshape(system.r, system.r)
    return Z, lambda_min, system.residual(Z)


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
