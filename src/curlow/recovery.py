"""Core low-rank recovery: estimate bases as the top-r left singular
vectors of the sampled columns and rows, then fit the r x r core by least
squares over the observed entries.

The bases never come from the n x n Gram matrices of the n x d and m x d
samples, which would cost O(n^3) and square the condition number. A
sample S with min(n, d) >= ITERATION_MIN_SIDE * l, l = r + OVERSAMPLE,
goes to randomized subspace iteration (Halko, Martinsson and Tropp 2011,
Algorithm 4.4): Q = orth(S W) for the d x l test matrix W drawn from the
fixed TEST_MATRIX_STREAM, then, once per step, the small SVD of S^T Q
gives the Ritz values, the top-r Ritz vectors and the next W. It works
on n x l and d x l blocks only, at O(n d l) per step, and
re-orthonormalizes at every step, so it keeps the conditioning of a thin
SVD. It stops when two successive top-r bases agree to CONVERGED_ULPS
rounding units, and hands S to the thin SVD when the Ritz gap at r is
within sqrt(eps) of closing (a closed gap or a sample of rank below r),
when the Ritz values predict more than Q_MAX steps, or when Q_MAX steps
did not converge. A smaller sample goes to the thin SVD directly, which
is faster there. `top_singular_bases` applies the same rule to a whole
matrix M, iterating on M and on M^T for its top-r left and right bases,
so the lab reads an exact-low-rank budget's coherence without a full SVD
of M above that size.

The design K has one row per observed entry (a, b) and
one column per core coefficient (i, j): row k is the Kronecker product
u_a (x) v_b of the rows of U_hat and V_hat at the observed position. K is
never formed on the solve path. `DesignSystem` reads that structure
instead: K^T K = sum_a (u_a u_a^T) (x) W_a with W_a the sum of v_b v_b^T
over the observed entries of row a, K^T y = vec(U_hat^T Y V_hat) for Y
holding the observed values and zeros elsewhere, and the residual needs
only the r-wide rows of U_hat Z and V_hat. Each is built
over chunks of Omega of at most CHUNK_BYTES, so memory stays at one chunk
however large Omega is. One eigendecomposition of K^T K solves the fit,
and its smallest eigenvalue, `DesignSystem.lambda_min`, doubles as the
measured strong convexity of the objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, _apply_sign_convention, as_matrix, svd
from .sampling import OmegaSet, RngStream

# sigma_r - sigma_{r+1} at or below this times sigma_1 marks a degenerate
# basis split, the scale at which an SVD resolves singular values;
# recovery proceeds but flags it
GAP_TOL = 1e-12

# columns the subspace iteration carries beyond r
OVERSAMPLE = 8
# a sample goes to the subspace iteration when both its sides reach this
# many times r + OVERSAMPLE; on geometric (0.5, 0.9) and power-law (1.0)
# spectra at one BLAS thread the iteration took 0.13-0.81 of the thin
# SVD's time at 16 (r + OVERSAMPLE) and up to 1.35 at 12
ITERATION_MIN_SIDE = 16
# steps S S^T after which the iteration gives up for the thin SVD
Q_MAX = 24
# two successive top-r bases that differ by at most this many units of
# eps (sqrt(n r) + sigma_1 / (sigma_r - sigma_{r+1})) in the Frobenius
# sin theta have converged: the measured rounding floor was at most 5
CONVERGED_ULPS = 32
# the iteration's fixed d x l test matrix: build_bases stays a pure function
TEST_MATRIX_STREAM = RngStream(seed=0x484D54)

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

    def lambda_min(self) -> float:
        """Smallest eigenvalue of K^T K, clamped at zero: the measured
        strong convexity that the fit and every check read."""
        return max(float(self.eigh()[0][0]), 0.0)

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
    """Fitted core on the bases it was fitted on; M_hat = U_hat @ Z_star @
    V_hat.T. lambda_min(K^T K) and the data-fit residual belong to the
    `DesignSystem` the core was fitted over."""

    Z_star: np.ndarray
    bases: Bases

    def reconstruct(self) -> DenseMatrix:
        return self.bases.U_hat @ self.Z_star @ self.bases.V_hat.T


def _subspace_iteration(S: np.ndarray, r: int):
    """(U, sigma head) of the n x d sample S by randomized subspace
    iteration, the head being the top r + 1 Ritz values; None where S
    goes to the thin SVD instead (see the module docstring)."""
    n, d = S.shape
    W = TEST_MATRIX_STREAM.generator().standard_normal((d, r + OVERSAMPLE))
    eps = np.finfo(float).eps
    previous = None
    for step in range(Q_MAX + 1):
        Q = np.linalg.qr(S @ W)[0]
        try:
            W, theta, Vt = np.linalg.svd(S.T @ Q, full_matrices=False)
        except np.linalg.LinAlgError:
            return None
        gap = theta[r - 1] - theta[r]
        if not gap > np.sqrt(eps) * theta[0]:
            return None
        U = Q @ Vt[:r].T
        if previous is not None:
            D = previous - U @ (U.T @ previous)
            change = np.sqrt(np.sum(D * D))
            tol = CONVERGED_ULPS * eps * (np.sqrt(n * r) + theta[0] / gap)
            if change <= tol:
                _apply_sign_convention(U)
                return U, theta[:r + 1]
            # the change shrinks by about (theta_l / theta_r)^2 a step
            rate = theta[-1] / theta[r - 1]
            if rate > 0 and step + np.log(tol / change) / (2 * np.log(rate)) > Q_MAX:
                return None
        previous = U
    return None


def _iterates(S: np.ndarray, r: int) -> bool:
    """Whether S is large enough for the subspace iteration to beat its
    thin SVD: both sides at least ITERATION_MIN_SIDE * (r + OVERSAMPLE)."""
    return min(S.shape) >= ITERATION_MIN_SIDE * (r + OVERSAMPLE)


def top_singular_bases(M: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-r left and right singular bases of M: by the subspace
    iteration on M and on M^T where M passes `_iterates`, else, or where
    either side goes to the thin SVD, from one svd(M)."""
    if _iterates(M, r):
        left = _subspace_iteration(M, r)
        right = None if left is None else _subspace_iteration(M.T, r)
        if right is not None:
            return left[0], right[0]
    f = svd(M)
    return f.U[:, :r], f.V[:, :r]


def _top_basis(S: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, bool]:
    found = _subspace_iteration(S, r) if _iterates(S, r) else None
    if found is None:
        f = svd(S)
        head = np.zeros(r + 1)
        k = min(r + 1, f.sigma.size)
        head[:k] = f.sigma[:k]
        found = f.U[:, :r], head
    U, head = found
    return U, head, bool(head[r - 1] - head[r] <= GAP_TOL * head[0])


def build_bases(A, B, r: int) -> Bases:
    """Top-r left singular vectors of the samples A (n x d) and B (m x d),
    each by subspace iteration or its thin SVD (see the module docstring).

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


def solve_core(system: DesignSystem, ridge: float = 0.0) -> np.ndarray:
    """The r x r core Z_star minimizing ||K z - y||^2 + ridge * ||z||^2.

    With ridge zero a `system.lambda_min()` below the degeneracy threshold
    raises IllPosedError instead of returning a garbage fit.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    w, Q = system.eigh()
    lambda_min = system.lambda_min()
    n, m = system.shape
    threshold = DEGENERACY_RTOL * system.omega.size / (n * m)
    if ridge == 0.0 and lambda_min < threshold:
        raise IllPosedError(lambda_min, threshold)
    # eigenvalues of a Gram are nonnegative; clamp rounding below zero so a
    # positive ridge keeps every denominator positive
    z = Q @ ((Q.T @ system.normal()[1]) / (np.maximum(w, 0.0) + ridge))
    return z.reshape(system.r, system.r)


def fit(system: DesignSystem, ridge: float = 0.0):
    """Core fit over the design, on the bases it is built on.

    Returns (RecoveryResult, M_hat).
    """
    result = RecoveryResult(solve_core(system, ridge), system.bases)
    return result, result.reconstruct()


def recover(inputs: RecoveryInputs, ridge: float = 0.0):
    """Full pipeline: bases from A and B, the design over the observations,
    then `fit`. Returns (RecoveryResult, M_hat).
    """
    bases = build_bases(inputs.A, inputs.B, inputs.r)
    return fit(assemble_design(bases, inputs.omega), ridge)
