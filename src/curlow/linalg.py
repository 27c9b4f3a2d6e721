"""Dense linear algebra kernels: SVD, singular values, eigenbases,
pseudo-inverses, and norms, and the BLAS thread count they run under.

Matrices are plain 2-d float64 numpy arrays throughout (row-major). All
factorizations apply a deterministic sign convention so repeated runs on
identical input produce identical factors.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# numpy 2-d float64 array; validated by as_matrix
DenseMatrix = np.ndarray

# Frobenius tolerance on Q^T Q - I for "orthonormal input"
ORTHONORMAL_TOL = 1e-8
# asymmetry gate relative to ||G||_F before symmetric eigendecomposition
SYMMETRY_TOL = 1e-10
# relative cutoff for treating singular values as zero
PINV_RTOL = 1e-12


class SvdConvergenceError(RuntimeError):
    """Iterative SVD failed to converge; carries the input's shape and norm."""

    def __init__(self, shape, fro_norm):
        self.shape = shape
        self.fro_norm = fro_norm
        super().__init__(
            f"SVD did not converge for {shape[0]}x{shape[1]} input "
            f"(frobenius norm {fro_norm:.6e})"
        )


def as_matrix(M, name: str = "M") -> DenseMatrix:
    """Validate and return a 2-d float64 array with finite entries."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True)
class SvdFactors:
    """Economy SVD M = U @ diag(sigma) @ V.T.

    For an n x m input with k = min(n, m): U is n x k with orthonormal
    columns, sigma is length k and nonincreasing, V is m x k.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> DenseMatrix:
        return (self.U * self.sigma) @ self.V.T


def _apply_sign_convention(U: np.ndarray, V: np.ndarray | None = None) -> None:
    """Flip column signs in place so each column of U has its largest-magnitude
    entry positive (ties resolved at the lowest index). V columns co-flip to
    preserve the product U @ diag(s) @ V.T."""
    peaks = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    signs = np.where(peaks < 0, -1.0, 1.0)
    U *= signs
    if V is not None:
        V *= signs


def svd(M) -> SvdFactors:
    """Economy SVD with the deterministic sign convention applied."""
    A = as_matrix(M)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        try:
            U, s, Vt = scipy.linalg.svd(A, full_matrices=False,
                                        lapack_driver="gesvd")
        except scipy.linalg.LinAlgError:
            raise SvdConvergenceError(A.shape, float(np.linalg.norm(A))) from None
    V = Vt.T.copy()
    U = U.copy()
    _apply_sign_convention(U, V)
    return SvdFactors(U=U, sigma=s, V=V)


def eigh_descending(G) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues nonincreasing.

    The input is symmetrized as (G + G.T)/2 after an asymmetry gate of
    SYMMETRY_TOL * ||G||_F on the largest entry of G - G.T.
    """
    A = as_matrix(G, "G")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"G must be square, got shape {A.shape}")
    fro = float(np.linalg.norm(A))
    asym = float(np.max(np.abs(A - A.T)))
    if asym > SYMMETRY_TOL * fro:
        raise ValueError(
            f"G is not symmetric: max|G - G^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_TOL:.0e} * ||G||_F"
        )
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    _apply_sign_convention(V)
    return w, V


def pseudo_inverse(M) -> DenseMatrix:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values at or below PINV_RTOL * sigma_max are treated as zero.
    """
    f = svd(M)
    if f.sigma.size == 0 or f.sigma[0] == 0.0:
        return np.zeros((f.V.shape[0], f.U.shape[0]))
    inv = np.zeros_like(f.sigma)
    keep = f.sigma > PINV_RTOL * f.sigma[0]
    inv[keep] = 1.0 / f.sigma[keep]
    return (f.V * inv) @ f.U.T


def singular_values(M) -> np.ndarray:
    """Singular values, nonincreasing, without the singular vectors: for a
    caller that reads only sigma this skips forming U and V."""
    return np.linalg.svd(as_matrix(M), compute_uv=False)


def spectral_norm(M) -> float:
    """Largest singular value."""
    return float(singular_values(M)[0])


def frobenius_norm(M) -> float:
    """sqrt of numpy's pairwise sum of squares: np.linalg.norm sums through
    BLAS, whose result depends on its thread count."""
    A = as_matrix(M)
    return float(np.sqrt(np.sum(A * A)))


@dataclass(frozen=True)
class OpenBlas:
    """numpy's bundled OpenBLAS, opened through ctypes: the same library
    numpy calls, so a thread count set here governs numpy's kernels."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def openblas() -> OpenBlas | None:
    """The bundled OpenBLAS, opened once; None when numpy links another
    BLAS or the thread-count symbols are missing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return OpenBlas(path=os.path.realpath(path), get_threads=get,
                        set_threads=put)
    return None


@contextlib.contextmanager
def blas_threads(k: int):
    """Run the block with BLAS limited to k threads and restore the previous
    count on exit. The count is process-wide, so enter it from one thread
    at a time. Does nothing when the library cannot be found."""
    blas = openblas()
    if blas is None:
        yield
        return
    previous = blas.get_threads()
    blas.set_threads(k)
    try:
        yield
    finally:
        blas.set_threads(previous)
