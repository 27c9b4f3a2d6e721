"""Column/row skeleton baseline: pick c columns and r_rows rows uniformly,
then fit the core against the full matrix, M ~ C @ U_core @ R with
U_core = pinv(C) @ M @ pinv(R).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius_norm, pseudo_inverse, singular_values
from .sampling import IndexSet, RngStream, sample_columns, sample_rows

# relative cutoff below which an approximation error counts as exact
EXACT_RTOL = 1e-12


@dataclass(frozen=True)
class CurFactors:
    C: np.ndarray  # n x c sampled columns
    U_core: np.ndarray  # c x r_rows
    R: np.ndarray  # r_rows x m sampled rows
    col_idx: IndexSet
    row_idx: IndexSet

    def reconstruct(self) -> np.ndarray:
        return self.C @ self.U_core @ self.R


@dataclass(frozen=True)
class CurErrorReport:
    """Frobenius error of the skeleton fit against the best rank-k error.

    When both errors vanish (relative to ||M||_F) the fit is exact and the
    ratio is reported as zero with the exact flag set; an exactly rank-k
    input that the skeleton misses yields an infinite ratio.
    """

    ratio: float
    exact: bool
    cur_error: float
    best_error: float
    k: int

    def to_dict(self) -> dict:
        out = {"k": self.k, "cur_error": self.cur_error,
               "best_error": self.best_error}
        if self.exact:
            out["exact"] = True
        else:
            out["error_ratio"] = self.ratio
        return out


def cur_decompose(M, c: int, r_rows: int, stream: RngStream) -> CurFactors:
    """Uniform column/row skeleton with a full-access core fit."""
    A = as_matrix(M)
    col_idx, C = sample_columns(A, c, stream.derive(0))
    row_idx, rows_t = sample_rows(A, r_rows, stream.derive(1))
    R = rows_t.T
    U_core = pseudo_inverse(C) @ A @ pseudo_inverse(R)
    return CurFactors(C=C, U_core=U_core, R=R, col_idx=col_idx, row_idx=row_idx)


def cur_error_ratio(M, factors: CurFactors, k: int) -> CurErrorReport:
    """Compare the skeleton error with the best rank-k truncation error."""
    A = as_matrix(M)
    sigma = singular_values(A)
    if not 1 <= k <= sigma.size:
        raise ValueError(f"k must be in [1, {sigma.size}], got {k}")
    cur_error = frobenius_norm(A - factors.reconstruct())
    best_error = float(np.sqrt(np.sum(sigma[k:] ** 2)))
    tiny = EXACT_RTOL * float(np.sqrt(np.sum(sigma ** 2)))
    if best_error <= tiny:
        if cur_error <= tiny:
            return CurErrorReport(ratio=0.0, exact=True, cur_error=cur_error,
                                  best_error=best_error, k=k)
        return CurErrorReport(ratio=float("inf"), exact=False,
                              cur_error=cur_error, best_error=best_error, k=k)
    return CurErrorReport(ratio=cur_error / best_error, exact=False,
                          cur_error=cur_error, best_error=best_error, k=k)
