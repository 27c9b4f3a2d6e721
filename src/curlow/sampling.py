"""Uniform without-replacement sampling of columns, rows, and entries.

Randomness comes from counter-based Philox streams keyed by (seed,
stream_id), so any (seed, stream_id) pair reproduces the same draws on
every platform and parallel workers can derive disjoint streams without
coordination.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, as_matrix

_DERIVE_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier


@dataclass(frozen=True)
class RngStream:
    """A named, replayable random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (np.uint64(self.seed % 2**64), np.uint64(self.stream_id % 2**64))
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, k: int) -> "RngStream":
        """Child stream k; distinct k values give disjoint streams."""
        mixed = (self.stream_id * _DERIVE_MIX + k + 1) % 2**64
        return RngStream(seed=self.seed, stream_id=mixed)


@dataclass(frozen=True)
class IndexSet:
    """Distinct sorted indices into one axis, with the draw order retained."""

    indices: np.ndarray  # sorted, strictly increasing
    bound: int  # axis length; all indices lie in [0, bound)
    draw_order: np.ndarray  # same values in the order they were drawn

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.bound):
            raise ValueError("indices out of bounds")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if sorted(self.draw_order.tolist()) != idx.tolist():
            raise ValueError("draw_order must be a permutation of indices")


@dataclass(frozen=True)
class OmegaSet:
    """Distinct observed entries of an n x m grid, sorted by (row, col)."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n, m = self.shape
        if len(self.rows) != len(self.cols) or len(self.rows) != len(self.values):
            raise ValueError("rows, cols, values must have equal length")
        if len(self.rows) == 0:
            raise ValueError("empty observation set")
        if self.rows.min() < 0 or self.rows.max() >= n:
            raise ValueError("row index out of bounds")
        if self.cols.min() < 0 or self.cols.max() >= m:
            raise ValueError("col index out of bounds")
        flat = self.rows.astype(np.int64) * m + self.cols.astype(np.int64)
        if np.any(np.diff(flat) <= 0):
            raise ValueError("entries must be strictly sorted by (row, col)")

    @property
    def size(self) -> int:
        return int(len(self.rows))


def _draw_without_replacement(rng: np.random.Generator, total: int, count: int):
    if not 1 <= count <= total:
        raise ValueError(f"sample size must be in [1, {total}], got {count}")
    return rng.choice(total, size=count, replace=False)


def sample_columns(M, d: int, stream: RngStream) -> tuple[IndexSet, DenseMatrix]:
    """Draw d distinct columns uniformly; returns the index set and the
    n x d matrix of those columns in draw order."""
    A = as_matrix(M)
    drawn = _draw_without_replacement(stream.generator(), A.shape[1], d)
    idx = IndexSet(indices=np.sort(drawn), bound=A.shape[1], draw_order=drawn)
    return idx, A[:, drawn].copy()


def sample_rows(M, d: int, stream: RngStream) -> tuple[IndexSet, DenseMatrix]:
    """Draw d distinct rows uniformly; returns the index set and the
    m x d matrix holding the transposed rows in draw order."""
    return sample_columns(as_matrix(M).T, d, stream)


def sample_entries(M, s: int, stream: RngStream) -> OmegaSet:
    """Draw s distinct entries uniformly from the full n x m grid."""
    A = as_matrix(M)
    n, m = A.shape
    flat = _draw_without_replacement(stream.generator(), n * m, s)
    flat = np.sort(flat.astype(np.int64))
    rows, cols = np.divmod(flat, m)
    return OmegaSet(shape=(n, m), rows=rows, cols=cols, values=A[rows, cols].copy())
