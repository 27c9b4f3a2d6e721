import numpy as np
import pytest

from curlow.sampling import (
    IndexSet,
    OmegaSet,
    RngStream,
    sample_columns,
    sample_entries,
    sample_rows,
)


def planted(n=6, m=5, seed=0):
    return np.random.default_rng(seed).standard_normal((n, m))


# --- RngStream ----------------------------------------------------------


def test_stream_replays_identically():
    s = RngStream(seed=123, stream_id=4)
    a = s.generator().integers(0, 1000, size=16)
    b = s.generator().integers(0, 1000, size=16)
    assert np.array_equal(a, b)


def test_derive_is_deterministic_and_distinct():
    s = RngStream(seed=9)
    kids = [s.derive(k).stream_id for k in range(64)]
    assert len(set(kids)) == 64
    assert s.derive(5) == s.derive(5)


# --- IndexSet / OmegaSet validation --------------------------------------


def test_index_set_validation():
    ok = IndexSet(indices=np.array([0, 2]), bound=3,
                  draw_order=np.array([2, 0]))
    assert ok.bound == 3
    with pytest.raises(ValueError):
        IndexSet(indices=np.array([2, 0]), bound=3,
                 draw_order=np.array([2, 0]))
    with pytest.raises(ValueError):
        IndexSet(indices=np.array([0, 3]), bound=3,
                 draw_order=np.array([3, 0]))
    with pytest.raises(ValueError):
        IndexSet(indices=np.array([0, 1]), bound=3,
                 draw_order=np.array([0, 2]))


def test_omega_set_requires_sorted_distinct():
    with pytest.raises(ValueError):
        OmegaSet(shape=(2, 2), rows=np.array([1, 0]), cols=np.array([0, 0]),
                 values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        OmegaSet(shape=(2, 2), rows=np.array([], dtype=int),
                 cols=np.array([], dtype=int), values=np.array([]))


# --- column / row sampling ------------------------------------------------


def test_all_columns_is_permutation():
    M = planted()
    idx, A = sample_columns(M, M.shape[1], RngStream(seed=5))
    assert np.array_equal(idx.indices, np.arange(M.shape[1]))
    assert np.allclose(np.sort(A, axis=1), np.sort(M, axis=1))
    assert np.array_equal(A, M[:, idx.draw_order])


def test_single_column_deterministic():
    M = planted()
    idx1, A1 = sample_columns(M, 1, RngStream(seed=77))
    idx2, A2 = sample_columns(M, 1, RngStream(seed=77))
    assert np.array_equal(idx1.indices, idx2.indices)
    assert np.array_equal(A1, A2)


def test_column_frequencies_uniform():
    # 10,000 single draws from 4 columns: binomial(10^4, 1/4) within 3 sigma
    M = planted(3, 4)
    counts = np.zeros(4)
    base = RngStream(seed=2024)
    for k in range(10_000):
        idx, _ = sample_columns(M, 1, base.derive(k))
        counts[idx.indices[0]] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)


def test_row_sampling_mirrors_columns():
    M = planted(4, 3)
    idx, B = sample_rows(M, 4, RngStream(seed=6))
    assert np.array_equal(idx.indices, np.arange(4))
    assert B.shape == (3, 4)
    assert np.array_equal(B, M[idx.draw_order, :].T)
    idx1, B1 = sample_rows(M, 1, RngStream(seed=8))
    idx2, B2 = sample_rows(M, 1, RngStream(seed=8))
    assert np.array_equal(idx1.indices, idx2.indices) and np.array_equal(B1, B2)


def test_row_frequencies_uniform():
    M = planted(4, 3)
    counts = np.zeros(4)
    base = RngStream(seed=31337)
    for k in range(10_000):
        idx, _ = sample_rows(M, 1, base.derive(k))
        counts[idx.indices[0]] += 1
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)


def test_oversampling_rejected():
    M = planted(3, 4)
    with pytest.raises(ValueError):
        sample_columns(M, 5, RngStream(seed=1))
    with pytest.raises(ValueError):
        sample_rows(M, 4, RngStream(seed=1))
    with pytest.raises(ValueError):
        sample_entries(M, 13, RngStream(seed=1))
    with pytest.raises(ValueError):
        sample_entries(M, 0, RngStream(seed=1))


# --- entry sampling -------------------------------------------------------


def test_full_grid_entries():
    M = planted(3, 4)
    omega = sample_entries(M, 12, RngStream(seed=3))
    assert omega.size == 12
    dense = np.zeros_like(M)
    dense[omega.rows, omega.cols] = omega.values
    assert np.array_equal(dense, M)


def test_entry_inclusion_frequencies_hypergeometric():
    # s = nm/2: each cell observed with probability 1/2 per repetition
    M = planted(2, 4)
    reps = 5_000
    counts = np.zeros((2, 4))
    base = RngStream(seed=99)
    for k in range(reps):
        omega = sample_entries(M, 4, base.derive(k))
        counts[omega.rows, omega.cols] += 1
    sigma = np.sqrt(reps * 0.25)
    assert np.all(np.abs(counts - reps / 2) <= 3 * sigma)


def test_entries_sorted_and_valued():
    M = planted(5, 7)
    omega = sample_entries(M, 11, RngStream(seed=4))
    flat = omega.rows * 7 + omega.cols
    assert np.all(np.diff(flat) > 0)
    assert np.allclose(omega.values, M[omega.rows, omega.cols])


# --- independence of derived streams ---------------------------------------


def test_disjoint_streams_uncorrelated():
    # inclusion indicator of column 0 under two parallel stream families
    M = planted(2, 8)
    x = np.zeros(1000)
    y = np.zeros(1000)
    for t in range(1000):
        s1 = RngStream(seed=555, stream_id=2 * t)
        s2 = RngStream(seed=555, stream_id=2 * t + 1)
        idx1, _ = sample_columns(M, 4, s1)
        idx2, _ = sample_columns(M, 4, s2)
        x[t] = 1.0 if 0 in idx1.indices else 0.0
        y[t] = 1.0 if 0 in idx2.indices else 0.0
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.05


@pytest.mark.parametrize("rows, cols, values, message", [
    ([0, 1], [0], [1.0], "rows, cols, values must have equal length"),
    ([0, 3], [0, 1], [1.0, 2.0], "row index out of bounds"),
    ([0, 1], [0, 2], [1.0, 2.0], "col index out of bounds"),
])
def test_omega_set_refuses_entries_off_its_grid(rows, cols, values, message):
    with pytest.raises(ValueError, match=message):
        OmegaSet(shape=(3, 2), rows=np.array(rows), cols=np.array(cols),
                 values=np.array(values))
