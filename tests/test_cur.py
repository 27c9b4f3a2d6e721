import numpy as np
import pytest

from curlow.cur import cur_decompose, cur_error_ratio
from curlow.linalg import frobenius_norm, svd
from curlow.sampling import RngStream


def low_rank(n, m, r, seed=0):
    g = np.random.default_rng(seed)
    U, _ = np.linalg.qr(g.standard_normal((n, r)))
    V, _ = np.linalg.qr(g.standard_normal((m, r)))
    return (U * np.linspace(4.0, 1.0, r)) @ V.T


def test_identity_full_selection():
    M = np.eye(4)
    factors = cur_decompose(M, c=4, r_rows=4, stream=RngStream(seed=1))
    assert np.allclose(factors.reconstruct(), M, atol=1e-12)


def test_full_selection_reproduces_any_matrix():
    g = np.random.default_rng(2)
    M = g.standard_normal((8, 6))
    factors = cur_decompose(M, c=6, r_rows=8, stream=RngStream(seed=3))
    assert frobenius_norm(M - factors.reconstruct()) <= 1e-10 * frobenius_norm(M)


def test_rank_span_exactness():
    # once the selected columns and rows both span the rank-3 factors,
    # the skeleton reproduces M exactly
    M = low_rank(50, 40, 3, seed=4)
    factors = cur_decompose(M, c=12, r_rows=12, stream=RngStream(seed=5))
    assert np.linalg.matrix_rank(factors.C, tol=1e-10) == 3
    assert np.linalg.matrix_rank(factors.R, tol=1e-10) == 3
    assert frobenius_norm(M - factors.reconstruct()) <= 1e-8 * frobenius_norm(M)


def test_shapes_and_index_provenance():
    M = low_rank(20, 15, 2, seed=6)
    factors = cur_decompose(M, c=5, r_rows=7, stream=RngStream(seed=7))
    assert factors.C.shape == (20, 5)
    assert factors.R.shape == (7, 15)
    assert factors.U_core.shape == (5, 7)
    assert np.allclose(factors.C, M[:, factors.col_idx.draw_order])
    assert np.allclose(factors.R, M[factors.row_idx.draw_order, :])


def test_determinism():
    M = low_rank(30, 30, 4, seed=8)
    f1 = cur_decompose(M, c=10, r_rows=10, stream=RngStream(seed=9))
    f2 = cur_decompose(M, c=10, r_rows=10, stream=RngStream(seed=9))
    assert np.array_equal(f1.C, f2.C)
    assert np.array_equal(f1.U_core, f2.U_core)
    assert np.array_equal(f1.R, f2.R)


def test_error_ratio_at_least_one_minus_eps():
    g = np.random.default_rng(10)
    # noisy low rank: truncated SVD is optimal, the skeleton can only match it
    M = low_rank(40, 32, 3, seed=11) + 0.01 * g.standard_normal((40, 32))
    for seed in range(10):
        factors = cur_decompose(M, c=10, r_rows=10, stream=RngStream(seed=100 + seed))
        report = cur_error_ratio(M, factors, k=3)
        assert not report.exact
        assert report.ratio >= 1.0 - 1e-10


def test_error_ratio_exact_flag():
    M = low_rank(25, 20, 2, seed=12)
    factors = cur_decompose(M, c=20, r_rows=25, stream=RngStream(seed=13))
    report = cur_error_ratio(M, factors, k=2)
    assert report.exact
    assert report.ratio == 0.0
    assert report.cur_error <= 1e-10 * frobenius_norm(M)
    assert report.to_dict()["exact"] is True
    assert "error_ratio" not in report.to_dict()


def test_exact_rank_k_missed_by_skeleton_gives_infinite_ratio():
    M = low_rank(12, 12, 3, seed=30)
    factors = cur_decompose(M, c=2, r_rows=2, stream=RngStream(seed=31))
    report = cur_error_ratio(M, factors, k=3)
    assert not report.exact
    assert report.ratio == float("inf")


def test_error_ratio_against_direct_computation():
    g = np.random.default_rng(14)
    M = low_rank(30, 24, 4, seed=15) + 0.05 * g.standard_normal((30, 24))
    factors = cur_decompose(M, c=12, r_rows=12, stream=RngStream(seed=16))
    report = cur_error_ratio(M, factors, k=4)
    f = svd(M)
    M_k = (f.U[:, :4] * f.sigma[:4]) @ f.V[:, :4].T
    best = frobenius_norm(M - M_k)
    cur_err = frobenius_norm(M - factors.reconstruct())
    assert abs(report.best_error - best) < 1e-12
    assert abs(report.cur_error - cur_err) < 1e-12
    assert abs(report.ratio - cur_err / best) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_best_error_is_the_spectral_tail(k):
    # k = 3 cuts a 6 x 3 matrix at full rank, where the tail is empty
    M = np.random.default_rng(5).standard_normal((6, 3))
    factors = cur_decompose(M, c=2, r_rows=2, stream=RngStream(seed=19))
    report = cur_error_ratio(M, factors, k=k)
    f = svd(M)
    M_k = (f.U[:, :k] * f.sigma[:k]) @ f.V[:, :k].T
    assert abs(report.best_error - frobenius_norm(M - M_k)) < 1e-12
    assert (report.best_error == 0.0) == (k == 3)


def test_argument_validation():
    M = low_rank(10, 8, 2, seed=17)
    with pytest.raises(ValueError):
        cur_decompose(M, c=0, r_rows=4, stream=RngStream(seed=18))
    with pytest.raises(ValueError):
        cur_decompose(M, c=9, r_rows=4, stream=RngStream(seed=18))
    with pytest.raises(ValueError):
        cur_decompose(M, c=4, r_rows=11, stream=RngStream(seed=18))
    factors = cur_decompose(M, c=4, r_rows=4, stream=RngStream(seed=18))
    with pytest.raises(ValueError):
        cur_error_ratio(M, factors, k=0)
    with pytest.raises(ValueError):
        cur_error_ratio(M, factors, k=9)
