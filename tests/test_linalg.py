import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlow.config import ExperimentConfig
from curlow.lab import Draw, load_instance
from curlow.linalg import (
    SANDWICH_ULPS,
    _apply_sign_convention,
    as_matrix,
    frobenius_norm,
    pseudo_inverse,
    settle_by_frobenius,
    singular_values,
    spectral_norm,
    svd,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_orthonormal(n, r, seed=0):
    Q, _ = np.linalg.qr(rng(seed).standard_normal((n, r)))
    return Q


# --- svd ---------------------------------------------------------------


def test_svd_identity():
    f = svd(np.eye(3))
    assert np.allclose(f.sigma, [1.0, 1.0, 1.0])


def test_svd_rank_one_outer_product():
    a = np.array([3.0, 0.0, 4.0])
    b = np.array([1.0, 2.0])
    f = svd(np.outer(a, b))
    assert abs(f.sigma[0] - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12
    assert np.all(f.sigma[1:] < 1e-12)


def test_svd_sigma_matches_gram_eigenvalues():
    # independent oracle: singular values are sqrt eigenvalues of M^T M
    M = rng(1).standard_normal((4, 3))
    f = svd(M)
    gram_eigs = np.sort(np.linalg.eigvalsh(M.T @ M))[::-1]
    assert np.allclose(f.sigma, np.sqrt(np.clip(gram_eigs, 0, None)), atol=1e-10)


@pytest.mark.parametrize("shape", [(5, 4), (4, 5), (7, 7), (300, 300)])
def test_svd_invariants(shape):
    M = rng(shape[0] * 1000 + shape[1]).standard_normal(shape)
    f = svd(M)
    k = f.sigma.size
    assert np.all(np.diff(f.sigma) <= 1e-15)
    assert np.all(f.sigma >= 0)
    assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) < 1e-10
    assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) < 1e-10
    err = frobenius_norm(f.reconstruct() - M)
    assert err <= 1e-8 * frobenius_norm(M)


def test_svd_sign_convention_and_determinism():
    # signs keyed on U; V co-flips so U.sigma.V^T still reconstructs M
    M = rng(2).standard_normal((6, 4))
    f1, f2 = svd(M), svd(M.copy())
    for j in range(f1.U.shape[1]):
        col = f1.U[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    assert np.allclose(f1.reconstruct(), M, atol=1e-12)
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.sigma, f2.sigma)
    assert np.array_equal(f1.V, f2.V)


def test_eigvec_sign_convention():
    # the left singular vectors of a symmetric positive definite G are its
    # eigenvectors, under svd's sign convention
    G0 = rng(21).standard_normal((5, 5))
    Q = svd(G0 @ G0.T).U
    for j in range(Q.shape[1]):
        col = Q[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_sign_convention_matches_the_column_loop():
    def reference(U, V):
        for j in range(U.shape[1]):
            i = int(np.argmax(np.abs(U[:, j])))
            if U[i, j] < 0:
                U[:, j] = -U[:, j]
                V[:, j] = -V[:, j]

    U = rng(22).standard_normal((7, 6))
    U[:, 1] = [0.5, -0.5, 0.1, 0.0, 0.0, 0.0, 0.0]  # tie, lowest index wins
    U[:, 2] = [-0.5, 0.5, 0.1, 0.0, 0.0, 0.0, 0.0]
    U[:, 3] = 0.0
    U[:, 4] = -0.0
    V = rng(23).standard_normal((5, 6))
    expect_U, expect_V = U.copy(), V.copy()
    reference(expect_U, expect_V)
    _apply_sign_convention(U, V)
    assert U.tobytes() == expect_U.tobytes()
    assert V.tobytes() == expect_V.tobytes()


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


# --- top eigenvectors, from the SVD of a positive semidefinite matrix ------


def test_top_eigvecs_diagonal():
    Q = svd(np.diag([3.0, 2.0, 1.0])).U[:, :2]
    assert np.allclose(np.abs(Q), np.eye(3)[:, :2], atol=1e-12)


def test_top_eigvecs_recovers_planted_subspace():
    n, r = 12, 3
    Q0 = random_orthonormal(n, n, seed=7)
    lam = np.concatenate([[9.0, 8.0, 7.0], np.linspace(1.0, 0.1, n - r)])
    G = (Q0 * lam) @ Q0.T
    Q = svd(G).U[:, :r]
    # sin-theta distance via projector difference
    gap = np.linalg.norm(Q0[:, :r] @ Q0[:, :r].T - Q @ Q.T, 2)
    assert gap < 1e-10


def test_top_eigvecs_full_rank_reconstructs():
    # sigma holds G's eigenvalues, nonincreasing, and U its eigenvectors
    G0 = rng(8).standard_normal((5, 5))
    G = G0 @ G0.T
    f = svd(G)
    assert np.all(np.diff(f.sigma) <= 0)
    assert np.allclose((f.U * f.sigma) @ f.U.T, G, atol=1e-10)
    assert np.allclose(f.sigma, np.linalg.eigvalsh(G)[::-1], rtol=1e-12)


# --- pseudo_inverse -----------------------------------------------------


def test_pinv_matches_inverse():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(pseudo_inverse(M), np.linalg.inv(M), atol=1e-12)


def test_pinv_zero_matrix():
    assert np.array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))


def test_pinv_left_inverse_via_normal_equations():
    M = rng(10).standard_normal((4, 2))
    P = pseudo_inverse(M)
    assert np.allclose(P @ M, np.eye(2), atol=1e-10)
    oracle = np.linalg.solve(M.T @ M, M.T)
    assert np.allclose(P, oracle, atol=1e-10)


def test_pinv_moore_penrose_identities():
    M = rng(11).standard_normal((6, 4))
    P = pseudo_inverse(M)
    assert np.allclose(M @ P @ M, M, atol=1e-8)
    assert np.allclose(P @ M @ P, P, atol=1e-8)
    assert np.allclose((M @ P).T, M @ P, atol=1e-8)
    assert np.allclose((P @ M).T, P @ M, atol=1e-8)


def test_pinv_drops_tiny_singular_values():
    M = np.diag([1.0, 1e-14])
    P = pseudo_inverse(M)
    assert P[1, 1] == 0.0


# --- norms --------------------------------------------------------------


def test_norms_diag():
    M = np.diag([3.0, 1.0])
    assert abs(spectral_norm(M) - 3.0) < 1e-15
    assert abs(frobenius_norm(M) - np.sqrt(10.0)) < 1e-15


def test_norms_zero():
    Z = np.zeros((4, 2))
    assert spectral_norm(Z) == 0.0
    assert frobenius_norm(Z) == 0.0


def test_spectral_equals_top_singular_value():
    M = rng(14).standard_normal((5, 4))
    assert abs(spectral_norm(M) - svd(M).sigma[0]) < 1e-10


@pytest.mark.parametrize("shape", [(5, 4), (4, 7), (6, 6)])
def test_singular_values_match_the_svd(shape):
    M = rng(15).standard_normal(shape)
    assert np.allclose(singular_values(M), svd(M).sigma, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        singular_values(np.full(shape, np.nan))


@pytest.mark.parametrize("seed", range(5))
def test_norm_sandwich(seed):
    M = rng(100 + seed).standard_normal((7, 5))
    s, f = spectral_norm(M), frobenius_norm(M)
    assert f >= s - 1e-12
    assert s >= f / np.sqrt(5) - 1e-12


# --- the spectral norm's Gram kernel -------------------------------------

PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=300)
# worst |spectral_norm(D) - singular_values(D)[0]| / (k eps sigma_1), 1.74
# on 40,000 draws like `scattered`'s, rounded up to a power of two
GRAM_AGREEMENT = 2.0


@st.composite
def scattered(draw):
    """An n x m D, 1 <= n, m <= 24, with each entry 0 or of magnitude in
    [2^-20, 2^20] and random sign; the share of zeros and the binades the
    magnitudes span are drawn too, so some D are nearly diagonal and some
    of one scale. Half the draws are instead the rank-1 outer product of
    such a D's first column and first row."""
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    span = draw(st.integers(0, 20))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    mag = np.exp2(g.uniform(-span, span, (n, m)))
    D = np.where(g.random((n, m)) < zeros, 0.0,
                 mag * g.choice([-1.0, 1.0], (n, m)))
    if draw(st.booleans()):
        D = np.outer(D[:, 0], D[0, :])
    return D


@PROPERTY
@given(scattered(), st.integers(-900, 900))
def test_spectral_norm_scales_exactly_by_powers_of_two(D, k):
    assert spectral_norm(np.ldexp(D, k)) == math.ldexp(spectral_norm(D), k)


@PROPERTY
@given(scattered())
def test_spectral_norm_agrees_with_the_singular_values(D):
    k = min(D.shape)
    s, ref = spectral_norm(D), float(singular_values(D)[0])
    assert abs(s - ref) <= GRAM_AGREEMENT * k * np.finfo(float).eps * ref
    assert GRAM_AGREEMENT <= SANDWICH_ULPS


def test_spectral_norm_prescales_a_gram_that_would_overflow():
    D = rng(16).uniform(0.5, 1.0, (30, 30)) * 2.0**1000
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(D.T @ D))
    s = spectral_norm(D)
    assert math.isfinite(s)
    assert s == pytest.approx(float(singular_values(D)[0]), rel=1e-14)


def test_spectral_norm_of_zero_and_of_one_entry():
    assert spectral_norm(np.zeros((3, 5))) == 0.0
    for x in (-3.5, 0.1, 2.0**-1000, -(2.0**1000), 5e-324):
        assert spectral_norm([[x]]) == abs(x)


# --- accuracy against a 30-digit reference -------------------------------

# ulps of sigma_1 by which each kernel missed mpmath's 30-digit value on
# the three D of `_witness_matrices` when this test was written, rounded
# up: 2.31, 0.86 and 2.86 for spectral_norm, 4.31, 0.86 and 0.14 for
# singular_values. A later kernel may not miss by more.
GRAM_ULPS = {"rank-1": 3, "geometric": 1, "round-off": 3}
SVD_ULPS = {"rank-1": 5, "geometric": 1, "round-off": 1}


def _witness_matrices():
    """A rank-1 outer product of exact products, and the M - M_hat of a
    geometric-0.5 draw and of an exact-low-rank draw, whose residual is
    round-off, each at most 24 x 24."""
    g = rng(17)
    a = g.integers(-2**20, 2**20, 24) * 2.0**-10
    b = g.integers(-2**20, 2**20, 20) * 2.0**-12
    out = {"rank-1": np.outer(a, b)}
    for name, kind in (("geometric", "geometric-spectrum"),
                       ("round-off", "exact-low-rank")):
        cfg = ExperimentConfig(n=24, m=20, kind=kind, synth_r=3, r=3, d=8,
                               omega_count=120, seed=18)
        inst = load_instance(cfg, cfg.base_stream())
        out[name] = Draw(inst, inst.budget()["d"], cfg.base_stream()).residual()
    return out


def test_top_singular_value_is_within_its_measured_ulps_of_the_truth():
    mpmath = pytest.importorskip("mpmath")
    for name, D in _witness_matrices().items():
        with mpmath.workdps(30):
            truth = max(mpmath.svd_r(mpmath.matrix(D.tolist()),
                                     compute_uv=False))
            ulp = mpmath.mpf(float(np.spacing(float(truth))))
            gram = abs(mpmath.mpf(spectral_norm(D)) - truth) / ulp
            full = abs(mpmath.mpf(float(singular_values(D)[0])) - truth) / ulp
        assert gram <= GRAM_ULPS[name], name
        assert full <= SVD_ULPS[name], name


def test_settle_by_frobenius_leaves_an_overflowing_square_to_the_spectral_norm():
    # ||D||_F^2 overflows, so neither end of the sandwich is a number
    assert settle_by_frobenius(1e155, 3, lambda sq: True) is None
