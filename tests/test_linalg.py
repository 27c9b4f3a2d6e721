import numpy as np
import pytest

from curlow.linalg import (
    _apply_sign_convention,
    as_matrix,
    eigh_descending,
    frobenius_norm,
    pseudo_inverse,
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
    G0 = rng(21).standard_normal((5, 5))
    _, Q = eigh_descending(G0 @ G0.T)
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


# --- top eigenvectors ----------------------------------------------------


def test_top_eigvecs_diagonal():
    _, Q = eigh_descending(np.diag([3.0, 2.0, 1.0]))
    Q = Q[:, :2]
    assert np.allclose(np.abs(Q), np.eye(3)[:, :2], atol=1e-12)


def test_top_eigvecs_recovers_planted_subspace():
    n, r = 12, 3
    Q0 = random_orthonormal(n, n, seed=7)
    lam = np.concatenate([[9.0, 8.0, 7.0], np.linspace(1.0, 0.1, n - r)])
    G = (Q0 * lam) @ Q0.T
    Q = eigh_descending(G)[1][:, :r]
    # sin-theta distance via projector difference
    gap = np.linalg.norm(Q0[:, :r] @ Q0[:, :r].T - Q @ Q.T, 2)
    assert gap < 1e-10


def test_top_eigvecs_full_rank_reconstructs():
    G0 = rng(8).standard_normal((5, 5))
    G = G0 @ G0.T
    w, Q = eigh_descending(G)
    assert np.allclose((Q * w) @ Q.T, G, atol=1e-10)


def test_top_eigvecs_rejects_asymmetric():
    G = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        eigh_descending(G)


def test_eigh_descending_order():
    G0 = rng(9).standard_normal((6, 6))
    w, Q = eigh_descending(G0 @ G0.T)
    assert np.all(np.diff(w) <= 1e-15)
    assert np.linalg.norm(Q.T @ Q - np.eye(6)) < 1e-10


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
