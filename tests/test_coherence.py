import numpy as np
import pytest

from curlow import coherence
from curlow.coherence import (
    basis_incoherence,
    mu_r,
    numerical_rank,
    sin_theta,
)
from curlow.linalg import svd
from curlow.recovery import top_singular_bases
from curlow.sampling import RngStream
from curlow.synth import SynthSpec, generate

EPS = np.finfo(float).eps


def rng(seed=0):
    return np.random.default_rng(seed)


def hadamard_cols(n, r):
    """First r columns of the +-1/sqrt(n) orthogonal matrix built by
    repeated doubling; n must be a power of two."""
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H[:, :r] / np.sqrt(n)


def random_orthonormal(n, r, seed=0):
    Q, _ = np.linalg.qr(rng(seed).standard_normal((n, r)))
    return Q


# --- basis_incoherence ----------------------------------------------------


def test_canonical_basis_is_maximally_coherent():
    N, r = 12, 3
    mu = basis_incoherence(np.eye(N)[:, :r])
    assert abs(mu - N / r) < 1e-12


def test_flat_basis_has_unit_coherence():
    mu = basis_incoherence(hadamard_cols(64, 4))
    assert abs(mu - 1.0) < 1e-12


def test_incoherence_matches_row_scan_oracle():
    Q = random_orthonormal(64, 4, seed=1)
    mu = basis_incoherence(Q)
    lev = (64 / 4) * np.sum(Q**2, axis=1)
    assert abs(mu - lev.max()) < 1e-12


def test_incoherence_rotation_invariant():
    Q = random_orthonormal(40, 3, seed=2)
    R = np.linalg.qr(rng(3).standard_normal((3, 3)))[0]
    assert abs(basis_incoherence(Q) - basis_incoherence(Q @ R)) < 1e-10


def test_incoherence_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        basis_incoherence(np.ones((5, 2)))


def test_mu_range_invariant():
    for seed in range(8):
        Q = random_orthonormal(30, 5, seed=seed)
        mu = basis_incoherence(Q)
        assert 1.0 - 1e-9 <= mu <= (30 / 5) * (1 + 1e-9)


# --- mu_r / mu_hat ----------------------------------------------------------


def flat_low_rank(n, m, r):
    U = hadamard_cols(n, r)
    V = hadamard_cols(m, r)
    sig = np.linspace(3.0, 1.0, r)
    return (U * sig) @ V.T


def test_mu_r_flat_factors():
    M = flat_low_rank(64, 32, 4)
    assert mu_r(*top_singular_bases(M, 4)) <= 1.0 + 1e-8


def test_mu_r_planted_spike():
    n, m, r = 24, 16, 3
    # left factor holds e_1; remaining columns live off row 0
    U = np.zeros((n, r))
    U[0, 0] = 1.0
    U[1:, 1:] = random_orthonormal(n - 1, r - 1, seed=4)
    V = hadamard_cols(m, r)
    M = (U * np.array([3.0, 2.0, 1.0])) @ V.T
    mu = mu_r(*top_singular_bases(M, r))
    assert abs(mu - n / r) < 1e-10


def test_mu_r_matches_factor_scan():
    M = flat_low_rank(32, 32, 2) + 0.0
    f = svd(M)
    U1, V1 = f.U[:, :2], f.V[:, :2]
    expect = max(basis_incoherence(U1), basis_incoherence(V1))
    assert abs(mu_r(*top_singular_bases(M, 2)) - expect) < 1e-12


def test_mu_hat_patterns():
    assert abs(mu_r(np.eye(10)[:, :2], hadamard_cols(16, 2)) - 5.0) < 1e-12
    assert abs(mu_r(hadamard_cols(16, 2), hadamard_cols(16, 2)) - 1.0) < 1e-12
    U = random_orthonormal(20, 3, seed=5)
    V = random_orthonormal(30, 3, seed=6)
    expect = max(basis_incoherence(U), basis_incoherence(V))
    assert abs(mu_r(U, V) - expect) < 1e-12


def test_mu_hat_checks_each_basis_once(monkeypatch):
    names = []

    def counted(Q, name, _fn=coherence._check_orthonormal):
        names.append(name)
        return _fn(Q, name)
    monkeypatch.setattr(coherence, "_check_orthonormal", counted)
    U = random_orthonormal(20, 3, seed=5)
    mu_r(U, random_orthonormal(30, 3, seed=6))
    assert names == ["U", "V"]
    with pytest.raises(ValueError, match="same column count"):
        mu_r(U, random_orthonormal(30, 2, seed=6))


# --- numerical rank ---------------------------------------------------------


def test_numerical_rank_zero_lambda_equals_rank():
    M = flat_low_rank(32, 16, 5)
    rep = numerical_rank(svd(M), 0.0)
    assert abs(rep.value - 5.0) < 1e-10


def test_numerical_rank_flat_spectrum_half():
    # all sigma = 1 and mn*lambda = 1 makes every term 1/2
    m = 8
    M = np.eye(m)
    rep = numerical_rank(svd(M), 1.0 / (m * m))
    assert abs(rep.value - m / 2) < 1e-12


def test_numerical_rank_matches_direct_sum():
    n = m = 16
    sig = 2.0 ** -np.arange(m, dtype=float)
    U = random_orthonormal(n, m, seed=7)
    V = random_orthonormal(m, m, seed=8)
    M = (U * sig) @ V.T
    for lam in (1e-8, 1e-4, 1e-2):
        expect = float(np.sum(sig**2 / (sig**2 + n * m * lam)))
        assert abs(numerical_rank(svd(M), lam).value - expect) < 1e-12


def test_numerical_rank_decreasing_in_lambda():
    M = rng(9).standard_normal((12, 10))
    lams = [0.0, 1e-6, 1e-4, 1e-2, 1.0]
    vals = [numerical_rank(svd(M), lam).value for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_numerical_rank_rejects_negative_lambda():
    with pytest.raises(ValueError):
        numerical_rank(svd(np.eye(3)), -1e-3)


# --- mu_lambda --------------------------------------------------------------


def test_mu_lambda_zero_matches_mu_r():
    f = svd(flat_low_rank(32, 16, 4))
    assert abs(numerical_rank(f, 0.0).mu_lambda
               - mu_r(f.U[:, :4], f.V[:, :4])) < 1e-10
    M2 = (random_orthonormal(20, 3, seed=10) * np.array([5.0, 2.0, 1.0])) \
        @ random_orthonormal(15, 3, seed=11).T
    f2 = svd(M2)
    assert abs(numerical_rank(f2, 0.0).mu_lambda
               - mu_r(f2.U[:, :3], f2.V[:, :3])) < 1e-10


def test_mu_lambda_flat_equal_spectrum_is_one():
    # square flat orthogonal matrix: all sigma equal, all leverages equal
    n = 16
    M = hadamard_cols(n, n) * np.sqrt(n) * 2.0
    assert abs(numerical_rank(svd(M), 0.37).mu_lambda - 1.0) < 1e-8


def test_mu_lambda_matches_direct_formula():
    n, m = 14, 11
    M = rng(12).standard_normal((n, m))
    f = svd(M)
    r = 4
    lam = float(f.sigma[r - 1]) ** 2 / (n * m)
    w = f.sigma / np.sqrt(f.sigma**2 + n * m * lam)
    rank_value = float(np.sum(f.sigma**2 / (f.sigma**2 + n * m * lam)))
    lev_u = np.sum((f.U * w) ** 2, axis=1).max() * n / rank_value
    lev_v = np.sum((f.V * w) ** 2, axis=1).max() * m / rank_value
    assert abs(numerical_rank(f, lam).mu_lambda - max(lev_u, lev_v)) < 1e-10


def test_mu_lambda_at_least_one():
    for seed in range(6):
        M = rng(20 + seed).standard_normal((10, 8))
        rep = numerical_rank(svd(M), 10.0 ** -(seed + 2))
        assert rep.mu_lambda >= 1.0 - 1e-9


# --- sin_theta ---------------------------------------------------------------


def test_sin_theta_same_subspace():
    Q = random_orthonormal(10, 3, seed=13)
    assert sin_theta(Q, Q) <= 4 * EPS


def test_sin_theta_reads_angles_below_sqrt_eps():
    # every principal angle of the 20 x 3 pair is theta; sqrt(1 - c^2)
    # from the smallest cosine read about 2e-8 at each of these
    Q = random_orthonormal(20, 6, seed=17)
    for theta in (1e-12, 1e-10, 1e-8):
        Q2 = Q[:, :3] * np.cos(theta) + Q[:, 3:] * np.sin(theta)
        assert abs(sin_theta(Q[:, :3], Q2) - np.sin(theta)) <= 4 * EPS


def test_sin_theta_orthogonal_subspaces():
    E = np.eye(6)
    assert abs(sin_theta(E[:, :2], E[:, 2:4]) - 1.0) < 1e-12


def test_sin_theta_planted_rotation():
    theta = 0.3
    Q1 = np.eye(5)[:, :2]
    R = np.eye(5)
    # rotate the (e2, e3) plane: second basis vector leaves the span by theta
    R[1, 1] = R[2, 2] = np.cos(theta)
    R[2, 1], R[1, 2] = np.sin(theta), -np.sin(theta)
    Q2 = R @ Q1
    assert abs(sin_theta(Q1, Q2) - np.sin(theta)) < 1e-10


def test_sin_theta_symmetric_and_rotation_invariant():
    Q1 = random_orthonormal(20, 4, seed=14)
    Q2 = random_orthonormal(20, 4, seed=15)
    assert abs(sin_theta(Q1, Q2) - sin_theta(Q2, Q1)) < 1e-10
    R = np.linalg.qr(rng(16).standard_normal((4, 4)))[0]
    assert abs(sin_theta(Q1, Q2) - sin_theta(Q1 @ R, Q2)) < 1e-10


def test_sin_theta_shape_mismatch():
    with pytest.raises(ValueError):
        sin_theta(np.eye(4)[:, :2], np.eye(5)[:, :2])


# --- weighted-vs-plain coherence inequality ---------------------------------


def test_mu_r_bounded_by_weighted_coherence():
    # with lam = sigma_r^2/mn and a sqrt(2) spectral gap:
    # mu(r) <= 2 (r(M,lam)/r) mu(lam)
    hits = 0
    for seed in range(20):
        spec = SynthSpec(n=48, m=40, kind="geometric-spectrum", r=4,
                         stream=RngStream(seed=400 + seed), decay=0.5)
        M, f = generate(spec)
        r = 4
        assert f.sigma[r - 1] >= np.sqrt(2.0) * f.sigma[r]
        lam = float(f.sigma[r - 1]) ** 2 / (48 * 40)
        rep = numerical_rank(svd(M), lam)
        lhs = mu_r(*top_singular_bases(M, r))
        rhs = 2.0 * rep.value / r * rep.mu_lambda
        assert lhs <= rhs + 1e-9 * rhs
        hits += 1
    assert hits == 20


@pytest.mark.parametrize("Q, message", [
    (np.ones(3), "Q must be 2-d with at least one column"),
    (np.eye(3)[:2], r"Q has more columns than rows: \(2, 3\)"),
])
def test_basis_incoherence_refuses_a_malformed_basis(Q, message):
    with pytest.raises(ValueError, match=message):
        basis_incoherence(Q)
