import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curlow import recovery
from curlow.coherence import sin_theta
from curlow.linalg import (
    blas_threads,
    eigh_descending,
    frobenius_norm,
    pseudo_inverse,
    spectral_norm,
    svd,
)
from curlow.recovery import (
    Bases,
    IllPosedError,
    RecoveryInputs,
    assemble_design,
    build_bases,
    recover,
    solve_core,
    strong_convexity_gamma,
)
from curlow.sampling import (
    OmegaSet,
    RngStream,
    sample_columns,
    sample_entries,
    sample_rows,
)
from curlow.synth import SynthSpec, generate


def rng(seed=0):
    return np.random.default_rng(seed)


def random_orthonormal(n, r, seed=0):
    Q, _ = np.linalg.qr(rng(seed).standard_normal((n, r)))
    return Q


def low_rank(n, m, r, seed=0, scale=None):
    U = random_orthonormal(n, r, seed=seed)
    V = random_orthonormal(m, r, seed=seed + 1)
    sig = np.linspace(5.0, 1.0, r) if scale is None else scale
    return (U * sig) @ V.T


def full_grid(M):
    n, m = M.shape
    return sample_entries(M, n * m, RngStream(seed=1))


def sample_run(M, d, s, r, seed=0):
    base = RngStream(seed=seed)
    _, A = sample_columns(M, d, base.derive(1))
    _, B = sample_rows(M, d, base.derive(2))
    omega = sample_entries(M, s, base.derive(3))
    return RecoveryInputs(A=A, B=B, omega=omega, r=r)


# --- build_bases -------------------------------------------------------------


def test_bases_from_canonical_columns():
    n, r = 6, 2
    A = np.zeros((n, 4))
    A[0, 0] = 3.0
    A[1, 1] = 2.0
    A[0, 2] = 1.5
    A[1, 3] = 0.5
    B = np.eye(4)
    bases = build_bases(A, B, r)
    span = np.abs(bases.U_hat)
    assert np.allclose(span[2:, :], 0.0, atol=1e-12)
    assert np.allclose(bases.U_hat.T @ bases.U_hat, np.eye(r), atol=1e-10)


def test_bases_full_sampling_recovers_factor_span():
    # angle formula has a ~3e-8 floating-point floor near zero angle
    M = low_rank(20, 15, 3, seed=2)
    U1 = svd(M).U[:, :3]
    bases = build_bases(M.copy(), M.T.copy(), 3)
    assert sin_theta(U1, bases.U_hat) <= 1e-7


def test_bases_from_4r_columns():
    M = low_rank(40, 30, 3, seed=3)
    _, A = sample_columns(M, 12, RngStream(seed=4))
    _, B = sample_rows(M, 12, RngStream(seed=5))
    bases = build_bases(A, B, 3)
    f = svd(M)
    assert sin_theta(f.U[:, :3], bases.U_hat) <= 1e-7
    assert sin_theta(f.V[:, :3], bases.V_hat) <= 1e-7


def test_bases_degenerate_gap_flagged():
    A = np.eye(4)  # AA^T = I: no gap anywhere
    bases = build_bases(A, np.eye(4), 2)
    assert bases.degenerate_gap


def test_rank_deficient_samples_flagged():
    # d = r = 2 parallel columns: rank 1, the second direction is arbitrary
    A = np.outer(random_orthonormal(50, 1, seed=50)[:, 0], [1.0, -2.0])
    B = random_orthonormal(40, 2, seed=51) * [3.0, 1.0]
    bases = build_bases(A, B, 2)
    assert bases.degenerate_gap
    assert bases.left_sigma.shape == (3,) and bases.left_sigma[2] == 0.0
    assert bases.left_sigma[1] <= 1e-12 * bases.left_sigma[0]


@pytest.mark.parametrize("r", [24, 28])
def test_bases_resolve_geometric_decay_beyond_the_gram_precision(r):
    # sigma_r = 0.5^(r-1) is below sqrt(eps) sigma_1: a basis from the Gram
    # A A^T loses these directions (sin theta ~ 1 at r = 28) and flags the
    # split, while the thin SVD of A keeps both
    M, f = generate(SynthSpec(n=200, m=200, kind="geometric-spectrum", r=r,
                              stream=RngStream(seed=0), decay=0.5))
    _, A = sample_columns(M, 120, RngStream(seed=100))
    _, B = sample_rows(M, 120, RngStream(seed=200))
    bases = build_bases(A, B, r)
    assert sin_theta(f.U[:, :r], bases.U_hat) <= 0.2
    assert sin_theta(f.V[:, :r], bases.V_hat) <= 0.2
    assert not bases.degenerate_gap


@pytest.mark.parametrize("seed", range(8))
def test_bases_match_the_gram_eigenbases_on_well_conditioned_samples(seed):
    g = rng(800 + seed)
    n, r = int(g.integers(5, 30)), int(g.integers(1, 5))
    d = [int(g.integers(r, n)), n, r][seed % 3]  # d < n, d = n, d = r
    k = min(n, d)
    sigma = np.linspace(4.0, 1.0, k)  # gaps of at least 3/(k-1) at every r
    A = (random_orthonormal(n, k, seed=900 + seed) * sigma) \
        @ random_orthonormal(d, k, seed=950 + seed).T
    bases = build_bases(A, A.copy(), r)
    gram_basis = eigh_descending(A @ A.T)[1][:, :r]
    # sin theta as ||(I - Q Q^T) U_hat||: `sin_theta` bottoms out near 1e-8
    residual = bases.U_hat - gram_basis @ (gram_basis.T @ bases.U_hat)
    assert spectral_norm(residual) <= 1e-8
    # same sign convention: the columns agree entry by entry, not just up to sign
    assert np.allclose(bases.U_hat, gram_basis, atol=1e-8)
    assert np.allclose(bases.left_sigma[:r], sigma[:r], rtol=1e-12)
    assert not bases.degenerate_gap


def record_factorizations(monkeypatch) -> list:
    """(name, input shape) of every numpy.linalg factorization or solve
    called after this point."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "qr", "solve"):
        def record(a, *args, _fn=getattr(np.linalg, name), _name=name, **kw):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, record)
    return calls


def test_build_bases_factors_only_the_thin_samples(monkeypatch):
    M = low_rank(120, 100, 3, seed=52)
    _, A = sample_columns(M, 9, RngStream(seed=53))
    _, B = sample_rows(M, 9, RngStream(seed=54))
    calls = record_factorizations(monkeypatch)
    build_bases(A, B, 3)
    assert sorted(calls) == [("svd", (100, 9)), ("svd", (120, 9))]


# --- assemble_design ----------------------------------------------------------


def test_full_grid_design_gram_is_identity():
    M = low_rank(8, 6, 2, seed=6)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    system = assemble_design(bases, full_grid(M))
    G = system.K.T @ system.K
    assert np.allclose(G, np.eye(4), atol=1e-10)


def test_single_observation_row():
    U = random_orthonormal(5, 2, seed=7)
    V = random_orthonormal(4, 2, seed=8)
    bases = Bases(U_hat=U, V_hat=V, left_sigma=np.ones(2),
                  right_sigma=np.ones(2), degenerate_gap=False)
    omega = OmegaSet(shape=(5, 4), rows=np.array([2]), cols=np.array([1]),
                     values=np.array([0.7]))
    system = assemble_design(bases, omega)
    assert system.K.shape == (1, 4)
    for i in range(2):
        for j in range(2):
            assert abs(system.K[0, i * 2 + j]
                       - U[2, i] * V[1, j]) < 1e-15


def test_design_matches_dense_restriction_path():
    M = low_rank(10, 9, 3, seed=9)
    bases = build_bases(M.copy(), M.T.copy(), 3)
    omega = sample_entries(M, 40, RngStream(seed=10))
    system = assemble_design(bases, omega)
    for k in range(20):
        Z = rng(100 + k).standard_normal((3, 3))
        expect = (bases.U_hat @ Z @ bases.V_hat.T)[omega.rows, omega.cols]
        assert np.allclose(system.K @ Z.reshape(-1), expect, atol=1e-12)


# --- solve_core ----------------------------------------------------------------


def test_full_grid_solution_is_projection():
    M = low_rank(9, 7, 2, seed=11)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    system = assemble_design(bases, full_grid(M))
    Z, lam_min, residual = solve_core(system)
    assert np.allclose(Z, bases.U_hat.T @ M @ bases.V_hat, atol=1e-10)
    assert abs(lam_min - 1.0) < 1e-10


def test_planted_core_interpolates():
    U = random_orthonormal(12, 2, seed=12)
    V = random_orthonormal(10, 2, seed=13)
    Z0 = rng(14).standard_normal((2, 2))
    M = U @ Z0 @ V.T
    bases = Bases(U_hat=U, V_hat=V, left_sigma=np.ones(2),
                  right_sigma=np.ones(2), degenerate_gap=False)
    omega = sample_entries(M, 60, RngStream(seed=15))
    system = assemble_design(bases, omega)
    Z, lam_min, residual = solve_core(system)
    assert lam_min > 0
    assert np.allclose(Z, Z0, atol=1e-8)
    assert residual <= 1e-16 * float(np.sum(system.y**2)) + 1e-20


def test_scalar_core_closed_form():
    M = low_rank(3, 3, 1, seed=16)
    bases = build_bases(M.copy(), M.T.copy(), 1)
    omega = sample_entries(M, 5, RngStream(seed=17))
    system = assemble_design(bases, omega)
    Z, _, _ = solve_core(system)
    k = system.K[:, 0]
    closed = float(k @ system.y / (k @ k))
    assert abs(Z[0, 0] - closed) < 1e-12
    # 1-d grid oracle around the closed form
    grid = np.linspace(closed - 1.0, closed + 1.0, 20001)
    vals = ((k[:, None] * grid - system.y[:, None]) ** 2).sum(axis=0)
    assert abs(grid[np.argmin(vals)] - Z[0, 0]) < 1e-3


def test_solve_core_factors_the_normal_matrix_once(monkeypatch):
    M = low_rank(15, 12, 3, seed=45)
    system = assemble_design(build_bases(M.copy(), M.T.copy(), 3),
                             sample_entries(M, 80, RngStream(seed=46)))
    calls = record_factorizations(monkeypatch)
    fits = {ridge: solve_core(system, ridge) for ridge in (0.0, 1e-3)}
    gamma = strong_convexity_gamma(system)
    # one eigh of the system serves both ridges and the strong convexity
    assert calls == [("eigh", (9, 9))]
    gram = system.K.T @ system.K
    for ridge, (Z, lam_min, _) in fits.items():
        expect = np.linalg.inv(gram + ridge * np.eye(9)) @ system.K.T @ system.y
        assert np.allclose(Z.reshape(-1), expect, atol=1e-10)
        assert lam_min == gamma


def test_ill_posed_raises_with_remedy():
    U = random_orthonormal(6, 2, seed=18)
    V = random_orthonormal(6, 2, seed=19)
    bases = Bases(U_hat=U, V_hat=V, left_sigma=np.ones(2),
                  right_sigma=np.ones(2), degenerate_gap=False)
    omega = OmegaSet(shape=(6, 6), rows=np.array([0]), cols=np.array([0]),
                     values=np.array([1.0]))
    system = assemble_design(bases, omega)
    with pytest.raises(IllPosedError) as err:
        solve_core(system)
    assert err.value.lambda_min < err.value.threshold
    assert "ridge" in str(err.value)


def test_ridge_resolves_degeneracy():
    U = random_orthonormal(6, 2, seed=20)
    V = random_orthonormal(6, 2, seed=21)
    bases = Bases(U_hat=U, V_hat=V, left_sigma=np.ones(2),
                  right_sigma=np.ones(2), degenerate_gap=False)
    omega = OmegaSet(shape=(6, 6), rows=np.array([0]), cols=np.array([0]),
                     values=np.array([1.0]))
    system = assemble_design(bases, omega)
    Z, _, _ = solve_core(system, ridge=1e-3)
    assert np.all(np.isfinite(Z))
    with pytest.raises(ValueError):
        solve_core(system, ridge=-1.0)


# --- streamed design -------------------------------------------------------------


def orthonormal_bases(n, m, r, seed):
    return Bases(U_hat=random_orthonormal(n, r, seed=seed),
                 V_hat=random_orthonormal(m, r, seed=seed + 1),
                 left_sigma=np.ones(r + 1), right_sigma=np.ones(r + 1),
                 degenerate_gap=False)


def test_multi_chunk_design_matches_the_full_matrix(monkeypatch):
    M = low_rank(30, 30, 3, seed=60) + 1e-3 * rng(61).standard_normal((30, 30))
    inputs = sample_run(M, d=10, s=600, r=3, seed=62)
    bases = build_bases(inputs.A, inputs.B, 3)
    # chunks of 50 entries for K^T K (96 bytes an entry at r = 3) and of 100
    # for the residual (48); with about 20 entries a row, chunk boundaries
    # split rows of Omega
    monkeypatch.setattr(recovery, "CHUNK_BYTES", 50 * 96)
    rows = inputs.omega.rows
    for step in (50, 100):
        cuts = np.arange(step, rows.size, step)
        assert np.any(rows[cuts - 1] == rows[cuts])
    system = assemble_design(bases, inputs.omega)
    K, y = system.K, system.y
    built = []
    monkeypatch.setattr(recovery.DesignSystem, "K",
                        property(lambda s: built.append(s) or K))
    Z, lam_min, residual = solve_core(system)
    assert strong_convexity_gamma(system) == lam_min
    # no row of K is built on the solve path
    assert built == []
    G, b = system.normal()
    assert np.linalg.norm(G - K.T @ K) <= 1e-13 * np.linalg.norm(K.T @ K)
    assert np.linalg.norm(b - K.T @ y) <= 1e-13 * np.linalg.norm(K.T @ y)
    assert np.allclose(Z.reshape(-1), pseudo_inverse(K) @ y, rtol=0, atol=1e-10)
    expect = float(np.sum((K @ Z.reshape(-1) - y) ** 2))
    assert expect > 0
    assert abs(residual - expect) <= 1e-12 * expect

    runs = []
    for k in (1, 2):
        with blas_threads(k):
            fresh = assemble_design(bases, inputs.omega)
            runs.append([*fresh.normal(), *solve_core(fresh)])
    for one, two in zip(*runs):
        assert np.asarray(one).tobytes() == np.asarray(two).tobytes()


def test_design_and_solve_hold_at_most_two_chunks():
    # |Omega| = 90,000 at r = 8: the full K would take 46 MB, about 2.7 chunks
    n = m = 300
    r = 8
    bases = orthonormal_bases(n, m, r, seed=63)
    omega = full_grid(rng(65).standard_normal((n, m)))
    tracemalloc.start()
    try:
        _, lam_min, _ = solve_core(assemble_design(bases, omega))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(lam_min - 1.0) < 1e-10
    assert peak < 2 * recovery.CHUNK_BYTES + 64 * (n + m) * r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 16), m=st.integers(2, 16), r=st.integers(1, 3),
       fraction=st.floats(0.0, 1.0), chunk_rows=st.integers(1, 64),
       seed=st.integers(0, 2**16))
# one-entry chunks over rows of one entry and empty rows
@example(n=16, m=2, r=1, fraction=0.0, chunk_rows=1, seed=0)
@example(n=16, m=16, r=2, fraction=0.02, chunk_rows=1, seed=3)
def test_solve_core_matches_the_pinv_oracle(n, m, r, fraction, chunk_rows,
                                            seed):
    assume(r <= min(n, m))
    bases = orthonormal_bases(n, m, r, seed=seed)
    size = r * r + round(fraction * (n * m - r * r))
    omega = sample_entries(rng(seed).standard_normal((n, m)), size,
                           RngStream(seed=seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "CHUNK_BYTES", chunk_rows * 8 * r * r)
        system = assemble_design(bases, omega)
        K, y = system.K, system.y
        G, b = system.normal()
        w = np.linalg.eigvalsh(K.T @ K)
        assume(w[0] >= 1e-6 * w[-1])  # well-posed: cond(K^T K) <= 1e6
        Z, _, residual = solve_core(system)
    assert np.linalg.norm(G - K.T @ K) <= 1e-12 * np.linalg.norm(K.T @ K)
    assert np.linalg.norm(b - K.T @ y) <= 1e-12 * np.linalg.norm(K.T @ y)
    expect = float(np.sum((K @ Z.reshape(-1) - y) ** 2))
    assert abs(residual - expect) <= 1e-12 * max(expect, 1e-12 * float(y @ y))
    oracle = pseudo_inverse(K) @ y
    assert (np.linalg.norm(Z.reshape(-1) - oracle)
            <= 1e-8 * max(np.linalg.norm(oracle), 1.0))


# --- recover -------------------------------------------------------------------


def test_sample_everything_recovers_exactly():
    M = low_rank(10, 10, 3, seed=22)
    inputs = RecoveryInputs(A=M.copy(), B=M.T.copy(), omega=full_grid(M), r=3)
    _, M_hat = recover(inputs)
    assert frobenius_norm(M - M_hat) <= 1e-8 * frobenius_norm(M)


def test_recover_exact_at_modest_budgets():
    M = low_rank(60, 50, 4, seed=23)
    inputs = sample_run(M, d=20, s=800, r=4, seed=24)
    result, M_hat = recover(inputs)
    assert frobenius_norm(M - M_hat) <= 1e-6 * frobenius_norm(M)
    assert result.lambda_min_KtK > 0
    assert result.Z_star.shape == (4, 4)


def test_interpolation_property():
    # M = P_U M P_V exactly and positive curvature force exact recovery
    M = low_rank(30, 25, 2, seed=25)
    inputs = sample_run(M, d=10, s=300, r=2, seed=26)
    result, M_hat = recover(inputs)
    U, V = result.bases.U_hat, result.bases.V_hat
    proj_gap = frobenius_norm(M - U @ (U.T @ M @ V) @ V.T)
    assert proj_gap <= 1e-8 * frobenius_norm(M)
    assert frobenius_norm(M - M_hat) <= 1e-8 * frobenius_norm(M)


def test_objective_monotonicity():
    spec = SynthSpec(n=24, m=20, kind="geometric-spectrum", r=3,
                     stream=RngStream(seed=27), decay=0.6)
    M, _ = generate(spec)
    inputs = sample_run(M, d=10, s=240, r=3, seed=28)
    result, _ = recover(inputs)
    bases = result.bases
    system = assemble_design(bases, inputs.omega)

    def objective(Z):
        return float(np.sum((system.K @ Z.reshape(-1) - system.y) ** 2))

    observed = np.zeros(inputs.omega.shape)
    observed[inputs.omega.rows, inputs.omega.cols] = inputs.omega.values
    z_naive = bases.U_hat.T @ observed @ bases.V_hat
    assert result.residual <= objective(z_naive) + 1e-12
    assert result.residual <= objective(np.zeros((3, 3))) + 1e-12


def test_gradient_vanishes_at_solution():
    spec = SynthSpec(n=20, m=18, kind="geometric-spectrum", r=2,
                     stream=RngStream(seed=29), decay=0.5)
    M, _ = generate(spec)
    inputs = sample_run(M, d=8, s=150, r=2, seed=30)
    result, _ = recover(inputs)
    system = assemble_design(result.bases, inputs.omega)
    z = result.Z_star.reshape(-1)
    grad = system.K.T @ (system.K @ z - system.y)
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(system.K.T @ system.y)

    def objective(zv):
        return float(np.sum((system.K @ zv - system.y) ** 2))

    h = 1e-6
    for k in range(10):
        direction = rng(200 + k).standard_normal(z.size)
        direction /= np.linalg.norm(direction)
        slope = (objective(z + h * direction) - objective(z - h * direction)) / (2 * h)
        assert abs(slope) <= 1e-6


def test_permutation_equivariance():
    M = low_rank(14, 12, 2, seed=31)
    base = RngStream(seed=32)
    idxc, A = sample_columns(M, 6, base.derive(1))
    idxr, B = sample_rows(M, 6, base.derive(2))
    omega = sample_entries(M, 100, base.derive(3))
    _, M_hat = recover(RecoveryInputs(A=A, B=B, omega=omega, r=2))

    perm = rng(33).permutation(14)
    Mp = M[perm, :]
    inv = np.argsort(perm)
    # carry the same draws over to the permuted instance
    Ap = A[perm, :]
    rows_p = inv[omega.rows]
    order = np.argsort(rows_p * 12 + omega.cols, kind="stable")
    omega_p = OmegaSet(shape=(14, 12), rows=rows_p[order],
                       cols=omega.cols[order],
                       values=Mp[rows_p[order], omega.cols[order]])
    Bp_idx = perm[idxr.draw_order]
    Bp = Mp[inv[Bp_idx], :].T  # same physical rows
    _, M_hat_p = recover(RecoveryInputs(A=Ap, B=Bp, omega=omega_p, r=2))
    assert np.allclose(M_hat_p, M_hat[perm, :], atol=1e-8)


def test_scaling_equivariance():
    M = low_rank(16, 12, 2, seed=34)
    inputs = sample_run(M, d=8, s=120, r=2, seed=35)
    result, M_hat = recover(inputs)
    c = -2.5
    omega = inputs.omega
    omega_scaled = OmegaSet(shape=omega.shape, rows=omega.rows, cols=omega.cols,
                            values=c * M[omega.rows, omega.cols])
    inputs_scaled = RecoveryInputs(A=c * inputs.A, B=c * inputs.B,
                                   omega=omega_scaled, r=2)
    result_c, M_hat_c = recover(inputs_scaled)
    assert np.allclose(M_hat_c, c * M_hat, atol=1e-8)


def test_rank_misspecification_proceeds_with_flag():
    M = low_rank(20, 16, 2, seed=36)
    inputs = sample_run(M, d=10, s=250, r=4, seed=37)
    result, M_hat = recover(inputs)
    assert result.bases.degenerate_gap
    assert frobenius_norm(M - M_hat) <= 1e-6 * frobenius_norm(M)


def test_inputs_validation():
    M = low_rank(10, 8, 2, seed=38)
    omega = sample_entries(M, 20, RngStream(seed=39))
    with pytest.raises(ValueError):
        RecoveryInputs(A=np.zeros((10, 4)), B=np.zeros((8, 5)), omega=omega, r=2)
    with pytest.raises(ValueError):
        RecoveryInputs(A=np.zeros((10, 4)), B=np.zeros((8, 4)), omega=omega, r=5)


# --- strong_convexity_gamma ------------------------------------------------------


def test_gamma_full_grid_is_one():
    M = low_rank(8, 6, 2, seed=40)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    system = assemble_design(bases, full_grid(M))
    assert abs(strong_convexity_gamma(system) - 1.0) < 1e-10


def test_gamma_single_observation_r1():
    U = random_orthonormal(5, 1, seed=41)
    V = random_orthonormal(4, 1, seed=42)
    bases = Bases(U_hat=U, V_hat=V, left_sigma=np.ones(1),
                  right_sigma=np.ones(1), degenerate_gap=False)
    omega = OmegaSet(shape=(5, 4), rows=np.array([3]), cols=np.array([2]),
                     values=np.array([1.0]))
    system = assemble_design(bases, omega)
    expect = (U[3, 0] * V[2, 0]) ** 2
    assert abs(strong_convexity_gamma(system) - expect) < 1e-14


def test_gamma_matches_eigensolver_oracle():
    M = low_rank(15, 12, 3, seed=43)
    bases = build_bases(M.copy(), M.T.copy(), 3)
    omega = sample_entries(M, 70, RngStream(seed=44))
    system = assemble_design(bases, omega)
    oracle = float(np.linalg.eigvalsh(system.K.T @ system.K)[0])
    assert abs(strong_convexity_gamma(system) - max(oracle, 0.0)) < 1e-10


# --- independent solver oracle ----------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_solver_matches_pseudo_inverse_path(seed):
    g = rng(500 + seed)
    n = int(g.integers(6, 13))
    m = int(g.integers(5, n + 1))
    r = int(g.integers(1, 4))
    M = low_rank(n, m, min(r, m), seed=600 + seed)
    d = min(m, n, max(r + 2, 4))
    s = int(g.integers(4 * r * r + 4, n * m + 1))
    inputs = sample_run(M, d=d, s=s, r=r, seed=700 + seed)
    result, _ = recover(inputs)
    system = assemble_design(result.bases, inputs.omega)
    z_oracle = pseudo_inverse(system.K) @ system.y
    assert np.allclose(result.Z_star.reshape(-1), z_oracle, atol=1e-8)
