import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlow import bounds
from curlow.bounds import (
    SINGULAR_H,
    Spectrum,
    build_h_pair,
    check_combine,
    check_delta,
    check_delta_triangle,
    check_full_rank_recovery,
    check_h_sandwich,
    check_halko,
    check_mu_hat_bound,
    check_omega1_spectrum,
    check_projection,
    check_sin_theta_perturbation,
    check_strong_convexity,
    d_full_rank,
    holds_le,
    make_report,
    optimal_d,
    recovery_rhs,
    sample_size_full_rank,
    sample_size_low_rank,
    total_observations,
)
from curlow.coherence import mu_r, numerical_rank
from curlow.linalg import (
    SANDWICH_ULPS,
    SvdFactors,
    frobenius_norm,
    settle_by_frobenius,
    spectral_norm,
    svd,
)
from curlow.recovery import RecoveryInputs, assemble_design, build_bases, recover
from curlow.sampling import (
    IndexSet,
    RngStream,
    sample_columns,
    sample_entries,
    sample_rows,
)
from curlow.synth import SynthSpec, generate


def rng(seed=0):
    return np.random.default_rng(seed)


def hadamard_cols(n):
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    assert H.shape[0] == n
    return H / np.sqrt(n)


def low_rank(n, m, r, seed=0, sig=None):
    g = rng(seed)
    U, _ = np.linalg.qr(g.standard_normal((n, r)))
    V, _ = np.linalg.qr(g.standard_normal((m, r)))
    s = np.linspace(3.0, 1.0, r) if sig is None else np.asarray(sig, dtype=float)
    return (U * s) @ V.T


def hadamard_rank2(n=64):
    H = hadamard_cols(n)
    Hv = hadamard_cols(n)
    return (H[:, :2] * np.array([2.0, 1.0])) @ Hv[:, :2].T


def full_grid(M):
    n, m = M.shape
    return sample_entries(M, n * m, RngStream(seed=3))


def norms(M, bases=None, M_hat=None) -> dict:
    """The residual norms the checks take, by the expressions a lab `Draw`
    uses: the two one-sided projection errors and Delta of the bases, and
    the recovery error of M_hat."""
    out = {}
    if bases is not None:
        U, V = bases.U_hat, bases.V_hat
        out["side_cols"] = spectral_norm(M - (M @ V) @ V.T) ** 2
        out["side_rows"] = spectral_norm(M - U @ (U.T @ M)) ** 2
        out["delta"] = spectral_norm(M - U @ (U.T @ M @ V) @ V.T) ** 2
    if M_hat is not None:
        out["error"] = spectral_norm(M - M_hat) ** 2
    return out


# --- report plumbing ---------------------------------------------------------


def test_make_report_le_slack():
    assert make_report("x", 1.0 + 5e-10, 1.0, True).holds
    assert not make_report("x", 1.0 + 3e-9, 1.0, True).holds
    # tiny bound values still get the absolute floor
    assert make_report("x", 5e-10, 0.0, True).holds
    assert make_report("x", 5e-10, 1e-12, True).holds


def test_make_report_ge_slack():
    rep = make_report("x", 0.5 - 5e-10, 0.5, True, sense="ge")
    assert rep.holds and rep.sense == "ge"
    assert not make_report("x", 0.5 - 3e-9, 0.5, True, sense="ge").holds
    with pytest.raises(ValueError):
        make_report("x", 0.0, 0.0, True, sense="eq")


def test_report_to_dict():
    rep = make_report("demo", 1.5, 2.0, False, {"k": 3})
    d = rep.to_dict()
    assert d == {"name": "demo", "lhs": 1.5, "rhs": 2.0, "sense": "le",
                 "holds": True, "premises_met": False, "params": {"k": 3}}


# --- calculators ---------------------------------------------------------------


def test_sample_size_low_rank_values():
    assert sample_size_low_rank(1.0, 1, 1.0) == (7, 7)
    assert sample_size_low_rank(2.0, 3, 3.0) == (173, 1310)


def test_sample_size_low_rank_monotone():
    base = sample_size_low_rank(2.0, 3, 3.0)
    for bumped in (sample_size_low_rank(2.5, 3, 3.0),
                   sample_size_low_rank(2.0, 4, 3.0),
                   sample_size_low_rank(2.0, 3, 4.0)):
        assert bumped[0] >= base[0]
        assert bumped[1] >= base[1]
    doubled = sample_size_low_rank(4.0, 3, 3.0)
    assert abs(doubled[0] - 2 * base[0]) <= 1
    # omega budget scales with mu^2
    assert abs(doubled[1] - 4 * base[1]) <= 3


def test_sample_size_low_rank_validation():
    with pytest.raises(ValueError):
        sample_size_low_rank(0.5, 3, 3.0)
    with pytest.raises(ValueError):
        sample_size_low_rank(1.0, 0, 3.0)
    with pytest.raises(ValueError):
        sample_size_low_rank(1.0, 3, 0.0)


@pytest.mark.parametrize("t", [math.inf, math.nan, 1e308])
def test_budget_formulas_refuse_a_value_that_is_not_finite(t):
    # inf and nan reach the ceiling; 1e308 overflows the products to inf
    for formula in (lambda: sample_size_low_rank(2.0, 3, t),
                    lambda: d_full_rank(2.0, 3.0, t, 100),
                    lambda: sample_size_full_rank(2.0, 3.0, t, 100, 50, 4)):
        with pytest.raises(ValueError, match="not finite"):
            formula()


def test_entry_budget_refuses_an_overflowing_square():
    with pytest.raises(ValueError, match="overflows"):
        sample_size_full_rank(2.0, 3.0, 1e300, 100, 50, 4)


def test_sample_size_full_rank_values():
    assert sample_size_full_rank(2.0, 3.0, 3.0, 100, 50, 4) == (852, 2382133949)


def test_sample_size_full_rank_monotone_in_n():
    prev = sample_size_full_rank(2.0, 3.0, 3.0, 50, 25, 4)
    for n in (100, 200, 400):
        cur = sample_size_full_rank(2.0, 3.0, 3.0, n, n // 2, 4)
        assert cur[0] >= prev[0]
        assert cur[1] >= prev[1]
        prev = cur
    with pytest.raises(ValueError):
        sample_size_full_rank(0.0, 3.0, 3.0, 100, 50, 4)


def test_optimal_d_values():
    assert optimal_d(1) == 1
    assert optimal_d(8) == 2
    assert optimal_d(27) == 3
    assert optimal_d(512) == 8
    assert optimal_d(1000) == 10
    with pytest.raises(ValueError):
        optimal_d(0)


def test_total_observations_values():
    assert total_observations(512, 8) == 8192.0
    assert total_observations(512, 16) == 9216.0
    assert total_observations(512, 4) == 18432.0
    with pytest.raises(ValueError):
        total_observations(512, 0)


def test_power_of_two_grid_minimum_matches_calculator():
    grid = [2, 4, 8, 16, 32]
    best = min(grid, key=lambda d: total_observations(512, d))
    assert best == optimal_d(512) == 8


# --- projection family -----------------------------------------------------------


def test_projection_exact_rank2_hadamard():
    # coherence is exactly 1, so the budget gate is satisfied at d = n
    M = hadamard_rank2(64)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    res = norms(M, bases)
    rep_cols, rep_rows = check_projection(Spectrum(M, 2), res["side_cols"],
                                          res["side_rows"], 64)
    for rep in (rep_cols, rep_rows):
        assert rep.premises_met
        assert rep.holds
        assert rep.lhs <= 1e-12
        assert rep.rhs <= 1e-28  # sigma_{r+1} only vanishes to machine precision
    assert rep_cols.name == "projection_error_cols"
    assert rep_rows.name == "projection_error_rows"
    assert rep_cols.params["d_gate"] <= 64


def test_projection_rhs_arithmetic():
    g = rng(5)
    M = low_rank(30, 24, 3, seed=6) + 1e-3 * g.standard_normal((30, 24))
    bases = build_bases(M.copy(), M.T.copy(), 3)
    res = norms(M, bases)
    rep_cols, rep_rows = check_projection(Spectrum(M, 3), res["side_cols"],
                                          res["side_rows"], 10)
    s_tail = svd(M).sigma[3]
    assert abs(rep_cols.rhs - s_tail**2 * (1 + 2 * 24 / 10)) < 1e-12
    assert abs(rep_rows.rhs - s_tail**2 * (1 + 2 * 30 / 10)) < 1e-12
    assert not rep_cols.premises_met  # d = 10 is far below the budget gate
    assert rep_cols.lhs == pytest.approx(
        spectral_norm(M - (M @ bases.V_hat) @ bases.V_hat.T) ** 2, rel=1e-12)


def test_delta_exact_low_rank():
    M = hadamard_rank2(64)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    rep = check_delta(Spectrum(M, 2), norms(M, bases)["delta"], 64)
    assert rep.premises_met and rep.holds
    assert rep.lhs <= 1e-12 and rep.rhs <= 1e-28


def test_delta_full_rank_gate():
    spec = SynthSpec(n=40, m=40, kind="geometric-spectrum", r=3,
                     stream=RngStream(seed=7), decay=0.3)
    M, _ = generate(spec)
    bases = build_bases(M.copy(), M.T.copy(), 3)
    rep = check_delta(Spectrum(M, 3, full_rank=True),
                      norms(M, bases)["delta"], 40)
    sig = svd(M).sigma
    lam = sig[2] ** 2 / (40 * 40)
    rank_rep = numerical_rank(svd(M), lam)
    gate = math.ceil(14.0 * rank_rep.mu_lambda * rank_rep.value
                     * (3.0 + math.log(3)))
    assert rep.params["d_gate"] == gate
    assert rep.params["lam"] == pytest.approx(lam)
    assert rep.premises_met == (40 >= gate)
    assert abs(rep.rhs - 4 * sig[3] ** 2 * (1 + 80 / 40)) < 1e-12


def test_delta_triangle_unconditional():
    for seed in range(20):
        g = rng(400 + seed)
        M = low_rank(20, 16, 3, seed=seed) + 0.05 * g.standard_normal((20, 16))
        base = RngStream(seed=500 + seed)
        _, A = sample_columns(M, 8, base.derive(1))
        _, B = sample_rows(M, 8, base.derive(2))
        bases = build_bases(A, B, 3)
        res = norms(M, bases)
        tri = check_delta_triangle(res["delta"], res["side_cols"],
                                   res["side_rows"])
        assert tri.holds and tri.premises_met
        delta = check_delta(Spectrum(M, 3), res["delta"], 8)
        # the two-sided error is what the triangle step bounds
        assert delta.lhs <= tri.rhs + 1e-9 * max(1.0, tri.rhs)
        manual = 2 * (tri.params["side_cols"] + tri.params["side_rows"])
        assert tri.rhs == pytest.approx(manual, rel=1e-12)


def test_combine_exact_recovery():
    M = low_rank(16, 16, 2, seed=8)
    inputs = RecoveryInputs(A=M.copy(), B=M.T.copy(), omega=full_grid(M), r=2)
    result, M_hat = recover(inputs)
    rep = check_combine(norms(M, M_hat=M_hat)["error"], delta=0.0, gamma=1.0)
    assert rep.premises_met and rep.holds
    assert rep.rhs == 0.0 and rep.lhs <= 1e-12


def test_combine_gamma_policy():
    M = low_rank(10, 10, 2, seed=9)
    error = norms(M, M_hat=np.zeros_like(M))["error"]
    rep = check_combine(error, delta=1.0, gamma=0.0)
    assert not rep.premises_met
    assert rep.rhs == float("inf") and rep.holds
    rep = check_combine(error, delta=1.0, gamma=0.4)
    assert not rep.premises_met
    assert rep.rhs == pytest.approx(2 * (1 + 1 / 0.4))
    rep = check_combine(error, delta=1.0, gamma=0.8)
    assert rep.premises_met
    # rhs shrinks as the curvature improves
    exact = norms(M, M_hat=M)["error"]
    assert check_combine(exact, 1.0, 1.0).rhs < check_combine(exact, 1.0, 0.5).rhs


# --- column-selection family -------------------------------------------------------


def test_halko_spanning_selection_is_tight():
    M = low_rank(30, 20, 3, seed=10)
    idx, _ = sample_columns(M, 10, RngStream(seed=11))
    rep = check_halko(M, idx, 3)
    assert rep.premises_met and rep.holds
    assert rep.lhs <= 1e-12 and rep.rhs <= 1e-12


def test_halko_reads_given_factors_as_its_own_svd():
    # the lab passes the instance's svd(M); the report is the one the
    # check gives when it factors M itself, bit for bit
    M = low_rank(30, 20, 3, seed=10) + 1e-3 * rng(19).standard_normal((30, 20))
    idx, _ = sample_columns(M, 8, RngStream(seed=11))
    given_f = check_halko(M, idx, 3, svd(M))
    assert given_f == check_halko(M, idx, 3)
    assert given_f.premises_met and given_f.holds and given_f.rhs > 0


def test_halko_all_columns_zero_tail():
    g = rng(12)
    M = g.standard_normal((10, 6))
    idx, _ = sample_columns(M, 6, RngStream(seed=13))
    rep = check_halko(M, idx, 6)
    assert rep.lhs <= 1e-12
    assert rep.rhs <= 1e-12
    assert rep.holds


def test_halko_full_cut_leaves_empty_tail():
    # a wide matrix cut at r = min(n, m) = n: Sigma2 and Omega2 are empty, so
    # the bound is exactly zero and any n spanning columns capture M
    M = rng(3).standard_normal((4, 5))
    idx, _ = sample_columns(M, 4, RngStream(seed=18))
    rep = check_halko(M, idx, 4)
    assert rep.premises_met
    assert rep.rhs == 0.0
    assert rep.lhs <= 1e-12 and rep.holds


def test_halko_rank_deficient_selection_flagged():
    M = low_rank(12, 10, 3, seed=14)
    idx, _ = sample_columns(M, 2, RngStream(seed=15))
    rep = check_halko(M, idx, 3)
    assert not rep.premises_met  # 2 columns cannot carry a rank-3 row block


def test_halko_full_row_rank_is_relative_to_omega1():
    # Omega1 = diag(1e-3, 1e-14): sigma_min / sigma_max = 1e-11 lies above
    # the relative cutoff 1e-12, so Omega1 has full row rank, though
    # sigma_min lies below an absolute 1e-12
    m, n, c = 8, 10, math.sqrt(1.0 - 1e-6)
    V = np.eye(m)
    V[:4, :4] = [[1e-3, 0.0, c, 0.0], [0.0, 1e-14, 0.0, 1.0],
                 [c, 0.0, -1e-3, 0.0], [0.0, 1.0, 0.0, -1e-14]]
    U = np.linalg.qr(rng(21).standard_normal((n, m)))[0]
    sigma = np.array([4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
    f = SvdFactors(U=U, sigma=sigma, V=V)
    M = (U * sigma) @ V.T
    idx = IndexSet(indices=np.array([0, 1]), bound=m,
                   draw_order=np.array([0, 1]))
    rep = check_halko(M, idx, 2, f)
    assert rep.params["sigma_min_omega1"] == 1e-14
    assert rep.premises_met


@pytest.mark.parametrize("r", [2, 3], ids=["r=rank", "r=rank+1"])
def test_low_rank_gates_have_no_mu_r_above_the_rank(r):
    # exact rank 2 with mu_r = 1: at r = 2 each gate reads mu_r, at r = 3
    # the third singular pair is arbitrary, so each reports its reason and
    # no gate
    M = hadamard_rank2(64)
    spec = Spectrum(M, r)
    bases = build_bases(M.copy(), M.T.copy(), r)
    res = norms(M, bases)
    idx, _ = sample_columns(M, 60, RngStream(seed=33))
    reports = [*check_projection(spec, res["side_cols"], res["side_rows"], 60),
               check_delta(spec, res["delta"], 60),
               check_omega1_spectrum(spec, idx)]
    for rep in reports:
        if r == 2:
            d_gate = sample_size_low_rank(spec.mu_r, 2, 3.0)[0]
            assert (rep.params["mu_r"], rep.params["d_gate"]) == (spec.mu_r,
                                                                  d_gate)
            assert d_gate == 52 and rep.premises_met
            assert "reason" not in rep.params
        else:
            assert spec.rank_deficient
            assert rep.params["reason"] == bounds.RANK_BELOW_R
            assert not {"mu_r", "d_gate", "fail_prob"} & set(rep.params)
            assert not rep.premises_met


def test_halko_bound_requires_matching_selection():
    M = low_rank(12, 10, 3, seed=16)
    idx = IndexSet(indices=np.array([0, 1]), bound=9,
                   draw_order=np.array([1, 0]))
    with pytest.raises(ValueError):
        check_halko(M, idx, 3)


def test_halko_rejects_rank_outside_range():
    M = low_rank(12, 10, 3, seed=16)
    idx, _ = sample_columns(M, 4, RngStream(seed=17))
    for r in (0, 11):
        with pytest.raises(ValueError, match="r must be in"):
            check_halko(M, idx, r)


def test_halko_random_trials_never_violate():
    held = 0
    for seed in range(200):
        g = rng(1000 + seed)
        n = int(g.integers(12, 28))
        m = int(g.integers(8, n + 1))
        r = int(g.integers(1, 5))
        d = int(g.integers(r, m + 1))
        M = low_rank(n, m, min(r + 1, m), seed=2000 + seed)
        M = M + 0.01 * g.standard_normal((n, m))
        idx, _ = sample_columns(M, d, RngStream(seed=3000 + seed))
        rep = check_halko(M, idx, r)
        if rep.premises_met:
            held += 1
            assert rep.holds
    assert held >= 150  # the deterministic bound applies to almost every draw


def test_omega1_spectrum_full_selection():
    M = low_rank(15, 12, 2, seed=17)
    idx, _ = sample_columns(M, 12, RngStream(seed=18))
    spec = Spectrum(M, 2)
    rep = check_omega1_spectrum(spec, idx)
    assert rep.sense == "ge"
    assert rep.lhs == pytest.approx(1.0, abs=1e-10)
    assert rep.rhs == pytest.approx(0.5)
    assert rep.holds
    # all 12 columns, yet below the gate 7 mu_r r (t + ln r) at t = 3
    d_gate = math.ceil(7.0 * spec.mu_r * 2 * (3.0 + math.log(2)))
    assert rep.params["d_gate"] == d_gate > 12
    assert not rep.premises_met
    assert rep.params["fail_prob"] > math.exp(-3.0)
    mu = rep.params["mu_r"]
    assert rep.params["fail_prob"] == pytest.approx(
        2 * math.exp(-12 / (7 * mu * 2)))


# --- strong convexity ---------------------------------------------------------------


def test_strong_convexity_full_grid():
    M = hadamard_rank2(16)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    system = assemble_design(bases, full_grid(M))
    rep = check_strong_convexity(system, mu_r(bases.U_hat, bases.V_hat))
    assert rep.sense == "ge"
    assert rep.lhs == pytest.approx(1.0, abs=1e-10)
    assert rep.rhs == pytest.approx(256 / (2 * 256 * 256) * 256)  # |Omega|/(2mn)
    assert rep.holds
    assert rep.premises_met  # basis cross-coherence is 1, so the gate is ~123
    assert rep.params["omega_gate"] <= 256


def test_strong_convexity_starved_sample_fails_honestly():
    M = low_rank(12, 12, 2, seed=22)
    bases = build_bases(M.copy(), M.T.copy(), 2)
    omega = sample_entries(M, 2, RngStream(seed=23))
    system = assemble_design(bases, omega)
    rep = check_strong_convexity(system, mu_r(bases.U_hat, bases.V_hat))
    assert not rep.premises_met
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert not rep.holds


# --- regularized Gram sandwich --------------------------------------------------------


def test_h_pair_full_sample_sides_agree():
    spec = SynthSpec(n=20, m=20, kind="geometric-spectrum", r=2,
                     stream=RngStream(seed=26), decay=0.5)
    M, _ = generate(spec)
    lam = svd(M).sigma[1] ** 2 / 400
    pair_a = build_h_pair(Spectrum(M, 2, lam), M.copy())
    assert pair_a.w.shape == (20,) and not pair_a.singular
    assert np.allclose(pair_a.eigs, 1.0, atol=1e-10)
    rep = check_h_sandwich(pair_a, 0.5)
    assert rep.lhs <= 1e-10
    assert rep.holds
    assert abs(max(abs(rep.params["eig_min"] - 1), abs(rep.params["eig_max"] - 1))
               - rep.lhs) < 1e-12


@pytest.mark.parametrize("shape", [(30, 18), (18, 30), (20, 20)])
def test_h_pair_reads_h_from_the_spectrum_and_holds_no_dense_h(shape):
    # w and M's left singular vectors U are H's eigenpairs, with w padded
    # by lam on U's complement where n > m; the ratio's eigenvalues are
    # those of the dense H^{-1/2} H_hat H^{-1/2}; the pair holds no n x n
    # array, and d < n, so its sample is not one either
    n, m = shape
    M, _ = generate(SynthSpec(n=max(shape), m=min(shape), r=3,
                              kind="geometric-spectrum",
                              stream=RngStream(seed=40), decay=0.6))
    M = M if n >= m else M.T.copy()
    spec = Spectrum(M, 3)
    _, A = sample_columns(M, 9, RngStream(seed=41))
    pair = build_h_pair(spec, A)
    assert not any(np.shape(v) == (n, n) for v in vars(pair).values())
    U, lam = spec.factors.U, spec.lam
    H = lam * np.eye(n) + M @ M.T / (m * n)
    H_hat = lam * np.eye(n) + A @ A.T / (9 * n)
    assert np.all(np.diff(pair.w) <= 0) and np.all(pair.w[min(n, m):] == lam)
    assert np.allclose(np.linalg.eigvalsh(H)[::-1], pair.w, rtol=1e-12)
    assert np.allclose(H @ U, U * pair.w[:U.shape[1]], atol=1e-14)
    w, Q = np.linalg.eigh(H)
    inv_sqrt = (Q * w**-0.5) @ Q.T
    dense = np.linalg.eigvalsh(inv_sqrt @ H_hat @ inv_sqrt)
    assert np.allclose(pair.eigs, dense, rtol=0, atol=1e-12)
    assert pair.ratio_delta == float(np.max(np.abs(pair.eigs - 1.0)))


def test_h_pair_validation():
    M = low_rank(8, 6, 2, seed=27)
    spec_m = Spectrum(M, 2, 1e-3)
    with pytest.raises(ValueError):
        build_h_pair(spec_m, np.zeros((5, 3)))
    pair = build_h_pair(spec_m, M)
    with pytest.raises(ValueError):
        check_h_sandwich(pair, 0.0)
    with pytest.raises(ValueError):
        check_h_sandwich(pair, 1.0)


def gram_root(H, lam):
    """An n x n M with lam I + M M^T / n^2 = H, for a symmetric H whose
    H - lam I is positive semidefinite."""
    n = H.shape[0]
    w, Q = np.linalg.eigh(H - lam * np.eye(n))
    return (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T * n


def pair_of(H, H_hat, r=1, lam=1e-3):
    """The `HPair` whose H and H_hat are two given symmetric n x n
    matrices, at rank r and lam, of the M and the n x n sample S that
    `gram_root` gives them."""
    spec = Spectrum(gram_root(H, lam), r, lam)
    return build_h_pair(spec, gram_root(H_hat, lam))


def sin_theta_of(H, H_hat, r=1, lam=1e-3):
    """The sin theta report of `pair_of(H, H_hat, r, lam)`, with H_hat's
    top-r eigenvectors, its sample's top-r left singular vectors, as the
    basis."""
    pair = pair_of(H, H_hat, r, lam)
    return check_sin_theta_perturbation(pair, svd(pair.S).U[:, :r])


def test_a_spectrum_refuses_a_rank_outside_its_shape():
    # r = 0 read sigma[-1] as sigma_r and sigma[0] as sigma_{r+1}, and
    # r = 5 indexed past sigma
    M = np.diag([3.0, 2.0, 1.0, 0.5])
    for r in (-1, 0, 5):
        with pytest.raises(ValueError) as err:
            Spectrum(M, r)
        assert str(err.value) == f"r must be in [1, 4], got {r}"
    spec = Spectrum(M, 4)
    assert spec.sigma_r == 0.5 and spec.sigma_r_plus_1 == 0.0


def test_a_spectrum_runs_no_kernel_until_it_is_read(monkeypatch):
    # each read below is the first of a fresh spectrum: sigma and its two
    # entries take the values-only SVD, factors, mu_r and rank the svd
    M = low_rank(40, 30, 3, seed=37)
    calls = []

    def counted(a, *args, _fn=np.linalg.svd, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    for name, vectors in (("sigma", False), ("sigma_r", False),
                          ("sigma_r_plus_1", False), ("factors", True),
                          ("mu_r", True), ("rank", True)):
        spec = Spectrum(M, 3, 1e-3)
        assert calls == [] and spec.lam == 1e-3
        getattr(spec, name)
        assert calls == [vectors], name
        calls.clear()


@pytest.mark.parametrize("first", ["factors", "mu_r"])
def test_a_default_lam_spectrum_read_for_its_vectors_takes_one_svd(
        monkeypatch, first):
    # factors and mu_r do not read lam, so a default-lam spectrum whose
    # first read is either takes svd(M) alone, not the values-only SVD too
    M = low_rank(40, 30, 3, seed=37)
    calls = []

    def counted(a, *args, _fn=np.linalg.svd, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    getattr(Spectrum(M, 3), first)
    assert calls == [True]


def test_a_spectrum_is_the_same_whichever_value_is_read_first():
    # rank reads lam, so sigma, inside its own build: read in either
    # order, two spectra of one M agree bit for bit
    M = low_rank(40, 30, 3, seed=37) + 1e-3 * rng(38).standard_normal((40, 30))
    rank_first, sigma_first = Spectrum(M, 3), Spectrum(M, 3)
    for spec, order in ((rank_first, ("rank", "sigma")),
                        (sigma_first, ("sigma", "rank"))):
        for name in order:
            getattr(spec, name)
    assert np.array_equal(rank_first.sigma, sigma_first.sigma)
    assert rank_first.lam == sigma_first.lam
    assert rank_first.mu_r == sigma_first.mu_r
    assert rank_first.rank == sigma_first.rank


def _race(spec, names) -> list:
    """(name, value) of each name read by its own thread, with more readers
    than cores, switching threads as often as the interpreter allows."""
    barrier = threading.Barrier(len(names), timeout=30)
    seen = []

    def read(name):
        barrier.wait()
        seen.append((name, getattr(spec, name)))
    readers = [threading.Thread(target=read, args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert len(seen) == len(names)
    return seen


def test_a_spectrum_takes_sigma_once_for_racing_readers(monkeypatch):
    M = low_rank(40, 30, 3, seed=37)
    spec = Spectrum(M, 3)
    calls = []

    def counted(a, _fn=bounds.singular_values):
        calls.append(1)  # list.append is atomic across threads
        return _fn(a)
    monkeypatch.setattr(bounds, "singular_values", counted)
    seen = _race(spec, ["sigma"] * 9)
    assert len(calls) == 1
    assert all(value is spec.sigma for _, value in seen)


def test_a_spectrum_factors_m_once_for_racing_readers(monkeypatch):
    # the first read of factors, mu_r or rank factors M, once, and every
    # reader sees that one result; rank's build reads sigma for the default
    # lam inside the lock while sigma's own readers race it
    M = low_rank(40, 30, 3, seed=37)
    spec = Spectrum(M, 3)
    calls = []

    def counted(a, _fn=bounds.svd):
        calls.append(1)  # list.append is atomic across threads
        return _fn(a)
    monkeypatch.setattr(bounds, "svd", counted)
    seen = _race(spec, ["factors", "mu_r", "rank", "sigma"] * 3)
    assert len(calls) == 1
    f = spec.factors
    assert spec.mu_r == mu_r(f.U[:, :3], f.V[:, :3])
    assert spec.rank == numerical_rank(f, spec.lam)
    for name, value in seen:
        assert value is getattr(spec, name)


def test_h_sandwich_reports_singular_h():
    H = np.diag([3.0, 2.0, 0.0])
    rep = check_h_sandwich(pair_of(H, np.eye(3), lam=0.0), 0.5)
    assert rep.lhs == float("inf")
    assert not rep.premises_met and not rep.holds
    assert rep.params["reason"] == SINGULAR_H
    # at lam = 0, H = M M^T/(mn) has the rank of M, whatever its computed
    # eigenvalues read
    M = low_rank(8, 6, 2, seed=36)
    pair = build_h_pair(Spectrum(M, 3, 0.0), M[:, :4])
    assert pair.spec.lam == 0.0 and pair.singular and pair.eigs is None
    rep = check_h_sandwich(pair, 0.5)
    assert rep.lhs == float("inf") and not rep.premises_met
    assert rep.params["numerical_rank"] == 2.0
    # lam = sigma_9^2 / (nm) is positive but at most n eps ||H||, so H is
    # singular to working precision
    spec = SynthSpec(n=60, m=60, kind="geometric-spectrum", r=9,
                     stream=RngStream(seed=34), decay=0.1)
    M, _ = generate(spec)
    spec_m = Spectrum(M, 9)
    _, A = sample_columns(M, 60, RngStream(seed=35))
    pair = build_h_pair(spec_m, A)
    eps = np.finfo(float).eps
    assert 0 < spec_m.lam <= 60 * eps * pair.w[0]
    assert pair.singular and pair.eigs is None and pair.ratio_delta is None
    rep = check_h_sandwich(pair, 0.5)
    assert rep.lhs == float("inf") and not rep.premises_met
    assert rep.params["side"] == "A" and "eig_min" not in rep.params


def test_h_pair_is_singular_at_and_below_n_eps_w0():
    # H is singular to working precision where lam <= n eps w_0, w_0 =
    # lam + sigma_1^2/(mn): at lam = t = n eps sigma_1^2/(mn) and at t/2,
    # but not at 2t, where the ratio and both Gram checks go ahead
    M, _ = generate(SynthSpec(n=24, m=20, kind="geometric-spectrum", r=2,
                              stream=RngStream(seed=42), decay=0.5))
    _, A = sample_columns(M, 20, RngStream(seed=43))
    t = 24 * np.finfo(float).eps * svd(M).sigma[0] ** 2 / (24 * 20)
    for lam, singular in ((t / 2, True), (t, True), (2 * t, False)):
        pair = build_h_pair(Spectrum(M, 2, lam), A)
        assert pair.singular == singular and (pair.eigs is None) == singular
        sin = check_sin_theta_perturbation(pair, svd(A).U[:, :2])
        assert (sin.params.get("reason") == SINGULAR_H) == singular
        assert sin.premises_met == (not singular)
        assert (check_h_sandwich(pair, 0.5).lhs == float("inf")) == singular


# (n, m, decay, r, d) of four geometric instances and the ulps of 1 by
# which the pair's whitened-ratio eigenvalues missed a 40-digit reference
# on each when this test was written, rounded up: 5.0, 183.2, 65.8 and
# 18.0, where a dense eigh of H missed by 10.5, 3597.0, 3244.4 and 14.0.
# lam / w_0 is 0.2, 1e-4, 7.3e-4 and 0.5. A later kernel may not miss by
# more.
RATIO_ULPS = {(24, 20, 0.5, 2, 8): 5, (24, 24, 0.1, 3, 10): 184,
              (30, 20, 0.3, 4, 12): 66, (24, 24, 0.5, 1, 24): 18}


def test_h_pair_ratio_is_within_its_measured_ulps_of_the_truth():
    # the reference: the eigenvalues of L^{-1} H_hat L^{-T}, L = chol(H),
    # with H and H_hat formed exactly from M, the sample and lam
    mpmath = pytest.importorskip("mpmath")
    for k, (case, ulps) in enumerate(RATIO_ULPS.items()):
        n, m, decay, r, d = case
        M, _ = generate(SynthSpec(n=n, m=m, kind="geometric-spectrum", r=r,
                                  stream=RngStream(seed=50 + k), decay=decay))
        _, A = sample_columns(M, d, RngStream(seed=60 + k))
        spec = Spectrum(M, r)
        pair = build_h_pair(spec, A)
        with mpmath.workdps(40):
            Mm, Am = mpmath.matrix(M.tolist()), mpmath.matrix(A.tolist())
            lam = mpmath.mpf(spec.lam) * mpmath.eye(n)
            L_inv = mpmath.inverse(mpmath.cholesky(lam + Mm * Mm.T / (m * n)))
            ratio = L_inv * (lam + Am * Am.T / (d * n)) * L_inv.T
            truth = sorted(mpmath.eigsy((ratio + ratio.T) / 2,
                                        eigvals_only=True))
            miss = max(abs(mpmath.mpf(float(e)) - t)
                       for e, t in zip(np.sort(pair.eigs), truth))
        assert miss <= ulps * np.finfo(float).eps, case


def test_h_sandwich_gate_arithmetic():
    spec = SynthSpec(n=30, m=30, kind="geometric-spectrum", r=2,
                     stream=RngStream(seed=28), decay=0.4)
    M, _ = generate(spec)
    lam = svd(M).sigma[1] ** 2 / 900
    _, A = sample_columns(M, 10, RngStream(seed=29))
    pair = build_h_pair(Spectrum(M, 2, lam), A)
    rep = check_h_sandwich(pair, 0.5, t=3.0)
    gate = math.ceil(4.0 / 0.25 * (pair.spec.rank.mu_lambda
                                   * pair.spec.rank.value + 1.0)
                     * (3.0 + math.log(30)))
    assert rep.params["d_gate"] == gate
    assert rep.premises_met == (10 >= gate)
    assert rep.rhs == 0.5


# --- estimated-basis coherence ----------------------------------------------------------


def test_mu_hat_bound_premises_and_arithmetic():
    spec = SynthSpec(n=250, m=250, kind="geometric-spectrum", r=1,
                     stream=RngStream(seed=30), decay=0.1)
    M, _ = generate(spec)
    sig = svd(M).sigma
    lam = sig[0] ** 2 / (250 * 250)
    bases = build_bases(M.copy(), M.T.copy(), 1)
    rep = check_mu_hat_bound(Spectrum(M, 1, lam),
                             mu_r(bases.U_hat, bases.V_hat), d=250)
    assert rep.premises_met  # gap is 10x, d = n clears the gate
    assert rep.holds
    rank_rep = numerical_rank(svd(M), lam)
    delta_sq = 4.0 / 250 * (rank_rep.mu_lambda * rank_rep.value + 1.0) \
        * (3.0 + math.log(250))
    expect_rhs = 2.0 * rank_rep.value / 1 * rank_rep.mu_lambda \
        + 18.0 * 250 * delta_sq / 1
    assert rep.rhs == pytest.approx(expect_rhs, rel=1e-12)
    assert rep.params["d_gate"] <= 250


def test_mu_hat_bound_gates():
    spec = SynthSpec(n=250, m=250, kind="geometric-spectrum", r=1,
                     stream=RngStream(seed=30), decay=0.1)
    M, _ = generate(spec)
    lam = svd(M).sigma[0] ** 2 / (250 * 250)
    bases = build_bases(M.copy(), M.T.copy(), 1)
    muh = mu_r(bases.U_hat, bases.V_hat)
    assert not check_mu_hat_bound(Spectrum(M, 1, lam), muh,
                                  d=20).premises_met
    # a slow spectrum breaks the sqrt(2) gap requirement
    flat = SynthSpec(n=250, m=250, kind="geometric-spectrum", r=1,
                     stream=RngStream(seed=31), decay=0.9)
    Mf, _ = generate(flat)
    lam_f = svd(Mf).sigma[0] ** 2 / (250 * 250)
    bases_f = build_bases(Mf.copy(), Mf.T.copy(), 1)
    assert not check_mu_hat_bound(Spectrum(Mf, 1, lam_f),
                                  mu_r(bases_f.U_hat, bases_f.V_hat),
                                  d=250).premises_met


# --- eigenspace perturbation --------------------------------------------------------------


def givens(n, i, j, theta):
    G = np.eye(n)
    G[i, i] = G[j, j] = np.cos(theta)
    G[i, j] = -np.sin(theta)
    G[j, i] = np.sin(theta)
    return G


def test_sin_theta_identity_perturbation():
    H = np.diag([3.0, 2.0, 1.0, 0.5])
    rep = sin_theta_of(H, H.copy(), 2)
    assert rep.lhs <= 1e-7
    assert rep.params["eta"] == 0.0
    assert rep.params["d_h"] == 0.0
    assert rep.premises_met


def test_sin_theta_planted_rotation():
    H = np.diag([3.0, 2.0, 1.0, 0.5])
    theta = 0.05
    G = givens(4, 1, 2, theta)  # mixes the r=2 boundary pair
    H_tilde = G @ H @ G.T
    rep = sin_theta_of(H, H_tilde, 2)
    assert rep.premises_met
    assert rep.lhs == pytest.approx(math.sin(theta), abs=1e-6)
    assert rep.holds
    assert rep.params["d_lambda"] == pytest.approx(
        min(math.sqrt(2) * (1 - 1.0 / 2.0), 1 / math.sqrt(2)))
    assert "specialized_rhs" in rep.params
    assert rep.params["specialized_rhs"] == pytest.approx(
        3 * math.sqrt(2) * rep.params["ratio_delta"])


def test_sin_theta_large_perturbation_rejected():
    H = np.diag([3.0, 2.0, 1.0])
    g = rng(32)
    E = g.standard_normal((3, 3))
    H_tilde = H + 10.0 * E @ E.T
    rep = sin_theta_of(H, H_tilde)
    assert not rep.premises_met
    assert rep.rhs == float("inf")
    assert rep.params["eta"] >= 1.0


def test_sin_theta_degenerate_h():
    H = np.diag([3.0, 2.0, 0.0])
    rep = sin_theta_of(H, np.eye(3), lam=0.0)
    assert not rep.premises_met
    assert rep.rhs == float("inf")
    assert rep.params["reason"] == SINGULAR_H


def test_sin_theta_validation():
    with pytest.raises(ValueError):
        sin_theta_of(np.eye(3), np.eye(3), 0)
    # r = n leaves no eigenvalue past r, so no eigen-gap: a report whose
    # premises are not met, not an error
    rep = sin_theta_of(np.eye(3), np.eye(3), 3)
    assert not rep.premises_met and rep.rhs == float("inf")
    assert rep.params["reason"] == "no eigenvalue past r: no eigen-gap"


def test_sin_theta_bound_on_gram_pairs():
    # the family the Monte-Carlo harness exercises: regularized Gram
    # matrices of the matrix and of an actual column sample
    violations = 0
    applied = 0
    for seed in range(40):
        spec = SynthSpec(n=40, m=40, kind="geometric-spectrum", r=2,
                         stream=RngStream(seed=5000 + seed), decay=0.3)
        M, _ = generate(spec)
        lam = svd(M).sigma[1] ** 2 / 1600
        _, A = sample_columns(M, 30, RngStream(seed=6000 + seed))
        pair = build_h_pair(Spectrum(M, 2, lam), A)
        rep = check_sin_theta_perturbation(pair, svd(A).U[:, :2])
        if rep.premises_met:
            applied += 1
            if not rep.holds:
                violations += 1
    assert applied >= 20
    assert violations == 0


# --- end-to-end recovery bound ----------------------------------------------------------------


def test_full_rank_recovery_exact_case():
    M = low_rank(20, 20, 3, seed=33)
    inputs = RecoveryInputs(A=M.copy(), B=M.T.copy(), omega=full_grid(M), r=3)
    _, M_hat = recover(inputs)
    rep = check_full_rank_recovery(Spectrum(M, 3), norms(M, M_hat=M_hat)["error"],
                                   20, 400)
    assert rep.premises_met  # full grid meets the capped entry gate
    assert rep.holds
    assert rep.lhs <= 1e-12
    assert rep.rhs <= 1e-28
    assert rep.params["omega_gate"] == 400
    assert rep.params["omega_formula"] >= 400


def test_full_rank_recovery_rhs_and_gates():
    spec = SynthSpec(n=24, m=24, kind="geometric-spectrum", r=2,
                     stream=RngStream(seed=34), decay=0.3)
    M, _ = generate(spec)
    base = RngStream(seed=35)
    _, A = sample_columns(M, 12, base.derive(1))
    _, B = sample_rows(M, 12, base.derive(2))
    omega = sample_entries(M, 200, base.derive(3))
    _, M_hat = recover(RecoveryInputs(A=A, B=B, omega=omega, r=2))
    spec_m = Spectrum(M, 2)
    error = norms(M, M_hat=M_hat)["error"]
    rep = check_full_rank_recovery(spec_m, error, 12, 200)
    sig = svd(M).sigma
    assert rep.rhs == pytest.approx(24 * sig[2] ** 2 * (1 + 48 / 12), rel=1e-12)
    assert not rep.premises_met  # 200 entries sit below the capped gate of 576
    assert rep.params["omega_gate"] == 576
    full = check_full_rank_recovery(spec_m, error, 24, 576)
    assert full.premises_met


def test_recovery_rhs_and_holds_le_are_the_reports():
    # the sweep's decision reads the same right side and the same slack as
    # the report; n != m, so a swapped side would show in rhs
    M = low_rank(30, 18, 3, seed=36) + 1e-3 * rng(37).standard_normal((30, 18))
    spec = Spectrum(M, 3)
    rep = check_full_rank_recovery(spec, 0.0, 6, 100)
    assert recovery_rhs(spec, 6) == rep.rhs
    assert rep.rhs == 24.0 * spec.sigma_r_plus_1**2 * (1.0 + 48 / 6)
    for rhs in (0.0, 1e-12, 0.5, 2.0, 1e6):
        for lhs in (rhs, np.nextafter(rhs + 1e-9 * max(1.0, rhs), np.inf),
                    rhs + 1e-9 * max(1.0, rhs), 0.9 * rhs, 2.0 * rhs + 1.0):
            assert holds_le(lhs, rhs) == make_report("x", lhs, rhs, True).holds


@st.composite
def residuals(draw):
    """An n x m D of one of three shapes: rank 1, where ||D||_2 = ||D||_F;
    flat (scaled orthonormal rows or columns), where ||D||_2^2 =
    ||D||_F^2 / min(n, m); or Gaussian, in between."""
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["rank-1", "flat", "random"]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    if kind == "rank-1":
        D = np.outer(g.standard_normal(n), g.standard_normal(m))
    elif kind == "flat":
        Q, _ = np.linalg.qr(g.standard_normal((max(n, m), min(n, m))))
        D = Q if n >= m else Q.T
    else:
        D = g.standard_normal((n, m))
    return D * scale


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(residuals())
def test_frobenius_sandwich_decides_as_the_spectral_norm(D):
    # thresholds T at, one ulp around and a little around each computed
    # sigma_1^2, ||D||_F^2 and ||D||_F^2 / k, and inside the window: the
    # sandwich's answer, or where it has none the spectral norm's, equals
    # the spectral norm's every time
    k = min(D.shape)
    s2, fro = spectral_norm(D) ** 2, frobenius_norm(D)
    f2 = fro * fro
    margin = SANDWICH_ULPS * k * np.finfo(float).eps
    thresholds = [f2 / math.sqrt(k)]
    for a in (s2, f2, f2 / k):
        thresholds += [a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)]
        thresholds += [a * (1.0 + e) for e in (-2 * margin, -margin / 2, -1e-14,
                                                1e-14, margin / 2, 2 * margin)]
    for T in thresholds:
        exact = bool(s2 <= T)
        settled = settle_by_frobenius(fro, k, lambda x: x <= T)
        assert (exact if settled is None else settled) == exact
    # T = ||D||_F^2 lies inside the widened top end: only the norm decides
    assert settle_by_frobenius(fro, k, lambda x: x <= f2) is None
