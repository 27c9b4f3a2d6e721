"""Sample-size calculators and empirical checkers for the error and
concentration inequalities behind the recovery pipeline.

Every checker returns a BoundReport holding both sides of its inequality,
a holds flag with a fixed relative slack, and a premises_met flag recorded
independently, so Monte-Carlo harnesses can separate "premise not met"
from "bound violated". A check reads M's singular values and vectors from
its `Spectrum`, computed once per instance at the instance's lam, and a
number taken once per draw: a residual norm of M, such as Delta, or the
coherence mu_hat of the draw's bases. The two Gram checks read one
`HPair` per draw, which factors H once for both. Natural logarithms
throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coherence import NumericalRankReport, mu_r, numerical_rank, sin_theta
from .linalg import (
    PINV_RTOL,
    SvdFactors,
    as_matrix,
    eigh_descending,
    pseudo_inverse,
    singular_values,
    spectral_norm,
    svd,
)
from .recovery import DesignSystem, strong_convexity_gamma
from .sampling import IndexSet

HOLDS_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One inequality check: computed side, bound side, and flags.

    sense "le" checks lhs <= rhs, sense "ge" checks lhs >= rhs, both with
    the same relative slack on the bound side.
    """

    name: str
    lhs: float
    rhs: float
    holds: bool
    premises_met: bool
    params: dict = field(default_factory=dict)
    sense: str = "le"

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "sense": self.sense, "holds": self.holds,
                "premises_met": self.premises_met, "params": self.params}


def make_report(name: str, lhs: float, rhs: float, premises_met: bool,
                params: dict | None = None, sense: str = "le") -> BoundReport:
    slack = HOLDS_SLACK * max(1.0, abs(rhs))
    if sense == "le":
        holds = lhs <= rhs + slack
    elif sense == "ge":
        holds = lhs >= rhs - slack
    else:
        raise ValueError(f"unknown sense {sense!r}")
    return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       holds=bool(holds), premises_met=bool(premises_met),
                       params=dict(params or {}), sense=sense)


# ---------------------------------------------------------------------------
# the instance's spectrum


@dataclass(frozen=True)
class Spectrum:
    """What the checks read of an n x m instance M at rank r and the
    instance's regularization lam. factors is one `svd(M)`, which gives
    mu_r, the right singular vectors the selection checks read, and the
    regularized rank and weighted coherence at lam (`rank`). sigma is the
    values-only `singular_values(M)`, which gives sigma_r and sigma_{r+1}.
    The two kernels' sigma differ in the last bits, so reading sigma from
    factors would change the outputs."""

    r: int
    n: int
    m: int
    sigma: np.ndarray
    factors: SvdFactors
    sigma_r: float
    sigma_r_plus_1: float
    lam: float
    mu_r: float
    rank: NumericalRankReport


def spectrum(M, r: int, lam: float | None = None) -> Spectrum:
    """The `Spectrum` of M at rank r and regularization lam, by default
    sigma_r^2 / (mn) of M's own sigma; computed once per instance and
    shared by every check of every draw from it."""
    A = as_matrix(M)
    n, m = A.shape
    sig = singular_values(A)
    f = svd(A)
    s_r = float(sig[r - 1])
    s_next = float(sig[r]) if r < sig.size else 0.0
    if lam is None:
        lam = s_r**2 / (m * n)
    return Spectrum(r=r, n=n, m=m, sigma=sig, factors=f, sigma_r=s_r,
                    sigma_r_plus_1=s_next, lam=lam, mu_r=mu_r(f, r),
                    rank=numerical_rank(f, lam))


# ---------------------------------------------------------------------------
# sample-size calculators


def _ceil(value: float) -> int:
    """A sample-size formula's value rounded up, refused if not finite."""
    if not math.isfinite(value):
        raise ValueError(f"sample-size formula is not finite: {value}")
    return math.ceil(value)


def sample_size_low_rank(mu: float, r: int, t: float) -> tuple[int, int]:
    """Column/row budget and entry budget sufficient for exact recovery of
    a rank-r matrix with coherence mu at confidence parameter t."""
    if mu < 1.0 or r < 1 or t <= 0:
        raise ValueError("need mu >= 1, r >= 1, t > 0")
    d_min = _ceil(7.0 * mu * r * (t + math.log(r)))
    omega_min = _ceil(7.0 * mu**2 * r**2 * (t + 2.0 * math.log(r)))
    return d_min, omega_min


def d_full_rank(mu_l: float, r_num: float, t: float, n: int) -> int:
    """Column budget 16 (mu_l r_num + 1)(t + ln n) for numerically low-rank
    inputs with weighted coherence mu_l and regularized rank r_num."""
    return _ceil(16.0 * (mu_l * r_num + 1.0) * (t + math.log(n)))


def sample_size_full_rank(mu_l: float, r_num: float, t: float, n: int,
                          d: int, r: int) -> tuple[int, int]:
    """`d_full_rank` and the entry budget, which depends on the column
    budget d actually used."""
    if min(mu_l, r_num, t, n, d, r) <= 0:
        raise ValueError("all arguments must be positive")
    core = mu_l * r_num
    d_min = d_full_rank(mu_l, r_num, t, n)
    inner = 2.0 * core + 72.0 * (n / d) * (core + 1.0) * (t + math.log(n))
    try:
        omega_min = _ceil(7.0 * inner**2 * (t + 2.0 * math.log(r)))
    except OverflowError:  # inner**2 past the largest float
        raise ValueError(f"entry-budget formula overflows at t={t}") from None
    return d_min, omega_min


def optimal_d(n: int) -> int:
    """Column budget balancing d*n against n^2/d^2, to the nearest integer."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return max(1, int(round(float(np.cbrt(n)))))


def total_observations(n: int, d: int) -> float:
    """Asymptotic observation count d*n + n^2/d^2 for square matrices."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return float(d) * n + float(n) ** 2 / float(d) ** 2


# ---------------------------------------------------------------------------
# projection-error family


def check_projection(spec: Spectrum, side_cols: float, side_rows: float,
                     d: int, t: float = 3.0):
    """Projection errors of both estimated bases, side_cols =
    ||M - M V V^T||_2^2 and side_rows = ||M - U U^T M||_2^2, against the
    sigma_{r+1}-scaled budgets (1 + 2m/d) and (1 + 2n/d).

    Returns (column-side report, row-side report).
    """
    r, s_tail, mu = spec.r, spec.sigma_r_plus_1, spec.mu_r
    d_gate, _ = sample_size_low_rank(mu, r, t)
    premises = d >= d_gate
    params = {"n": spec.n, "m": spec.m, "r": r, "d": d, "t": t, "mu_r": mu,
              "d_gate": d_gate, "sigma_r_plus_1": s_tail}
    rhs_v = s_tail**2 * (1.0 + 2.0 * spec.m / d)
    rhs_u = s_tail**2 * (1.0 + 2.0 * spec.n / d)
    return (make_report("projection_error_cols", side_cols, rhs_v, premises, params),
            make_report("projection_error_rows", side_rows, rhs_u, premises, params))


def check_delta(spec: Spectrum, delta: float, d: int, t: float = 3.0,
                full_rank: bool = False) -> BoundReport:
    """Two-sided projection error Delta = ||M - P_U M P_V||_2^2 against
    4 sigma_{r+1}^2 (1 + (m+n)/d).

    The low-rank gate requires d >= 7 mu(r) r (t + ln r); with full_rank
    the gate is d >= 14 mu(lam) r(M, lam) (t + ln r) at lam = sigma_r^2/mn.
    """
    n, m, r, s_tail = spec.n, spec.m, spec.r, spec.sigma_r_plus_1
    params = {"n": n, "m": m, "r": r, "d": d, "t": t,
              "sigma_r_plus_1": s_tail, "full_rank": full_rank}
    if full_rank:
        rep = spec.rank
        d_gate = _ceil(14.0 * rep.mu_lambda * rep.value * (t + math.log(r)))
        params.update({"lam": spec.lam, "mu_lambda": rep.mu_lambda,
                       "numerical_rank": rep.value, "d_gate": d_gate})
    else:
        d_gate, _ = sample_size_low_rank(spec.mu_r, r, t)
        params.update({"mu_r": spec.mu_r, "d_gate": d_gate})
    rhs = 4.0 * s_tail**2 * (1.0 + (m + n) / d)
    return make_report("delta_bound", delta, rhs, d >= d_gate, params)


def check_delta_triangle(delta: float, side_cols: float,
                         side_rows: float) -> BoundReport:
    """Proof-step identity: Delta never exceeds twice the sum of the
    one-sided projection errors. Holds unconditionally."""
    return make_report("delta_triangle", delta,
                       2.0 * side_cols + 2.0 * side_rows, True,
                       {"side_cols": side_cols, "side_rows": side_rows})


def check_combine(error: float, delta: float, gamma: float) -> BoundReport:
    """Recovery error ||M - M_hat||_2^2 against 2(Delta + Delta/gamma), with
    gamma the grid-normalized strong convexity mn*lambda_min(K^T K)/|Omega|.

    Premise: gamma >= 1/2.
    """
    if gamma <= 0:
        return make_report("error_combine", error, float("inf"), False,
                           {"delta": delta, "gamma": gamma})
    rhs = 2.0 * (delta + delta / gamma)
    return make_report("error_combine", error, rhs, gamma >= 0.5,
                       {"delta": delta, "gamma": gamma})


# ---------------------------------------------------------------------------
# column-selection family


def _selection_blocks(f: SvdFactors, col_idx: IndexSet, r: int):
    """V1^T S and V2^T S for the canonical selection S of the given columns
    of the matrix with SVD f, V1 its top-r right singular vectors and V2
    the rest."""
    idx = np.asarray(col_idx.indices)
    return f.V[idx, :r].T, f.V[idx, r:].T


def check_halko(M, col_idx: IndexSet, r: int) -> BoundReport:
    """Deterministic column-space capture bound: the squared spectral error
    of projecting M onto its selected columns is at most
    ||Sigma2||^2 + ||Sigma2 Omega2 pinv(Omega1)||^2.

    Premise: Omega1 has full row rank. Takes M and factors it itself, not
    a `Spectrum`, because it also serves bare matrices outside any instance.
    """
    A = as_matrix(M)
    n, m = A.shape
    if col_idx.bound != m:
        raise ValueError(f"selection bound {col_idx.bound} does not match m={m}")
    if not 1 <= r <= min(n, m):
        raise ValueError(f"r must be in [1, {min(n, m)}], got {r}")
    f = svd(A)
    omega1, omega2 = _selection_blocks(f, col_idx, r)
    sigma2 = f.sigma[r:]
    d = len(col_idx.indices)
    sv1 = singular_values(omega1) if omega1.size else np.array([])
    full_rank = sv1.size == r and float(sv1[-1]) > PINV_RTOL * max(float(sv1[0]), 1.0)
    Y = A[:, np.asarray(col_idx.indices)]
    fy = svd(Y)
    keep = fy.sigma > PINV_RTOL * (fy.sigma[0] if fy.sigma[0] > 0 else 1.0)
    Q = fy.U[:, keep]
    lhs = spectral_norm(A - Q @ (Q.T @ A)) ** 2
    tail_norm = float(sigma2[0]) if sigma2.size else 0.0
    if sigma2.size and omega1.size:
        cross = (sigma2[:, None] * omega2) @ pseudo_inverse(omega1)
        cross_norm = spectral_norm(cross) if cross.size else 0.0
    else:
        cross_norm = 0.0
    rhs = tail_norm**2 + cross_norm**2
    params = {"r": r, "d": d, "sigma_min_omega1": float(sv1[-1]) if sv1.size else 0.0}
    return make_report("column_space_capture", lhs, rhs, full_rank, params)


def check_omega1_spectrum(spec: Spectrum, col_idx: IndexSet,
                          d: int) -> BoundReport:
    """Lower spectral bound on the selected right-basis rows:
    lambda_min(Omega1 Omega1^T) >= d/(2m)."""
    r, m, mu = spec.r, spec.m, spec.mu_r
    omega1, _ = _selection_blocks(spec.factors, col_idx, r)
    gram = omega1 @ omega1.T
    lhs = float(np.linalg.eigvalsh(gram)[0]) if gram.size else 0.0
    fail_prob = r * math.exp(-d / (7.0 * mu * r))
    params = {"r": r, "d": d, "m": m, "mu_r": mu, "fail_prob": fail_prob}
    return make_report("selection_spectrum", lhs, d / (2.0 * m), True,
                       params, sense="ge")


# ---------------------------------------------------------------------------
# strong convexity of the core fit


def check_strong_convexity(system: DesignSystem, n: int, m: int,
                           mu_hat: float, t: float = 3.0) -> BoundReport:
    """lambda_min(K^T K) >= |Omega|/(2mn), gated by the entry budget
    |Omega| >= 7 mu_hat^2 r^2 (t + 2 ln r), with mu_hat the coherence of
    the bases the design is built on."""
    size = len(system.y)
    lhs = strong_convexity_gamma(system)
    rhs = size / (2.0 * m * n)
    gate = _ceil(7.0 * mu_hat**2 * system.r**2
                 * (t + 2.0 * math.log(system.r)))
    params = {"omega_size": size, "n": n, "m": m, "r": system.r, "t": t,
              "mu_hat": mu_hat, "omega_gate": gate}
    return make_report("strong_convexity", lhs, rhs, size >= gate, params,
                       sense="ge")


# ---------------------------------------------------------------------------
# regularized Gram sandwich and its consequences


class HPair:
    """H = lam*I + M M^T/(mn), its column-sampled counterpart H_hat, and
    what both Gram checks read of them: H's eigendecomposition (w
    nonincreasing, Q) and the whitened ratio H^{-1/2} H_hat H^{-1/2}, which
    is None when lam = 0, where H has the rank of M, or when H's smallest
    computed eigenvalue is not positive. d is the draw's; lam and the
    gate's coherence and rank at lam are the instance's."""

    def __init__(self, H: np.ndarray, H_hat: np.ndarray, lam: float, d: int,
                 mu_lambda: float, rank_value: float):
        self.H, self.H_hat = H, H_hat
        self.lam, self.d = lam, d
        self.mu_lambda, self.rank_value = mu_lambda, rank_value
        self.w, self.Q = eigh_descending(H)
        self.ratio = None
        if lam > 0 and self.w[-1] > 0:
            inv_sqrt = (self.Q * (self.w**-0.5)) @ self.Q.T
            self.ratio = inv_sqrt @ H_hat @ inv_sqrt


def build_h_pair(spec: Spectrum, M, sample) -> HPair:
    """The `HPair` of M and its n x d column sample at the spectrum's lam,
    with the gate's rank and coherence the spectrum's."""
    A = as_matrix(M)
    S = as_matrix(sample, "sample")
    n, m = A.shape
    d = S.shape[1]
    if S.shape[0] != n:
        raise ValueError(f"sample must have {n} rows, got {S.shape[0]}")
    lam = spec.lam
    H = lam * np.eye(n) + A @ A.T / (m * n)
    H_hat = lam * np.eye(n) + S @ S.T / (d * n)
    return HPair(H, H_hat, lam, d, spec.rank.mu_lambda, spec.rank.value)


def check_h_sandwich(pair: HPair, delta_target: float,
                     t: float = 3.0) -> BoundReport:
    """All eigenvalues of H^{-1/2} H_hat H^{-1/2} must sit in
    [1 - delta, 1 + delta]; reported as max |eig - 1| <= delta.

    Gate: d >= (4/delta^2)(mu(lam) r(M, lam) + 1)(t + ln n). A pair
    with no ratio, where H is singular at lam = 0 or lam lies below the
    rounding error of ||H||, reports lhs inf and premises not met.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta_target}")
    d_gate = _ceil(4.0 / delta_target**2
                   * (pair.mu_lambda * pair.rank_value + 1.0)
                   * (t + math.log(pair.H.shape[0])))
    params = {"side": "A", "d": pair.d, "d_gate": d_gate, "t": t,
              "lam": pair.lam, "mu_lambda": pair.mu_lambda,
              "numerical_rank": pair.rank_value}
    if pair.ratio is None:
        params["reason"] = "H not positive definite"
        return make_report("gram_sandwich", float("inf"), delta_target,
                           False, params)
    eigs = np.linalg.eigvalsh((pair.ratio + pair.ratio.T) / 2.0)
    lhs = float(np.max(np.abs(eigs - 1.0)))
    params.update({"eig_min": float(eigs.min()), "eig_max": float(eigs.max())})
    return make_report("gram_sandwich", lhs, delta_target,
                       pair.d >= d_gate, params)


def check_mu_hat_bound(spec: Spectrum, mu_hat: float, d: int,
                       t: float = 3.0) -> BoundReport:
    """Estimated-basis coherence mu_hat against 2 r(M,lam)/r * mu(lam) +
    18 n delta^2 / r with delta^2 = (4/d)(mu(lam) r(M,lam) + 1)(t + ln n),
    at the spectrum's lam.

    Gates: spectral gap sigma_r >= sqrt(2) sigma_{r+1} and
    d >= 16 (mu(lam) r(M,lam) + 1)(t + ln n).
    """
    n, m, r = spec.n, spec.m, spec.r
    s_r, s_next = spec.sigma_r, spec.sigma_r_plus_1
    rep = spec.rank
    core = rep.mu_lambda * rep.value
    delta_sq = 4.0 / d * (core + 1.0) * (t + math.log(n))
    rhs = 2.0 * rep.value / r * rep.mu_lambda + 18.0 * n * delta_sq / r
    d_gate = d_full_rank(rep.mu_lambda, rep.value, t, n)
    premises = s_r >= math.sqrt(2.0) * s_next and d >= d_gate
    params = {"n": n, "m": m, "r": r, "d": d, "t": t, "lam": spec.lam,
              "mu_lambda": rep.mu_lambda, "numerical_rank": rep.value,
              "delta_sq": delta_sq, "d_gate": d_gate, "sigma_r": s_r,
              "sigma_r_plus_1": s_next}
    return make_report("basis_coherence", mu_hat, rhs, premises, params)


def check_sin_theta_perturbation(pair: HPair, r: int) -> BoundReport:
    """Perturbation bound on the top-r eigenspace rotation from H to H_hat,
    in terms of the relative eigen-gap
    D_lam = min(sqrt(2)(1 - lam_{r+1}/lam_r), 1/sqrt(2)) and the relative
    perturbation D_H = eta/sqrt(1 - eta) with eta = ||H^{-1}|| ||H - H_hat||.

    Gate: eta < 1 and D_lam >= D_H/2. The params record the specialized
    3*sqrt(2)*delta form computed from the pair's whitened ratio.
    """
    n = pair.H.shape[0]
    if not 1 <= r < n:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    w, Q = pair.w, pair.Q
    _, Qt = eigh_descending(pair.H_hat)
    lhs = sin_theta(Q[:, :r], Qt[:, :r])
    abs_w = np.abs(w)
    if abs_w.min() == 0.0 or w[r - 1] <= 0.0:
        return make_report("subspace_perturbation", lhs, float("inf"), False,
                           {"reason": "H singular or top eigenvalue nonpositive"})
    d_lam = min(math.sqrt(2.0) * (1.0 - w[r] / w[r - 1]), 1.0 / math.sqrt(2.0))
    eta = float(1.0 / abs_w.min()) * spectral_norm(pair.H - pair.H_hat)
    params = {"r": r, "eta": eta, "d_lambda": d_lam,
              "lam_r": float(w[r - 1]), "lam_r_plus_1": float(w[r])}
    if eta >= 1.0:
        return make_report("subspace_perturbation", lhs, float("inf"),
                           False, params)
    d_h = eta / math.sqrt(1.0 - eta)
    params["d_h"] = d_h
    premises = d_lam >= d_h / 2.0
    denom = d_lam - d_h / 2.0
    if denom <= 0.0:
        rhs = float("inf")
    else:
        rhs = d_h / denom * (1.0 + d_h * d_lam / 16.0)
    if pair.ratio is not None:
        delta_ratio = spectral_norm(pair.ratio - np.eye(n))
        params["ratio_delta"] = delta_ratio
        params["specialized_rhs"] = 3.0 * math.sqrt(2.0) * delta_ratio
        params["specialized_applicable"] = bool(
            delta_ratio <= 0.5 and w[r] / w[r - 1] <= 0.5
        )
    return make_report("subspace_perturbation", lhs, rhs, premises, params)


def check_full_rank_recovery(spec: Spectrum, error: float, d: int,
                             run_params: dict) -> BoundReport:
    """End-to-end spectral recovery error ||M - M_hat||_2^2 of a draw
    against 24 sigma_{r+1}^2 (1 + (m+n)/d), with n, m, sigma and the gates
    read from the instance's `Spectrum`.

    run_params must carry omega_size and may carry t (default 3). Premises:
    the spectral-gap and d gates, plus the entry budget capped at the grid
    size (the uncapped formula value is recorded in params).
    """
    n, m, r = spec.n, spec.m, spec.r
    s_r, s_next = spec.sigma_r, spec.sigma_r_plus_1
    rep = spec.rank
    omega_size = int(run_params["omega_size"])
    t = float(run_params.get("t", 3.0))
    d_gate, omega_formula = sample_size_full_rank(rep.mu_lambda, rep.value,
                                                  t, n, d, r)
    omega_gate = min(omega_formula, n * m)
    rhs = 24.0 * s_next**2 * (1.0 + (m + n) / d)
    premises = (s_r >= math.sqrt(2.0) * s_next and d >= min(d_gate, n, m)
                and omega_size >= omega_gate)
    params = {"n": n, "m": m, "r": r, "d": d, "t": t, "lam": spec.lam,
              "omega_size": omega_size, "mu_lambda": rep.mu_lambda,
              "numerical_rank": rep.value, "d_gate": d_gate,
              "omega_formula": omega_formula, "omega_gate": omega_gate,
              "sigma_r": s_r, "sigma_r_plus_1": s_next}
    return make_report("recovery_error", error, rhs, premises, params)
