"""Sample-size calculators and empirical checkers for the error and
concentration inequalities behind the recovery pipeline.

Every checker returns a BoundReport holding both sides of its inequality,
a holds flag with a fixed relative slack, and a premises_met flag recorded
independently, so Monte-Carlo harnesses can separate "premise not met"
from "bound violated". A check reads M's singular values and vectors from
its `Spectrum`, computed once per instance at the instance's lam, and a
number taken once per draw: a residual norm of M, such as Delta, or the
coherence mu_hat of the draw's bases. n, m, r and d come from the
objects that own them. The two Gram checks read one `HPair` per draw,
which reads H's eigenpairs from the spectrum's SVD and takes the whitened
ratio's eigenvalues once for both.
Natural logarithms throughout.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .coherence import NumericalRankReport, mu_r, numerical_rank, sin_theta
from .linalg import (
    PINV_RTOL,
    SvdFactors,
    as_matrix,
    pseudo_inverse,
    singular_values,
    spectral_norm,
    svd,
)
from .recovery import DesignSystem
from .sampling import IndexSet

HOLDS_SLACK = 1e-9
# the Gram checks' reason where an `HPair` has no ratio and no ||H^{-1}||
SINGULAR_H = "H singular to working precision"


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


def _slack(rhs: float) -> float:
    return HOLDS_SLACK * max(1.0, abs(rhs))


def holds_le(lhs: float, rhs: float) -> bool:
    """Whether lhs <= rhs within the slack: the test of every "le" report."""
    return lhs <= rhs + _slack(rhs)


def make_report(name: str, lhs: float, rhs: float, premises_met: bool,
                params: dict | None = None, sense: str = "le") -> BoundReport:
    if sense == "le":
        holds = holds_le(lhs, rhs)
    elif sense == "ge":
        holds = lhs >= rhs - _slack(rhs)
    else:
        raise ValueError(f"unknown sense {sense!r}")
    return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       holds=bool(holds), premises_met=bool(premises_met),
                       params=dict(params or {}), sense=sense)


# ---------------------------------------------------------------------------
# the instance's spectrum


class Spectrum:
    """What the checks read of an n x m instance M at rank r and
    regularization lam, by default sigma_r^2 / (mn) of M's own sigma; one
    per instance, shared by every check of every draw from it. sigma, the
    values-only `singular_values(M)`, gives sigma_r and sigma_{r+1} and is
    taken when the spectrum is built. factors is one `svd(M)`, which gives
    mu_r, the right singular vectors the selection checks read, H's
    eigenpairs an `HPair` reads, and the regularized rank and weighted
    coherence at lam (`rank`); factors, mu_r and rank are computed together
    on the first read of any of them, once, under the spectrum's own lock,
    so a reader of sigma alone, such as a settled sweep draw, never forms U
    and V. The two kernels' sigma differ in the last bits, so reading sigma
    from factors would change the outputs."""

    def __init__(self, M, r: int, lam: float | None = None):
        self.M, self.r = as_matrix(M), r
        self.n, self.m = n, m = self.M.shape
        if not 1 <= r <= min(n, m):
            raise ValueError(f"r must be in [1, {min(n, m)}], got {r}")
        self.sigma = sigma = singular_values(self.M)
        self.sigma_r = float(sigma[r - 1])
        self.sigma_r_plus_1 = float(sigma[r]) if r < sigma.size else 0.0
        self.lam = self.sigma_r**2 / (self.m * self.n) if lam is None else lam
        # a plain lock: functools.cached_property serializes pool threads
        # on one lock per attribute, across all spectra, before Python 3.12
        self._lock = threading.Lock()
        self._vectors = None  # (factors, mu_r, rank)

    def _read_vectors(self) -> tuple[SvdFactors, float, NumericalRankReport]:
        with self._lock:
            if self._vectors is None:
                f = svd(self.M)
                self._vectors = (f, mu_r(f, self.r),
                                 numerical_rank(f, self.lam))
            return self._vectors

    @property
    def factors(self) -> SvdFactors:
        return self._read_vectors()[0]

    @property
    def mu_r(self) -> float:
        return self._read_vectors()[1]

    @property
    def rank(self) -> NumericalRankReport:
        return self._read_vectors()[2]


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


def check_halko(M, col_idx: IndexSet, r: int,
                factors: SvdFactors | None = None) -> BoundReport:
    """Deterministic column-space capture bound: the squared spectral error
    of projecting M onto its selected columns is at most
    ||Sigma2||^2 + ||Sigma2 Omega2 pinv(Omega1)||^2.

    Premise: Omega1 has full row rank. Reads M's SVD from factors, such as
    an instance's `Spectrum.factors`, and takes `svd(M)` itself when none
    is given, as for a bare matrix outside any instance.
    """
    A = as_matrix(M)
    n, m = A.shape
    if col_idx.bound != m:
        raise ValueError(f"selection bound {col_idx.bound} does not match m={m}")
    if not 1 <= r <= min(n, m):
        raise ValueError(f"r must be in [1, {min(n, m)}], got {r}")
    f = svd(A) if factors is None else factors
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
                          t: float = 3.0) -> BoundReport:
    """Lower spectral bound on the d selected right-basis rows:
    lambda_min(Omega1 Omega1^T) >= d/(2m), which fails with probability at
    most fail_prob = r exp(-d/(7 mu_r r)).

    Gate: d >= 7 mu_r r (t + ln r), the same as fail_prob <= e^-t.
    """
    r, m, mu, d = spec.r, spec.m, spec.mu_r, len(col_idx.indices)
    omega1, _ = _selection_blocks(spec.factors, col_idx, r)
    gram = omega1 @ omega1.T
    lhs = float(np.linalg.eigvalsh(gram)[0]) if gram.size else 0.0
    fail_prob = r * math.exp(-d / (7.0 * mu * r))
    d_gate, _ = sample_size_low_rank(mu, r, t)
    params = {"r": r, "d": d, "m": m, "t": t, "mu_r": mu,
              "fail_prob": fail_prob, "d_gate": d_gate}
    return make_report("selection_spectrum", lhs, d / (2.0 * m), d >= d_gate,
                       params, sense="ge")


# ---------------------------------------------------------------------------
# strong convexity of the core fit


def check_strong_convexity(system: DesignSystem, mu_hat: float,
                           t: float = 3.0) -> BoundReport:
    """lambda_min(K^T K) >= |Omega|/(2mn) on the system's n x m grid, gated
    by the entry budget |Omega| >= 7 mu_hat^2 r^2 (t + 2 ln r), with mu_hat
    the coherence of the bases the design is built on."""
    size = len(system.y)
    n, m = system.shape
    rhs = size / (2.0 * m * n)
    _, gate = sample_size_low_rank(mu_hat, system.r, t)
    params = {"omega_size": size, "n": n, "m": m, "r": system.r, "t": t,
              "mu_hat": mu_hat, "omega_gate": gate}
    return make_report("strong_convexity", system.lambda_min(), rhs,
                       size >= gate, params, sense="ge")


# ---------------------------------------------------------------------------
# regularized Gram sandwich and its consequences


class HPair:
    """H = lam*I + M M^T/(mn) of the spectrum's n x m M and H_hat = lam*I +
    S S^T/(dn) of a draw's n x d column sample S, and what both Gram
    checks read of them; neither is formed. H's eigenpairs are those of
    the spectrum's svd(M) = U diag(sigma) V^T: w = lam + sigma^2/(mn),
    padded with lam to length n, nonincreasing, on U's columns and, for
    the padding, on U's complement. `eigs` are the eigenvalues of the
    whitened ratio H^{-1/2} H_hat H^{-1/2}, from one eigvalsh, with
    H^{-1/2} = lam^{-1/2} I + U diag(w_k^{-1/2} - lam^{-1/2}) U^T, and
    ratio_delta = max |eig - 1|, whose rounding error is of order eps
    sqrt(w_0 / lam). H is singular to working precision where lam <= n eps
    w_0, lam = 0 among them: a rounding-size change of M's entries can
    move H's eigenvalues by about n eps w_0, more than lam, so the ratio
    and ||H^{-1}|| are not determined by M, and eigs and ratio_delta are
    None."""

    def __init__(self, spec: Spectrum, S: np.ndarray):
        self.spec, self.S, self.d = spec, S, S.shape[1]
        n, lam, f = spec.n, spec.lam, spec.factors
        k = f.sigma.size
        self.w = np.full(n, lam)
        self.w[:k] += f.sigma**2 / (spec.m * n)
        self.singular = not lam > n * np.finfo(float).eps * self.w[0]
        self.eigs = self.ratio_delta = None
        if not self.singular:
            U, w_k = f.U, self.w[:k]
            WS = S / math.sqrt(lam) + U @ ((w_k**-0.5 - lam**-0.5)[:, None]
                                           * (U.T @ S))
            # lam H^{-1} + (H^{-1/2} S)(H^{-1/2} S)^T / (dn)
            ratio = (U * (lam / w_k - 1.0)) @ U.T + WS @ WS.T / (self.d * n)
            ratio[np.diag_indices(n)] += 1.0
            self.eigs = np.linalg.eigvalsh((ratio + ratio.T) / 2.0)
            self.ratio_delta = float(np.max(np.abs(self.eigs - 1.0)))


def build_h_pair(spec: Spectrum, sample) -> HPair:
    """The `HPair` of spec.M and its n x d column sample at spec.lam."""
    S = as_matrix(sample, "sample")
    if S.shape[0] != spec.n:
        raise ValueError(f"sample must have {spec.n} rows, got {S.shape[0]}")
    return HPair(spec, S)


def check_h_sandwich(pair: HPair, delta_target: float,
                     t: float = 3.0) -> BoundReport:
    """All eigenvalues of H^{-1/2} H_hat H^{-1/2} must sit in
    [1 - delta, 1 + delta]; reported as max |eig - 1| <= delta.

    Gate: d >= (4/delta^2)(mu(lam) r(M, lam) + 1)(t + ln n). A pair
    whose H is singular to working precision has no ratio and reports lhs
    inf and premises not met.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta_target}")
    spec, rep = pair.spec, pair.spec.rank
    d_gate = _ceil(4.0 / delta_target**2 * (rep.mu_lambda * rep.value + 1.0)
                   * (t + math.log(spec.n)))
    params = {"side": "A", "d": pair.d, "d_gate": d_gate, "t": t,
              "lam": spec.lam, "mu_lambda": rep.mu_lambda,
              "numerical_rank": rep.value}
    if pair.eigs is None:
        params["reason"] = SINGULAR_H
        return make_report("gram_sandwich", float("inf"), delta_target,
                           False, params)
    params.update({"eig_min": float(pair.eigs.min()),
                   "eig_max": float(pair.eigs.max())})
    return make_report("gram_sandwich", pair.ratio_delta, delta_target,
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


def check_sin_theta_perturbation(pair: HPair, U_hat: np.ndarray) -> BoundReport:
    """Perturbation bound on the top-r eigenspace rotation from H to H_hat,
    at the spectrum's r, in terms of the relative eigen-gap
    D_lam = min(sqrt(2)(1 - lam_{r+1}/lam_r), 1/sqrt(2)) and the relative
    perturbation D_H = eta/sqrt(1 - eta) with eta = ||H^{-1}|| ||H - H_hat||
    and H - H_hat = M M^T/(mn) - S S^T/(dn). H's top-r eigenvectors are
    M's top-r left singular vectors; U_hat spans H_hat's top-r eigenspace,
    and a draw passes its own basis U_hat.

    Gate: eta < 1 and D_lam >= D_H/2; at r = n there is no lam_{r+1}, so
    no eigen-gap, and where H is singular to working precision no
    ||H^{-1}||: in both the premises are not met. The params record the
    specialized 3*sqrt(2)*delta form, delta the pair's `ratio_delta`.
    """
    spec, w = pair.spec, pair.w
    r, n = spec.r, spec.n
    lhs = sin_theta(spec.factors.U[:, :r], U_hat)
    if r >= n:
        return make_report("subspace_perturbation", lhs, float("inf"), False,
                           {"reason": "no eigenvalue past r: no eigen-gap"})
    if pair.singular:
        return make_report("subspace_perturbation", lhs, float("inf"), False,
                           {"reason": SINGULAR_H})
    d_lam = min(math.sqrt(2.0) * (1.0 - w[r] / w[r - 1]), 1.0 / math.sqrt(2.0))
    M, S = spec.M, pair.S
    eta = float(1.0 / w[-1]) * spectral_norm(M @ M.T / (spec.m * n)
                                             - S @ S.T / (pair.d * n))
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
    delta_ratio = pair.ratio_delta
    if delta_ratio is not None:
        params["ratio_delta"] = delta_ratio
        params["specialized_rhs"] = 3.0 * math.sqrt(2.0) * delta_ratio
        params["specialized_applicable"] = bool(
            delta_ratio <= 0.5 and w[r] / w[r - 1] <= 0.5
        )
    return make_report("subspace_perturbation", lhs, rhs, premises, params)


def recovery_rhs(spec: Spectrum, d: int) -> float:
    """The full-rank recovery bound's right side 24 sigma_{r+1}^2
    (1 + (m+n)/d) on ||M - M_hat||_2^2 of a draw with column budget d."""
    return 24.0 * spec.sigma_r_plus_1**2 * (1.0 + (spec.m + spec.n) / d)


def check_full_rank_recovery(spec: Spectrum, error: float, d: int,
                             omega_size: int, t: float = 3.0) -> BoundReport:
    """End-to-end spectral recovery error ||M - M_hat||_2^2 of a draw of
    d columns and rows and omega_size entries against `recovery_rhs`, with
    n, m, sigma and the gates read from the instance's `Spectrum`.

    Premises: the spectral-gap and d gates, plus the entry budget capped at
    the grid size (the uncapped formula value is recorded in params).
    """
    n, m, r = spec.n, spec.m, spec.r
    s_r, s_next = spec.sigma_r, spec.sigma_r_plus_1
    rep = spec.rank
    d_gate, omega_formula = sample_size_full_rank(rep.mu_lambda, rep.value,
                                                  t, n, d, r)
    omega_gate = min(omega_formula, n * m)
    rhs = recovery_rhs(spec, d)
    premises = (s_r >= math.sqrt(2.0) * s_next and d >= min(d_gate, n, m)
                and omega_size >= omega_gate)
    params = {"n": n, "m": m, "r": r, "d": d, "t": t, "lam": spec.lam,
              "omega_size": omega_size, "mu_lambda": rep.mu_lambda,
              "numerical_rank": rep.value, "d_gate": d_gate,
              "omega_formula": omega_formula, "omega_gate": omega_gate,
              "sigma_r": s_r, "sigma_r_plus_1": s_next}
    return make_report("recovery_error", error, rhs, premises, params)
