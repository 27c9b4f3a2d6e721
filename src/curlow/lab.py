"""Seeded Monte-Carlo harness behind the CLI, built on one
sample-and-recover path: `load_instance` generates an instance from
stream.derive(0) (or takes a supplied matrix) and resolves its "auto"
sample budgets from measured coherence; a `Draw` samples it from
derive(1), (2) and (3) of its own stream and builds the bases, design and
recovery. `recover` draws from the base stream, each `verify` trial from
base.derive(trial), and `sweep` loads each trial's instance once and draws
from base.derive(trial).derive(1 + d) per grid point d. Trials run in
parallel keyed by trial index, so results are independent of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds
from .bounds import BoundReport
from .config import ExperimentConfig
from .coherence import mu_r, numerical_rank
from .linalg import frobenius_norm, spectral_norm, svd
from .recovery import (
    RecoveryInputs,
    assemble_design,
    build_bases,
    recover,
)
from .sampling import RngStream, sample_columns, sample_entries, sample_rows
from .synth import generate


def thread_count() -> int:
    env = os.environ.get("CURLOW_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CURLOW_THREADS must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class Budget:
    """Resolved sample sizes for one instance, with the raw formula values
    kept for reporting (budgets are capped at the instance dimensions)."""

    d: int
    omega: int
    details: dict


def resolve_budgets(cfg: ExperimentConfig, M: np.ndarray,
                    sigma: np.ndarray) -> Budget:
    n, m = M.shape
    r = cfg.r
    details: dict = {}
    if cfg.kind == "exact-low-rank":
        mu = mu_r(M, r).mu
        d_formula, omega_formula = bounds.sample_size_low_rank(mu, r, cfg.t)
        details.update({"mu_r": mu, "regime": "low-rank"})
    else:
        lam = float(sigma[r - 1]) ** 2 / (m * n)
        rep = numerical_rank(M, lam)
        d_formula = math.ceil(16.0 * (rep.mu_lambda * rep.value + 1.0)
                              * (cfg.t + math.log(n)))
        details.update({"lam": lam, "mu_lambda": rep.mu_lambda,
                        "numerical_rank": rep.value, "regime": "full-rank"})
    d = cfg.d if isinstance(cfg.d, int) else min(d_formula, n, m)
    d = max(d, r)
    if cfg.kind != "exact-low-rank":
        _, omega_formula = bounds.sample_size_full_rank(
            details["mu_lambda"], details["numerical_rank"], cfg.t, n, d, r)
    omega = cfg.omega_count if isinstance(cfg.omega_count, int) \
        else min(omega_formula, n * m)
    details.update({"d_formula": d_formula, "omega_formula": omega_formula,
                    "d": d, "omega": omega})
    return Budget(d=d, omega=min(omega, n * m), details=details)


def load_instance(cfg: ExperimentConfig, stream: RngStream,
                  M: np.ndarray | None = None,
                  sigma: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, Budget]:
    """The instance M, its singular values and its budget. Without a
    supplied M the instance is generated from stream.derive(0)."""
    if M is None:
        M, factors = generate(cfg.synth_spec(stream.derive(0)))
        sigma = factors.sigma
    elif sigma is None:
        sigma = svd(M).sigma
    return M, sigma, resolve_budgets(cfg, M, sigma)


class Draw:
    """d columns, d rows and omega entries of one instance, drawn lazily
    from stream.derive(1), (2) and (3), and the bases, design and recovery
    built on them; each is computed once and shared by all its readers."""

    def __init__(self, cfg: ExperimentConfig, M: np.ndarray,
                 sigma: np.ndarray, d: int, omega: int, stream: RngStream):
        self.cfg = cfg
        self.M = M
        self.sigma = sigma
        self.d = d
        self.omega = omega
        self.stream = stream
        self.n, self.m = M.shape
        # a plain dict: functools.cached_property serializes pool threads
        # on one lock per attribute before Python 3.12
        self._cache: dict = {}

    @property
    def lam(self) -> float:
        return float(self.sigma[self.cfg.r - 1]) ** 2 / (self.n * self.m)

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def cols(self):
        return self._get("cols", lambda: sample_columns(
            self.M, self.d, self.stream.derive(1)))

    def rows(self):
        return self._get("rows", lambda: sample_rows(
            self.M, self.d, self.stream.derive(2)))

    def entries(self):
        return self._get("entries", lambda: sample_entries(
            self.M, self.omega, self.stream.derive(3)))

    def bases(self):
        return self._get("bases", lambda: build_bases(
            self.cols()[1], self.rows()[1], self.cfg.r))

    def design(self):
        return self._get("design", lambda: assemble_design(
            self.bases(), self.entries()))

    def recovery(self):
        return self._get("recovery", lambda: recover(RecoveryInputs(
            A=self.cols()[1], B=self.rows()[1], omega=self.entries(),
            r=self.cfg.r), ridge=self.cfg.ridge))

    def h_pair(self):
        return self._get("h_pair", lambda: bounds.build_h_pair(
            self.M, self.cols()[1], "A", self.lam))

    def recovery_bound(self) -> BoundReport:
        return self._get("bound", lambda: bounds.check_full_rank_recovery(
            self.M, self.recovery()[0], self.cfg.r, self.d,
            {"omega_size": self.entries().size, "t": self.cfg.t}))

    def score(self) -> tuple[float, np.ndarray]:
        """Relative Frobenius error of the recovery and the residual
        M - M_hat."""
        diff = self.M - self.recovery()[1]
        denom = frobenius_norm(self.M)
        rel = 0.0 if denom == 0 else float(frobenius_norm(diff) / denom)
        return rel, diff


def _run_projection(ctx: Draw) -> list[BoundReport]:
    b = ctx.bases()
    rep_v, rep_u = bounds.check_projection(ctx.M, b.V_hat, b.U_hat,
                                           ctx.cfg.r, ctx.d, ctx.cfg.t)
    return [rep_v, rep_u]


def _run_delta(ctx: Draw) -> list[BoundReport]:
    full = ctx.cfg.kind != "exact-low-rank"
    return [bounds.check_delta(ctx.M, ctx.bases(), ctx.cfg.r, ctx.d,
                               ctx.cfg.t, full_rank=full)]


def _run_delta_triangle(ctx: Draw) -> list[BoundReport]:
    return [bounds.check_delta_triangle(ctx.M, ctx.bases())]


def _run_combine(ctx: Draw) -> list[BoundReport]:
    result, M_hat = ctx.recovery()
    full = ctx.cfg.kind != "exact-low-rank"
    delta_rep = bounds.check_delta(ctx.M, result.bases, ctx.cfg.r,
                                   ctx.d, ctx.cfg.t, full_rank=full)
    gamma = result.lambda_min_KtK * ctx.n * ctx.m / ctx.entries().size
    return [bounds.check_combine(ctx.M, M_hat, delta_rep.lhs, gamma)]


def _run_halko(ctx: Draw) -> list[BoundReport]:
    idx, _ = ctx.cols()
    return [bounds.check_halko(ctx.M, idx, ctx.cfg.r)]


def _run_omega1(ctx: Draw) -> list[BoundReport]:
    idx, _ = ctx.cols()
    return [bounds.check_omega1_spectrum(ctx.M, idx, ctx.cfg.r, ctx.d)]


def _run_strong_convexity(ctx: Draw) -> list[BoundReport]:
    return [bounds.check_strong_convexity(ctx.design(), ctx.n, ctx.m,
                                          bases=ctx.bases(), t=ctx.cfg.t)]


def _run_h_sandwich(ctx: Draw) -> list[BoundReport]:
    return [bounds.check_h_sandwich(ctx.h_pair(), ctx.cfg.sandwich_delta,
                                    ctx.cfg.t)]


def _run_mu_hat(ctx: Draw) -> list[BoundReport]:
    return [bounds.check_mu_hat_bound(ctx.M, ctx.bases(), ctx.cfg.r, ctx.lam,
                                      ctx.d, ctx.cfg.t)]


def _run_sin_theta(ctx: Draw) -> list[BoundReport]:
    pair = ctx.h_pair()
    return [bounds.check_sin_theta_perturbation(pair.H, pair.H_hat, ctx.cfg.r)]


def _run_full_rank_recovery(ctx: Draw) -> list[BoundReport]:
    return [ctx.recovery_bound()]


_RUNNERS = {
    "projection": _run_projection,
    "delta": _run_delta,
    "delta_triangle": _run_delta_triangle,
    "combine": _run_combine,
    "halko": _run_halko,
    "omega1_spectrum": _run_omega1,
    "strong_convexity": _run_strong_convexity,
    "h_sandwich": _run_h_sandwich,
    "mu_hat": _run_mu_hat,
    "sin_theta": _run_sin_theta,
    "full_rank_recovery": _run_full_rank_recovery,
}


def run_trial(cfg: ExperimentConfig, trial: int) -> dict:
    stream = cfg.base_stream().derive(trial)
    M, sigma, budget = load_instance(cfg, stream)
    ctx = Draw(cfg, M, sigma, budget.d, budget.omega, stream)
    reports: list[BoundReport] = []
    for name in cfg.checks:
        reports.extend(_RUNNERS[name](ctx))
    return {"trial": trial, "d": budget.d, "omega": budget.omega,
            "reports": [r.to_dict() for r in reports]}


def aggregate_reports(trial_records: list[dict]) -> dict:
    agg: dict = {}
    for record in trial_records:
        for rep in record["reports"]:
            slot = agg.setdefault(rep["name"], {
                "count": 0, "premises_met": 0,
                "holds": 0, "holds_given_premises": 0,
            })
            slot["count"] += 1
            slot["holds"] += int(rep["holds"])
            if rep["premises_met"]:
                slot["premises_met"] += 1
                slot["holds_given_premises"] += int(rep["holds"])
    for slot in agg.values():
        met = slot["premises_met"]
        slot["holds_rate"] = slot["holds_given_premises"] / met if met else None
    return agg


def run_verify(cfg: ExperimentConfig, threads: int | None = None) -> dict:
    workers = threads if threads is not None else thread_count()
    if cfg.checks:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda k: run_trial(cfg, k),
                                    range(cfg.trials)))
    else:
        records = []
    return {"config": cfg.to_flat(),
            "aggregate": aggregate_reports(records),
            "trials": records}


# ---------------------------------------------------------------------------
# single recovery runs and budget sweeps


def run_recovery(cfg: ExperimentConfig, M: np.ndarray | None = None,
                 sigma: np.ndarray | None = None) -> dict:
    """One full sample-and-recover pass; returns the report dict and the
    recovered matrix under key "_M_hat" (stripped before serialization)."""
    stream = cfg.base_stream()
    M, sigma, budget = load_instance(cfg, stream, M, sigma)
    draw = Draw(cfg, M, sigma, budget.d, budget.omega, stream)
    result, M_hat = draw.recovery()
    rel, diff = draw.score()
    omega_size = draw.entries().size
    return {
        "config": cfg.to_flat(),
        "budget": budget.details,
        "col_indices": [int(i) for i in draw.cols()[0].indices],
        "row_indices": [int(i) for i in draw.rows()[0].indices],
        "omega_size": omega_size,
        "lambda_min_gram": result.lambda_min_KtK,
        "gamma": result.lambda_min_KtK * draw.n * draw.m / omega_size,
        "residual": result.residual,
        "metrics": {
            "rel_frobenius": rel,
            "spectral_sq": float(spectral_norm(diff) ** 2),
            "recovery_bound": draw.recovery_bound().to_dict(),
        },
        "_M_hat": M_hat,
    }


def _union_count(draw: Draw) -> int:
    omega, d = draw.entries(), draw.d
    in_cols = np.isin(omega.cols, draw.cols()[0].indices)
    in_rows = np.isin(omega.rows, draw.rows()[0].indices)
    overlap = int(np.count_nonzero(in_cols | in_rows))
    return d * draw.n + d * draw.m - d * d + omega.size - overlap


def _sweep_point(cfg: ExperimentConfig, trial: int,
                 grid: list[int]) -> dict[int, dict]:
    """One sweep trial: the instance and its budget once, then a draw from
    stream.derive(1 + d) for each grid point d in order."""
    stream = cfg.base_stream().derive(trial)
    M, sigma, budget = load_instance(cfg, stream)
    outs = {}
    for d in grid:
        draw = Draw(cfg, M, sigma, d, budget.omega, stream.derive(1 + d))
        outs[d] = {"rel_error": draw.score()[0], "omega": draw.entries().size,
                   "holds": bool(draw.recovery_bound().holds),
                   "union": _union_count(draw)}
    return outs


def run_sweep(cfg: ExperimentConfig, d_grid: list[int],
              threads: int | None = None) -> list[dict]:
    """One table row per grid point: budgets, measured error, bound rate,
    and the analytic observation-count curve."""
    grid = sorted(set(d_grid))
    if not grid:
        raise ValueError("d grid is empty")
    workers = threads if threads is not None else thread_count()
    if grid[0] < 1:
        raise ValueError(f"grid entries must be >= 1, got {grid[0]}")
    live = [d for d in grid if cfg.r <= d <= min(cfg.m, cfg.n)]
    trials = []
    if live:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(lambda k: _sweep_point(cfg, k, live),
                                   range(cfg.trials)))
    rows = []
    for d in grid:
        row = {"d": d, "analytic_total": bounds.total_observations(cfg.n, d)}
        if d not in live:
            row.update({"omega": None, "observed_total": None, "union": None,
                        "rel_error": None, "bound_rate": None,
                        "skipped": "d outside [r, min(n, m)]"})
            rows.append(row)
            continue
        outs = [t[d] for t in trials]
        omega_mean = float(np.mean([o["omega"] for o in outs]))
        row.update({
            "omega": omega_mean,
            "observed_total": d * cfg.n + d * cfg.m + omega_mean,
            "union": float(np.mean([o["union"] for o in outs])),
            "rel_error": float(np.mean([o["rel_error"] for o in outs])),
            "bound_rate": float(np.mean([o["holds"] for o in outs])),
        })
        rows.append(row)
    return rows
