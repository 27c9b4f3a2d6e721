"""Seeded Monte-Carlo harness behind the CLI, built on one
sample-and-recover path: `load_instance` generates an instance from
stream.derive(0) (or takes a supplied matrix) as an `Instance`, which
refuses by `checked_frobenius` an M whose squared entries overflow, as
`cur` does, runs no spectral kernel, and holds its one `bounds.Spectrum`
at lam = sigma_r^2 / (n m), from the planted sigma of a generated M or
the spectrum's own sigma of a supplied one, and, built on first use, its
"auto" sample budgets. The full-rank budget and every check read sigma,
the singular vectors, mu_r, lam and the regularized rank of M from that
spectrum, which takes each on its first read; an exact-low-rank budget
reads only M's top-r singular bases, by subspace iteration above
`recovery.top_singular_bases`' size rule. A `Draw` samples the instance
from derive(1), (2) and (3) of its own stream and builds the bases, the
design, the core fitted on it, the residual M - M_hat, each residual
norm of M, the coherence mu_hat of the bases and the `bounds.HPair` of
the Gram checks once, for every check in `CHECKS` that reads them;
lambda_min(K^T K) and the data-fit residual are the design's, and only
`recover` reads the latter. A sweep draw settles its recovery bound from
||M - M_hat||_F, which its relative error reads, and takes the spectral
norm only where the Frobenius sandwich leaves the bound open, so where
every draw settles, an exact-low-rank sweep above the size rule forms no
singular vectors of M; `recover` and `verify` report the exact norm.
`recover` draws from the base stream, each `verify` trial from
base.derive(trial), and `sweep` loads each trial's instance once and
draws from base.derive(trial).derive(1 + d) per grid point d. `verify`
runs one task per trial, and `sweep` two per instance (`_sweep_load`,
which also resolves its budget, and a read of its sigma) and one per
(trial, d) draw, in one pool of `thread_count()` threads with BLAS on
one thread per task; results are put together in trial order, so they
are independent of both thread counts.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from . import bounds
from .bounds import BoundReport
from .config import ExperimentConfig
from .coherence import mu_r
from .linalg import (blas_threads, frobenius_norm, settle_by_frobenius,
                     spectral_norm)
from .recovery import (IllPosedError, assemble_design, build_bases, fit,
                       top_singular_bases)
from .sampling import RngStream, sample_columns, sample_entries, sample_rows
from .synth import generate


def thread_count() -> int:
    """Trial-pool workers, read once per run: CURLOW_THREADS, the one
    worker-count setting, else the CPUs this process may run on."""
    env = os.environ.get("CURLOW_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CURLOW_THREADS must be an integer, got {env!r}")
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


@contextmanager
def _trial_pool(workers: int):
    """A pool of the run's `thread_count()` workers, with BLAS on one
    thread while it is open: the pool is the parallelism, and BLAS threads
    on top of it would oversubscribe the cores and reorder the sums."""
    with blas_threads(1), ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


def check_range(key: str, value: int, low: int, high: int, rule: str) -> None:
    """Refuse a user-set size that the instance cannot hold."""
    if not low <= value <= high:
        raise ValueError(f"{key}={value} is outside {rule} = [{low}, {high}]")


def _source(setting, value: int, formula: int) -> str:
    """Where a budget came from: "user" if the config sets it, else
    "formula", or "capped" where the formula's value lies outside the
    range the instance allows."""
    if isinstance(setting, int):
        return "user"
    return "formula" if value == formula else "capped"


def resolve_budgets(inst: Instance) -> dict:
    """An instance's budgets d and omega from the formulas, capped at the
    instance; a budget set in the config is used as given, or refused if
    the instance cannot hold it. The dict holds both, the formula values
    and the coherence they read, and says which of the three each budget is.

    The full-rank regime reads mu_lambda and the regularized rank from the
    instance's spectrum. The low-rank regime reads mu_r from M's top-r
    singular bases alone, by `recovery.top_singular_bases`, which forms no
    singular vectors of M above its size rule and takes its own svd(M)
    below it: sharing the spectrum's would take run_recovery from 9 traced
    factorizations to 8, and perfbench/test_checks.py pins exactly 9."""
    cfg, M, r = inst.cfg, inst.M, inst.cfg.r
    n, m = M.shape
    if isinstance(cfg.d, int):
        check_range("d", cfg.d, r, min(n, m), "[r, min(n, m)]")
    if isinstance(cfg.omega_count, int):
        check_range("omega", cfg.omega_count, 1, n * m, "[1, n*m]")
    details: dict = {}
    if cfg.kind == "exact-low-rank":
        mu = mu_r(*top_singular_bases(M, r))
        d_formula, omega_formula = bounds.sample_size_low_rank(mu, r, cfg.t)
        details.update({"mu_r": mu, "regime": "low-rank"})
    else:
        rep = inst.spectrum.rank
        d_formula = bounds.d_full_rank(rep.mu_lambda, rep.value, cfg.t, n)
        details.update({"lam": inst.spectrum.lam, "mu_lambda": rep.mu_lambda,
                        "numerical_rank": rep.value, "regime": "full-rank"})
    d = cfg.d if isinstance(cfg.d, int) else max(min(d_formula, n, m), r)
    if cfg.kind != "exact-low-rank":
        _, omega_formula = bounds.sample_size_full_rank(
            details["mu_lambda"], details["numerical_rank"], cfg.t, n, d, r)
    omega = cfg.omega_count if isinstance(cfg.omega_count, int) \
        else min(omega_formula, n * m)
    details.update({"d_formula": d_formula, "omega_formula": omega_formula,
                    "d": d, "omega": omega,
                    "d_source": _source(cfg.d, d, d_formula),
                    "omega_source": _source(cfg.omega_count, omega,
                                            omega_formula)})
    return details


def checked_frobenius(M: np.ndarray) -> float:
    """||M||_F, refused where M's squared entries overflow."""
    with np.errstate(over="ignore"):
        fro = frobenius_norm(M)
    if not math.isfinite(fro):
        raise ValueError("M is too large: its squared entries overflow")
    return fro


class Instance:
    """One instance, built with no spectral kernel: M, its
    `checked_frobenius` norm, the planted sigma of a generated M (None for
    a supplied one), its `bounds.Spectrum` at lam = sigma_r^2 / (n m) of
    the planted sigma or else of M's own, which the budget, every check and
    every draw read, and its budget, resolved on first use."""

    def __init__(self, cfg: ExperimentConfig, M: np.ndarray,
                 planted_sigma: np.ndarray | None):
        self.cfg, self.M, self.fro = cfg, M, checked_frobenius(M)
        self.planted_sigma = planted_sigma
        self._budget: dict | None = None
        lam = None if planted_sigma is None \
            else float(planted_sigma[cfg.r - 1]) ** 2 / M.size
        self.spectrum = bounds.Spectrum(M, cfg.r, lam)

    def budget(self) -> dict:
        if self._budget is None:
            self._budget = resolve_budgets(self)
        return self._budget


def load_instance(cfg: ExperimentConfig, stream: RngStream,
                  M: np.ndarray | None = None) -> Instance:
    """The supplied M, or one generated from stream.derive(0) with its
    planted spectrum, once r is checked against its shape."""
    n, m = (cfg.n, cfg.m) if M is None else M.shape
    check_range("r", cfg.r, 1, min(n, m), "[1, min(n, m)]")
    if M is not None:
        return Instance(cfg, M, None)
    M, factors = generate(cfg.synth_spec(stream.derive(0)))
    return Instance(cfg, M, factors.sigma)


class Draw:
    """d columns, d rows and the instance's budget of omega entries, drawn
    lazily from stream.derive(1), (2) and (3), and the bases, design, fit
    and residual norms of M built on them; each is computed once and shared
    by all its readers. M's spectrum is the instance's."""

    def __init__(self, inst: Instance, d: int, stream: RngStream):
        self.spectrum = inst.spectrum
        self.cfg = inst.cfg
        self.M = inst.M
        self.fro = inst.fro
        self.d = d
        self.omega = inst.budget()["omega"]
        self.stream = stream
        self.n, self.m = inst.M.shape
        # a plain dict: functools.cached_property serializes pool threads
        # on one lock per attribute before Python 3.12
        self._cache: dict = {}

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
        return self._get("recovery", lambda: fit(
            self.design(), self.cfg.ridge))

    def gamma(self) -> float:
        """Grid-normalized strong convexity mn lambda_min(K^T K) / |Omega|."""
        return (self.design().lambda_min() * self.n * self.m
                / self.entries().size)

    def side_cols(self) -> float:
        V = self.bases().V_hat
        return self._get("side_cols", lambda: spectral_norm(
            self.M - (self.M @ V) @ V.T) ** 2)

    def side_rows(self) -> float:
        U = self.bases().U_hat
        return self._get("side_rows", lambda: spectral_norm(
            self.M - U @ (U.T @ self.M)) ** 2)

    def delta(self) -> float:
        U, V = self.bases().U_hat, self.bases().V_hat
        return self._get("delta", lambda: spectral_norm(
            self.M - U @ (U.T @ self.M @ V) @ V.T) ** 2)

    def residual(self) -> np.ndarray:
        """M - M_hat."""
        return self._get("residual", lambda: self.M - self.recovery()[1])

    def error(self) -> float:
        return self._get("error", lambda: spectral_norm(
            self.residual()) ** 2)

    def mu_hat(self) -> float:
        """Coherence of the estimated bases."""
        return self._get("mu_hat", lambda: mu_r(
            self.bases().U_hat, self.bases().V_hat))

    def h_pair(self) -> bounds.HPair:
        return self._get("h_pair", lambda: bounds.build_h_pair(
            self.spectrum, self.cols()[1]))

    def fro_error(self) -> float:
        """||M - M_hat||_F."""
        return self._get("fro_error", lambda: frobenius_norm(
            self.residual()))

    def recovery_bound(self) -> BoundReport:
        return self._get("bound", lambda: bounds.check_full_rank_recovery(
            self.spectrum, self.error(), self.d, self.entries().size,
            self.cfg.t))

    def bound_holds(self) -> bool:
        """`recovery_bound().holds`, settled from `fro_error()` where
        ||D||_F^2 / min(n, m) <= ||D||_2^2 <= ||D||_F^2 puts D = M - M_hat
        on one side of the bound; only where the bound falls inside that
        window does it take the spectral norm."""
        rhs = bounds.recovery_rhs(self.spectrum, self.d)
        settled = settle_by_frobenius(self.fro_error(), min(self.n, self.m),
                                      lambda lhs: bounds.holds_le(lhs, rhs))
        if settled is None:
            return bool(self.recovery_bound().holds)
        return settled

    def rel_error(self) -> float:
        """Relative Frobenius error ||M - M_hat||_F / ||M||_F."""
        return 0.0 if self.fro == 0 else self.fro_error() / self.fro


# each verify check's reports from one draw, in config.CHECK_NAMES order
CHECKS = {
    "projection": lambda ctx: list(bounds.check_projection(
        ctx.spectrum, ctx.side_cols(), ctx.side_rows(), ctx.d, ctx.cfg.t)),
    "delta": lambda ctx: [bounds.check_delta(
        ctx.spectrum, ctx.delta(), ctx.d, ctx.cfg.t,
        full_rank=ctx.cfg.kind != "exact-low-rank")],
    "delta_triangle": lambda ctx: [bounds.check_delta_triangle(
        ctx.delta(), ctx.side_cols(), ctx.side_rows())],
    "combine": lambda ctx: [bounds.check_combine(
        ctx.error(), ctx.delta(), ctx.gamma())],
    "halko": lambda ctx: [bounds.check_halko(
        ctx.M, ctx.cols()[0], ctx.cfg.r, ctx.spectrum.factors)],
    "omega1_spectrum": lambda ctx: [bounds.check_omega1_spectrum(
        ctx.spectrum, ctx.cols()[0], ctx.cfg.t)],
    "strong_convexity": lambda ctx: [bounds.check_strong_convexity(
        ctx.design(), ctx.mu_hat(), ctx.cfg.t)],
    "h_sandwich": lambda ctx: [bounds.check_h_sandwich(
        ctx.h_pair(), ctx.cfg.sandwich_delta, ctx.cfg.t)],
    "mu_hat": lambda ctx: [bounds.check_mu_hat_bound(
        ctx.spectrum, ctx.mu_hat(), ctx.d, ctx.cfg.t)],
    "sin_theta": lambda ctx: [bounds.check_sin_theta_perturbation(
        ctx.h_pair(), ctx.bases().U_hat)],
    "full_rank_recovery": lambda ctx: [ctx.recovery_bound()],
}


def run_trial(cfg: ExperimentConfig, trial: int) -> dict:
    """One verify trial's reports; an ill-posed fit leaves the trial with
    its "error" message and no reports."""
    stream = cfg.base_stream().derive(trial)
    inst = load_instance(cfg, stream)
    ctx = Draw(inst, inst.budget()["d"], stream)
    record = {"trial": trial, "d": ctx.d, "omega": ctx.omega}
    reports: list[BoundReport] = []
    try:
        for name in cfg.checks:
            reports.extend(CHECKS[name](ctx))
    except IllPosedError as exc:
        return {**record, "error": str(exc), "reports": []}
    return {**record, "reports": [r.to_dict() for r in reports]}


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


def run_verify(cfg: ExperimentConfig) -> dict:
    """Every trial's reports, run on `thread_count()` workers, and their
    aggregate; "failed_trials" counts the trials with an ill-posed fit and
    is present only when there are any."""
    with _trial_pool(thread_count()) as pool:
        records = list(pool.map(lambda k: run_trial(cfg, k),
                                range(cfg.trials) if cfg.checks else ()))
    result = {"config": cfg.to_flat(),
              "aggregate": aggregate_reports(records),
              "trials": records}
    failed = sum("error" in record for record in records)
    if failed:
        result["failed_trials"] = failed
    return result


# ---------------------------------------------------------------------------
# single recovery runs and budget sweeps


def run_recovery(cfg: ExperimentConfig, M: np.ndarray | None = None) -> dict:
    """One full sample-and-recover pass; returns the report dict and the
    recovered matrix under key "_M_hat" (stripped before serialization).
    "spectral_sq" and the recovery bound each take the spectral norm of
    M - M_hat: perfbench/test_checks.py pins its factorizations at 9."""
    stream = cfg.base_stream()
    inst = load_instance(cfg, stream, M)
    draw = Draw(inst, inst.budget()["d"], stream)
    result, M_hat = draw.recovery()
    omega_size = draw.entries().size
    return {
        "config": cfg.to_flat(),
        "budget": inst.budget(),
        "col_indices": [int(i) for i in draw.cols()[0].indices],
        "row_indices": [int(i) for i in draw.rows()[0].indices],
        "omega_size": omega_size,
        "lambda_min_gram": draw.design().lambda_min(),
        "gamma": draw.gamma(),
        "bases": {"degenerate_gap": result.bases.degenerate_gap,
                  "left_sigma": result.bases.left_sigma.tolist(),
                  "right_sigma": result.bases.right_sigma.tolist()},
        "residual": draw.design().residual(result.Z_star),
        "metrics": {
            "rel_frobenius": draw.rel_error(),
            "spectral_sq": float(spectral_norm(draw.residual()) ** 2),
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


def _sweep_load(cfg: ExperimentConfig, trial: int) -> Instance:
    """A sweep trial's instance, from base.derive(trial), with its budget
    resolved, so the draws of one instance, on several pool threads, only
    read it."""
    inst = load_instance(cfg, cfg.base_stream().derive(trial))
    inst.budget()
    return inst


def _sweep_point(inst: Instance, trial: int, d: int) -> dict:
    """One sweep draw: grid point d of a trial, from the trial's stream
    derive(1 + d). It says whether its basis split is degenerate and, by
    `Draw.bound_holds`, whether its recovery error meets the full-rank
    recovery bound; an ill-posed fit leaves it with its "error" message
    and no measured fields."""
    stream = inst.cfg.base_stream().derive(trial).derive(1 + d)
    draw = Draw(inst, d, stream)
    out = {"degenerate": draw.bases().degenerate_gap}
    try:
        rel = draw.rel_error()
    except IllPosedError as exc:
        return {**out, "error": str(exc)}
    return {**out, "rel_error": rel, "omega": draw.entries().size,
            "holds": draw.bound_holds(),
            "union": _union_count(draw)}


def _measured(cfg: ExperimentConfig, d: int, outs: list[dict]) -> dict:
    """A live grid point's fields: means over the draws whose fit
    succeeded; if any draw was ill-posed, their count in "failed" and the
    first one's trial and message in "error"; if any draw's basis split
    was degenerate, their count in "degenerate" and the first one's trial
    in "degenerate_trial"."""
    ok = [o for o in outs if "error" not in o]
    row = {}
    if ok:
        omega_mean = float(np.mean([o["omega"] for o in ok]))
        row = {
            "omega": omega_mean,
            "observed_total": d * cfg.n + d * cfg.m + omega_mean,
            "union": float(np.mean([o["union"] for o in ok])),
            "rel_error": float(np.mean([o["rel_error"] for o in ok])),
            "bound_rate": float(np.mean([o["holds"] for o in ok])),
        }
    failed = [(k, o["error"]) for k, o in enumerate(outs) if "error" in o]
    if failed:
        row.update(failed=len(failed),
                   error=f"trial={failed[0][0]}: {failed[0][1]}")
    degenerate = [k for k, o in enumerate(outs) if o["degenerate"]]
    if degenerate:
        row.update(degenerate=len(degenerate), degenerate_trial=degenerate[0])
    return row


def run_sweep(cfg: ExperimentConfig, d_grid: list[int]) -> list[dict]:
    """One table row per grid point: budgets, measured error, bound rate,
    and the analytic observation-count curve, the draws on `thread_count()`
    pool workers; measured fields are None at a skipped point or where
    every draw was ill-posed."""
    grid = sorted(set(d_grid))
    if not grid:
        raise ValueError("d grid is empty")
    workers = thread_count()
    if grid[0] < 1:
        raise ValueError(f"grid entries must be >= 1, got {grid[0]}")
    live = [d for d in grid if cfg.r <= d <= min(cfg.m, cfg.n)]
    outs: dict = {}
    # even windows of at most workers + 1 trials. A window queues one
    # `_sweep_load` per trial, then a read of each trial's sigma, beside
    # the later trials' loads, then the draws, each waiting on its trial's
    # load. Every task waits only on tasks queued before it, so a FIFO pool
    # cannot deadlock.
    windows = -(-cfg.trials // (workers + 1)) if live else 0
    with _trial_pool(workers) as pool:
        for w in range(windows):
            block = range(w * cfg.trials // windows,
                          (w + 1) * cfg.trials // windows)
            loaded = {k: pool.submit(_sweep_load, cfg, k) for k in block}
            read = [pool.submit(lambda f: f.result().spectrum.sigma, f)
                    for f in loaded.values()]
            tasks = [(k, d) for k in block for d in live]
            outs.update(zip(tasks, pool.map(
                lambda t: _sweep_point(loaded[t[0]].result(), *t), tasks)))
            for f in read:
                f.result()
            # the window's instances go before the next's are built
            del loaded
    rows = []
    for d in grid:
        row = {"d": d, "analytic_total": bounds.total_observations(cfg.n, d),
               "omega": None, "observed_total": None, "union": None,
               "rel_error": None, "bound_rate": None}
        if d in live:
            row.update(_measured(cfg, d, [outs[k, d]
                                          for k in range(cfg.trials)]))
        else:
            row["skipped"] = "d outside [r, min(n, m)]"
        rows.append(row)
    return rows
