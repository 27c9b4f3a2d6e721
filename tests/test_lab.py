import functools
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlow import bounds, lab, linalg, recovery
from curlow.bounds import sample_size_low_rank, total_observations
from curlow.cli import main
from curlow.coherence import mu_r, numerical_rank, sin_theta
from curlow.config import CHECK_NAMES, ExperimentConfig
from curlow.lab import (
    Draw,
    aggregate_reports,
    load_instance,
    resolve_budgets,
    run_recovery,
    run_sweep,
    run_trial,
    run_verify,
    thread_count,
)
from curlow.linalg import blas_threads, frobenius_norm, svd
from curlow.recovery import RecoveryInputs, recover, top_singular_bases
from curlow.sampling import (RngStream, sample_columns, sample_entries,
                             sample_rows)
from curlow.synth import SynthSpec, generate


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("CURLOW_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("CURLOW_THREADS", "0")
    assert thread_count() == 1
    monkeypatch.setenv("CURLOW_THREADS", "two")
    with pytest.raises(ValueError):
        thread_count()
    monkeypatch.delenv("CURLOW_THREADS")
    assert thread_count() >= 1


def test_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("CURLOW_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7})
    assert thread_count() == 3
    monkeypatch.setenv("CURLOW_THREADS", "5")
    assert thread_count() == 5
    monkeypatch.delenv("CURLOW_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert thread_count() == 1


def test_resolve_budgets_low_rank_formula():
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=2, r=2)
    inst = load_instance(cfg, cfg.base_stream())
    budget = resolve_budgets(inst)
    mu = mu_r(*top_singular_bases(inst.M, 2))
    d_formula, omega_formula = sample_size_low_rank(mu, 2, 3.0)
    assert budget["regime"] == "low-rank"
    assert budget["d_formula"] == d_formula
    assert budget["d"] == min(d_formula, 64)
    assert budget["omega"] == min(omega_formula, 64 * 64)
    assert (budget["d"], budget["omega"]) == (d_formula, omega_formula)
    assert budget["d_source"] == "formula"
    assert budget["omega_source"] == "formula"


def test_a_low_rank_budget_iterates_on_l_wide_blocks_only(monkeypatch):
    # r = 2, l = 10: both sides of M reach 16 l = 160, so mu_r comes from
    # n x l and m x l QRs and l-wide SVDs on M and M^T, never from svd(M)
    cfg = ExperimentConfig(n=200, m=180, kind="exact-low-rank", synth_r=2, r=2)
    inst = load_instance(cfg, cfg.base_stream())
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    budget = resolve_budgets(inst)
    assert budget["regime"] == "low-rank"
    assert set(calls) == {("qr", (200, 10)), ("qr", (180, 10)),
                          ("svd", (180, 10)), ("svd", (200, 10))}


# (n, m, r, coherence) above the iteration's size rule, and the most units
# in the last place by which the budget's mu_r missed that of the planted
# top-r factors over seeds 0-5; svd(M) missed by up to 8 / 7 / 12 / 5
ITERATED_BUDGET_ULPS = [
    ((200, 200, 2, "flat"), 86),
    ((200, 200, 2, "spiky"), 8),
    ((260, 180, 3, "flat"), 18),
    ((260, 180, 3, "spiky"), 4),
]


@pytest.mark.parametrize("shape, ulps", ITERATED_BUDGET_ULPS)
def test_a_low_rank_budget_reads_mu_r_within_its_ulps_of_the_truth(
        monkeypatch, shape, ulps):
    n, m, r, coherence = shape
    found = []

    def spied(S, k, _fn=recovery._subspace_iteration):
        found.append(_fn(S, k))
        return found[-1]
    monkeypatch.setattr(recovery, "_subspace_iteration", spied)
    for seed in range(6):
        cfg = ExperimentConfig(n=n, m=m, kind="exact-low-rank", synth_r=r,
                               r=r, coherence=coherence, seed=seed)
        _, f = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
        truth = mu_r(f.U[:, :r], f.V[:, :r])
        mu = load_instance(cfg, cfg.base_stream()).budget()["mu_r"]
        assert abs(mu - truth) <= ulps * np.spacing(truth)
    assert len(found) == 12 and all(x is not None for x in found)


# the most units in the last place by which the spectrum missed the
# planted factors over seeds 0-5 when this test was written: (n, m, r,
# coherence) and mu_r at exact low rank, by the subspace iteration above
# the size rule (86 / 8 / 19 ulps; svd(M)'s missed by 9 / 7 / 13) and by
# svd(M) below it; (n, m, r, kind, decay) and sigma_r, sigma_{r+1} at full
# rank, from svd(M) (the values-only kernel's missed by 8, 10 / 5, 4)
LOW_RANK_MU_ULPS = [
    ((200, 200, 2, "flat"), 86),
    ((200, 200, 2, "spiky"), 8),
    ((260, 180, 3, "flat"), 19),
    ((40, 40, 2, "flat"), 6),
]
FULL_RANK_SIGMA_ULPS = [
    ((200, 160, 3, "geometric-spectrum", 0.9), (9, 7)),
    ((200, 160, 3, "power-law-spectrum", 1.0), (6, 6)),
]


def _planted_mu_r(f, r: int, mpmath) -> float:
    """mu_r of the planted top-r factors, each row's squared norm summed
    exactly, rounded once."""
    def side(Q):
        rows = (mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in row)
                for row in Q[:, :r])
        return max(rows) * Q.shape[0] / r
    with mpmath.workdps(40):
        return float(max(side(f.U), side(f.V)))


@pytest.mark.parametrize("shape, ulps", LOW_RANK_MU_ULPS)
def test_a_low_rank_spectrum_reads_mu_r_within_its_ulps_of_the_planted(
        shape, ulps):
    mpmath = pytest.importorskip("mpmath")
    n, m, r, coherence = shape
    for seed in range(6):
        cfg = ExperimentConfig(n=n, m=m, kind="exact-low-rank", synth_r=r,
                               r=r, coherence=coherence, seed=seed)
        _, f = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
        truth = _planted_mu_r(f, r, mpmath)
        mu = load_instance(cfg, cfg.base_stream()).mu_r
        assert abs(mu - truth) <= ulps * np.spacing(truth), seed


@pytest.mark.parametrize("shape, ulps", FULL_RANK_SIGMA_ULPS)
def test_a_full_rank_spectrum_reads_sigma_within_its_ulps_of_the_planted(
        shape, ulps):
    n, m, r, kind, decay = shape
    for seed in range(6):
        cfg = ExperimentConfig(n=n, m=m, kind=kind, synth_r=r, r=r,
                               decay=decay, seed=seed)
        _, f = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
        spec = load_instance(cfg, cfg.base_stream())
        for value, truth, most in zip((spec.sigma_r, spec.sigma_r_plus_1),
                                      f.sigma[r - 1:r + 1], ulps):
            assert abs(value - truth) <= most * np.spacing(truth), seed


def test_every_low_rank_gate_reads_the_budgets_mu_r():
    # 200 x 200 exact rank 2, above the size rule: the projection, delta
    # and selection-spectrum gates of every trial read the mu_r its budget
    # read, bit for bit
    cfg = ExperimentConfig(n=200, m=200, kind="exact-low-rank", synth_r=2,
                           r=2, trials=4, checks=CHECK_NAMES)
    gated = 0
    for trial in range(cfg.trials):
        inst = load_instance(cfg, cfg.base_stream().derive(trial))
        budget_mu = inst.budget()["mu_r"]
        for rep in run_trial(cfg, trial)["reports"]:
            if "mu_r" in rep["params"]:
                assert rep["params"]["mu_r"] == budget_mu, rep["name"]
                gated += 1
    assert gated == 16


def test_a_low_rank_verify_above_the_size_rule_forms_no_vectors_of_m(
        monkeypatch):
    # mu_r by subspace iteration and a values-only sigma: no check of
    # projection, delta or delta_triangle reads M's singular vectors
    cfg = ExperimentConfig(n=200, m=200, kind="exact-low-rank", synth_r=2,
                           r=2, trials=3,
                           checks=("projection", "delta", "delta_triangle"))
    Ms = [generate(cfg.synth_spec(cfg.base_stream().derive(k).derive(0)))[0]
          for k in range(cfg.trials)]
    calls = _svds_of(monkeypatch, Ms)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    out = run_verify(cfg)
    assert out["aggregate"]["delta_bound"]["count"] == cfg.trials
    assert sorted(calls) == [(k, False) for k in range(cfg.trials)]


def test_resolve_budgets_explicit_and_floor():
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=3, r=3,
                           d=10, omega_count=500)
    budget = resolve_budgets(load_instance(cfg, cfg.base_stream()))
    assert budget["d"] == 10 and budget["omega"] == 500
    assert budget["d_source"] == budget["omega_source"] == "user"
    floor_cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank",
                                 synth_r=3, r=3, d=1)
    floor = load_instance(floor_cfg, floor_cfg.base_stream())
    with pytest.raises(ValueError):
        resolve_budgets(floor)  # never rewritten up to r


def test_a_supplied_instance_takes_no_svd_until_its_spectrum_is_read(
        monkeypatch):
    M, _ = generate(SynthSpec(n=40, m=30, kind="geometric-spectrum", r=30,
                              stream=RngStream(seed=41), decay=0.5))
    cfg = ExperimentConfig(n=40, m=30, r=3)
    calls = []

    def counted(a, *args, _fn=np.linalg.svd, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    inst = load_instance(cfg, cfg.base_stream(), M)
    assert calls == [] and inst.planted_sigma is None
    # a full-rank lam reads sigma from the one svd(M) the budget forms
    assert inst.lam > 0 and calls == [True]
    assert inst.budget()["lam"] == inst.lam and calls == [True]


def test_an_instance_resolves_its_budget_once_for_racing_readers(
        monkeypatch):
    calls = []

    def counted(inst, _fn=lab.resolve_budgets):
        calls.append(1)  # list.append is atomic across threads
        return _fn(inst)
    monkeypatch.setattr(lab, "resolve_budgets", counted)
    cfg = ExperimentConfig(n=60, m=48, kind="geometric-spectrum", synth_r=3,
                           r=3)
    inst = load_instance(cfg, cfg.base_stream())
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait()
        seen.append(inst.budget())
    readers = [threading.Thread(target=read) for _ in range(8)]
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
    assert len(calls) == 1 and len(seen) == 8
    assert all(budget is inst.budget() for budget in seen)


def test_a_resolved_budget_is_read_while_the_instance_builds_another_value():
    # a sweep draw reads its instance's budget while another pool thread
    # takes the instance's sigma under the instance's lock
    cfg = ExperimentConfig(n=60, m=48, kind="exact-low-rank", synth_r=3, r=3)
    inst = load_instance(cfg, cfg.base_stream())
    budget, seen = inst.budget(), []
    reader = threading.Thread(target=lambda: seen.append(inst.budget()))
    with inst._lock:
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive()
    assert seen == [budget] and seen[0] is budget


@pytest.mark.parametrize("seed", range(8))
def test_a_rank_one_budget_and_its_gates_agree_where_mu_r_is_one(seed):
    # flat exact rank 1: mu_r is 1 up to rounding, so every reader of it
    # gives ceil(7 * 1 * 1 * 3) = 21, whichever last bits its mu_r has
    cfg = ExperimentConfig(n=200, m=200, kind="exact-low-rank", synth_r=1,
                           r=1, seed=seed)
    stream = cfg.base_stream()
    inst = load_instance(cfg, stream)
    budget = inst.budget()
    assert (budget["d"], budget["omega"]) == (21, 21)
    draw = Draw(inst, budget["d"], stream)
    gates = [rep.params["d_gate"] for name in
             ("projection", "delta", "omega1_spectrum")
             for rep in lab.CHECKS[name](draw)]
    assert gates == [21] * 4
    _, f = generate(cfg.synth_spec(stream.derive(0)))
    planted = mu_r(f.U[:, :1], f.V[:, :1])
    assert sample_size_low_rank(planted, 1, cfg.t) == (21, 21)


def test_resolve_budgets_full_rank_regime():
    cfg = ExperimentConfig(n=48, m=48, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2)
    inst = load_instance(cfg, cfg.base_stream())
    budget = resolve_budgets(inst)
    assert budget["regime"] == "full-rank"
    assert budget["d"] <= 48
    assert budget["omega"] <= 48 * 48
    assert budget["omega_formula"] >= budget["omega"]
    assert "lam" in budget and "numerical_rank" in budget
    # read from the instance's spectrum, the same as from a fresh svd(M)
    rank = numerical_rank(svd(inst.M), inst.lam)
    assert (budget["mu_lambda"], budget["numerical_rank"]) == (
        rank.mu_lambda, rank.value)


def test_trial_context_caches_samples():
    cfg = ExperimentConfig(n=32, m=32, kind="exact-low-rank", synth_r=2, r=2,
                           checks=("delta", "combine"))
    stream = cfg.base_stream().derive(0)
    inst = load_instance(cfg, stream)
    ctx = Draw(inst, inst.budget()["d"], stream)
    idx1, _ = ctx.cols()
    idx2, _ = ctx.cols()
    assert idx1 is idx2
    assert ctx.bases() is ctx.bases()


def test_trial_builds_each_stage_once(monkeypatch):
    calls = []
    targets = [(lab, "build_bases"), (lab, "assemble_design"),
               (recovery, "build_bases"), (recovery, "assemble_design"),
               (bounds, "check_delta")]
    for ns, name in targets:
        def counted(*args, _fn=getattr(ns, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ns, name, counted)
    cfg = ExperimentConfig(n=40, m=40, kind="geometric-spectrum", synth_r=3,
                           r=3, d=16, omega_count=600,
                           checks=("delta", "combine", "strong_convexity",
                                   "full_rank_recovery"))
    record = run_trial(cfg, 0)
    assert len(record["reports"]) == 4
    assert sorted(calls) == ["assemble_design", "build_bases", "check_delta"]
    stream = cfg.base_stream().derive(0)
    inst = load_instance(cfg, stream)
    ctx = Draw(inst, inst.budget()["d"], stream)
    assert ctx.recovery()[0].bases is ctx.bases()


def test_verify_trial_factors_M_once(monkeypatch):
    # the full-rank budget and every check, halko too, read the instance's
    # spectrum: one svd of M, whose sigma is the spectrum's
    cfg = ExperimentConfig(n=40, m=40, kind="geometric-spectrum", synth_r=2,
                           r=2, d=16, omega_count=600, checks=CHECK_NAMES)
    M, _ = generate(cfg.synth_spec(cfg.base_stream().derive(0).derive(0)))
    of_M = []

    def counted(a, *args, _fn=np.linalg.svd, **kwargs):
        of_M.append(np.shape(a) == M.shape and np.array_equal(a, M))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    record = run_trial(cfg, 0)
    assert len(record["reports"]) == 12
    assert sum(of_M) == 1


def test_a_trial_takes_each_residual_norm_of_M_once(monkeypatch):
    # no values-only sigma of M, which a full-rank spectrum reads from its
    # svd(M), and the four residuals side_cols, side_rows, Delta and
    # M - M_hat, each normed once, through the eigvalsh of its 32 x 32
    # Gram, however many checks read it
    cfg = ExperimentConfig(n=40, m=32, kind="geometric-spectrum", synth_r=2,
                           r=2, d=16, omega_count=600,
                           checks=("projection", "delta", "delta_triangle",
                                   "combine", "full_rank_recovery"))
    values_only, grams = [], []

    def counted_svd(a, *args, _fn=np.linalg.svd, **kwargs):
        if not kwargs.get("compute_uv", True):
            values_only.append(np.shape(a))
        return _fn(a, *args, **kwargs)

    def counted_eigvalsh(a, *args, _fn=np.linalg.eigvalsh, **kwargs):
        grams.append(np.shape(a))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    record = run_trial(cfg, 0)
    monkeypatch.undo()
    assert values_only.count((40, 32)) == 0
    assert grams.count((32, 32)) == 4
    stream = cfg.base_stream().derive(0)
    inst = load_instance(cfg, stream)
    draw = Draw(inst, inst.budget()["d"], stream)
    M, U, V = draw.M, draw.bases().U_hat, draw.bases().V_hat
    norm = linalg.spectral_norm
    side_cols = norm(M - (M @ V) @ V.T) ** 2
    side_rows = norm(M - U @ (U.T @ M)) ** 2
    delta = norm(M - U @ (U.T @ M @ V) @ V.T) ** 2
    error = norm(M - draw.recovery()[1]) ** 2
    lhs = {rep["name"]: rep["lhs"] for rep in record["reports"]}
    assert lhs == {"projection_error_cols": side_cols,
                   "projection_error_rows": side_rows,
                   "delta_bound": delta, "delta_triangle": delta,
                   "error_combine": error, "recovery_error": error}


def test_the_gram_checks_share_one_eigendecomposition_of_h(monkeypatch):
    # H's eigenpairs are read from the instance's svd(M), so no n x n
    # matrix is eigendecomposed; the whitened ratio's eigvalsh is taken
    # once for both checks, and sin theta adds the eigvalsh of the n x n
    # Gram of H - H_hat for its norm, reads H's top-r basis as M's top-r
    # left singular vectors and H_hat's as the draw's U_hat, and reads its
    # ratio_delta from the sandwich's eigenvalues. No n x n SVD is taken.
    # The reports are those of the expressions below, bit for bit, and
    # agree with a dense eigh of H to round-off.
    n, m, r = 30, 24, 2
    cfg = ExperimentConfig(n=n, m=m, kind="geometric-spectrum", synth_r=2,
                           r=r, d=12, omega_count=300,
                           checks=("h_sandwich", "sin_theta"))
    square = {"eigh": [], "eigvalsh": [], "svd": []}
    for name, calls in square.items():
        def counted(a, *args, _fn=getattr(np.linalg, name), _calls=calls,
                    **kwargs):
            _calls.append(np.shape(a) == (n, n))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    sandwich, sin = run_trial(cfg, 0)["reports"]
    monkeypatch.undo()
    assert {name: calls.count(True) for name, calls in square.items()} == {
        "eigh": 0, "eigvalsh": 2, "svd": 0}
    stream = cfg.base_stream().derive(0)
    inst = load_instance(cfg, stream)
    draw = Draw(inst, inst.budget()["d"], stream)
    M, A, lam, d = draw.M, draw.cols()[1], inst.lam, draw.d
    f = inst.factors
    U, k = f.U, m
    w = np.full(n, lam)
    w[:k] += f.sigma**2 / (m * n)
    WA = A / np.sqrt(lam) + U @ ((w[:k]**-0.5 - lam**-0.5)[:, None] * (U.T @ A))
    ratio = (U * (lam / w[:k] - 1.0)) @ U.T + WA @ WA.T / (d * n)
    ratio[np.diag_indices(n)] += 1.0
    eigs = np.linalg.eigvalsh((ratio + ratio.T) / 2.0)
    H = lam * np.eye(n) + M @ M.T / (m * n)
    H_hat = lam * np.eye(n) + A @ A.T / (d * n)
    w_dense, Q = np.linalg.eigh(H)
    inv_sqrt = (Q * (w_dense**-0.5)) @ Q.T
    assert np.allclose(np.linalg.eigvalsh(inv_sqrt @ H_hat @ inv_sqrt), eigs,
                       rtol=0, atol=1e-12)
    assert np.allclose(w_dense[::-1], w, rtol=1e-12)
    rank = numerical_rank(f, lam)
    t = cfg.t
    d_gate = bounds._ceil(4.0 / cfg.sandwich_delta**2
                          * (rank.mu_lambda * rank.value + 1.0)
                          * (t + np.log(n)))
    assert sandwich["lhs"] == float(np.max(np.abs(eigs - 1.0)))
    assert sandwich["params"] == {
        "side": "A", "d": d, "d_gate": d_gate, "t": t, "lam": lam,
        "mu_lambda": rank.mu_lambda, "numerical_rank": rank.value,
        "eig_min": float(eigs.min()), "eig_max": float(eigs.max())}
    assert sin["lhs"] == sin_theta(U[:, :r], draw.bases().U_hat)
    eta = float(1.0 / w[-1]) * linalg.spectral_norm(M @ M.T / (m * n)
                                                    - A @ A.T / (d * n))
    d_lam = min(np.sqrt(2.0) * (1.0 - w[r] / w[r - 1]), 1.0 / np.sqrt(2.0))
    d_h = eta / np.sqrt(1.0 - eta)
    delta_ratio = float(np.max(np.abs(eigs - 1.0)))
    assert sin["params"]["ratio_delta"] == sandwich["lhs"]
    assert sin["params"] == {
        "r": r, "eta": eta, "d_lambda": d_lam, "lam_r": float(w[r - 1]),
        "lam_r_plus_1": float(w[r]), "d_h": d_h, "ratio_delta": delta_ratio,
        "specialized_rhs": 3.0 * np.sqrt(2.0) * delta_ratio,
        "specialized_applicable": bool(delta_ratio <= 0.5
                                       and w[r] / w[r - 1] <= 0.5)}
    assert sin["rhs"] == d_h / (d_lam - d_h / 2.0) * (1.0 + d_h * d_lam / 16.0)


def test_a_draw_builds_its_residual_once(monkeypatch):
    cfg = ExperimentConfig(n=40, m=32, kind="geometric-spectrum", synth_r=2,
                           r=2, d=16, omega_count=600)
    stream = cfg.base_stream()
    inst = load_instance(cfg, stream)
    draw = Draw(inst, inst.budget()["d"], stream)
    normed = []

    def counted(a, _fn=lab.spectral_norm):
        normed.append(a)
        return _fn(a)
    monkeypatch.setattr(lab, "spectral_norm", counted)
    draw.rel_error()
    diff = draw.residual()
    draw.error()
    assert draw.residual() is diff and normed[0] is diff
    assert np.array_equal(diff, draw.M - draw.recovery()[1])


def test_strong_convexity_reads_the_fits_eigendecomposition(monkeypatch):
    # r = 2: K^T K is 4 x 4, factored once for the fit and gamma both
    cfg = ExperimentConfig(n=40, m=32, kind="geometric-spectrum", synth_r=2,
                           r=2, d=16, omega_count=600,
                           checks=("combine", "strong_convexity"))
    shapes = []

    def counted(a, *args, _fn=np.linalg.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    record = run_trial(cfg, 0)
    assert [rep["name"] for rep in record["reports"]] == [
        "error_combine", "strong_convexity"]
    assert shapes.count((4, 4)) == 1


def test_a_draw_takes_mu_hat_once(monkeypatch):
    # strong convexity and the mu_hat bound read one coherence of the
    # draw's bases; both reports are those of the expressions below, bit
    # for bit
    cfg = ExperimentConfig(n=40, m=32, kind="geometric-spectrum", synth_r=2,
                           r=2, d=16, omega_count=600,
                           checks=("strong_convexity", "mu_hat"))
    calls = []

    def counted(U, V, _fn=mu_r):
        calls.append(1)
        return _fn(U, V)
    monkeypatch.setattr(lab, "mu_r", counted)
    convexity, coherence = run_trial(cfg, 0)["reports"]
    monkeypatch.undo()
    assert len(calls) == 1
    stream = cfg.base_stream().derive(0)
    inst = load_instance(cfg, stream)
    draw = Draw(inst, inst.budget()["d"], stream)
    n, m, r, d, t = draw.n, draw.m, cfg.r, draw.d, cfg.t
    system, bases = draw.design(), draw.bases()
    muh = mu_r(bases.U_hat, bases.V_hat)
    size = len(system.y)
    gate = bounds._ceil(7.0 * muh**2 * r**2 * (t + 2.0 * math.log(r)))
    assert convexity == bounds.make_report(
        "strong_convexity", system.lambda_min(),
        size / (2.0 * m * n), size >= gate,
        {"omega_size": size, "n": n, "m": m, "r": r, "t": t, "mu_hat": muh,
         "omega_gate": gate}, sense="ge").to_dict()
    spec = inst
    rank = numerical_rank(spec.factors, inst.lam)
    delta_sq = 4.0 / d * (rank.mu_lambda * rank.value + 1.0) \
        * (t + math.log(n))
    d_gate = bounds.d_full_rank(rank.mu_lambda, rank.value, t, n)
    assert coherence == bounds.make_report(
        "basis_coherence", muh,
        2.0 * rank.value / r * rank.mu_lambda + 18.0 * n * delta_sq / r,
        spec.sigma_r >= math.sqrt(2.0) * spec.sigma_r_plus_1 and d >= d_gate,
        {"n": n, "m": m, "r": r, "d": d, "t": t, "lam": inst.lam,
         "mu_lambda": rank.mu_lambda, "numerical_rank": rank.value,
         "delta_sq": delta_sq, "d_gate": d_gate, "sigma_r": spec.sigma_r,
         "sigma_r_plus_1": spec.sigma_r_plus_1}).to_dict()


def test_one_lam_per_instance():
    # every report that records lam records the planted sigma_r^2 / (nm)
    cfg = ExperimentConfig(n=32, m=32, kind="geometric-spectrum", decay=0.5,
                           synth_r=3, r=3, d=16, omega_count=300,
                           checks=CHECK_NAMES)
    _, f = generate(cfg.synth_spec(cfg.base_stream().derive(0).derive(0)))
    planted = float(f.sigma[cfg.r - 1]) ** 2 / (cfg.n * cfg.m)
    lams = {rep["name"]: rep["params"]["lam"]
            for rep in run_trial(cfg, 0)["reports"] if "lam" in rep["params"]}
    assert lams == dict.fromkeys(["delta_bound", "gram_sandwich",
                                  "basis_coherence", "recovery_error"],
                                 planted)
    # past the instance's rank lam is 0, and both full-rank checks read
    # the rank at it, not round-off counted as rank
    cfg = ExperimentConfig(n=30, m=30, kind="exact-low-rank", synth_r=2, r=3,
                           checks=("mu_hat", "full_rank_recovery"))
    coherence, error = run_trial(cfg, 0)["reports"]
    assert coherence["params"]["lam"] == error["params"]["lam"] == 0.0
    assert coherence["params"]["numerical_rank"] == 2.0
    assert error["params"]["numerical_rank"] == 2.0


def test_a_spectrum_free_trial_factors_m_once_with_vectors(monkeypatch):
    # no check here reads sigma, so M gets no values-only SVD; its one svd
    # with vectors is the budget's, through the spectrum's rank in the
    # full-rank regime and through top_singular_bases below the size rule
    for kind, check in itertools.product(
            ("geometric-spectrum", "exact-low-rank"),
            ("combine", "strong_convexity")):
        cfg = ExperimentConfig(n=40, m=32, kind=kind, synth_r=2, r=2, d=16,
                               omega_count=600, checks=(check,))
        M, _ = generate(cfg.synth_spec(cfg.base_stream().derive(0).derive(0)))
        with monkeypatch.context() as patch:
            calls = _svds_of(patch, [M])
            record = run_trial(cfg, 0)
        assert len(record["reports"]) == 1
        assert calls == [(0, True)], (kind, check)


def test_run_trial_report_names():
    assert tuple(lab.CHECKS) == CHECK_NAMES
    cfg = ExperimentConfig(n=32, m=32, kind="geometric-spectrum", decay=0.5,
                           synth_r=2, r=2, d=16, omega_count=300,
                           checks=CHECK_NAMES)
    record = run_trial(cfg, 0)
    names = [rep["name"] for rep in record["reports"]]
    assert names == ["projection_error_cols", "projection_error_rows",
                     "delta_bound", "delta_triangle", "error_combine",
                     "column_space_capture", "selection_spectrum",
                     "strong_convexity", "gram_sandwich", "basis_coherence",
                     "subspace_perturbation", "recovery_error"]
    assert record["d"] == 16 and record["omega"] == 300
    one = ExperimentConfig(n=32, m=32, kind="geometric-spectrum", decay=0.5,
                           synth_r=2, r=2, d=16, omega_count=300,
                           checks=("sin_theta", "projection"))
    assert [rep["name"] for rep in run_trial(one, 0)["reports"]] == [
        "subspace_perturbation", "projection_error_cols",
        "projection_error_rows"]


def test_aggregate_reports_counts():
    def rep(name, holds, premises):
        return {"name": name, "holds": holds, "premises_met": premises}

    records = [
        {"reports": [rep("a", True, True), rep("b", True, False)]},
        {"reports": [rep("a", False, True), rep("b", False, False)]},
        {"reports": [rep("a", True, False)]},
    ]
    agg = aggregate_reports(records)
    assert agg["a"] == {"count": 3, "premises_met": 2, "holds": 2,
                        "holds_given_premises": 1, "holds_rate": 0.5}
    assert agg["b"]["holds_rate"] is None
    assert agg["b"]["count"] == 2


def test_run_verify_thread_invariance(monkeypatch):
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.5,
                           synth_r=2, r=2, d=12, omega_count=200, trials=4,
                           checks=("delta_triangle", "omega1_spectrum"))
    monkeypatch.setenv("CURLOW_THREADS", "1")
    one = run_verify(cfg)
    monkeypatch.setenv("CURLOW_THREADS", "4")
    four = run_verify(cfg)
    assert one == four
    assert len(one["trials"]) == 4
    assert set(one["aggregate"]) == {"delta_triangle", "selection_spectrum"}
    assert one["aggregate"]["delta_triangle"]["holds_rate"] == 1.0


def _ill_posed_cfg():
    # 8 entries against a 2x2 core on 12x12: some trials' designs are singular
    return ExperimentConfig(n=12, m=12, kind="exact-low-rank", synth_r=2, r=2,
                            d=4, omega_count=8, trials=6,
                            checks=("delta_triangle", "combine"))


def test_run_verify_keeps_trials_around_an_ill_posed_one(monkeypatch):
    cfg = _ill_posed_cfg()
    monkeypatch.setenv("CURLOW_THREADS", "2")
    out = run_verify(cfg)
    failed = [rec for rec in out["trials"] if "error" in rec]
    kept = [rec for rec in out["trials"] if "error" not in rec]
    assert len(out["trials"]) == 6 and failed and kept
    assert out["failed_trials"] == len(failed)
    for rec in failed:
        assert rec["reports"] == []
        assert rec["error"].startswith("design matrix is rank-deficient")
        assert (rec["d"], rec["omega"]) == (4, 8)
    for rec in kept:
        assert rec == run_trial(cfg, rec["trial"])
        assert len(rec["reports"]) == 2
    assert out["aggregate"]["delta_triangle"]["count"] == len(kept)
    monkeypatch.setenv("CURLOW_THREADS", "1")
    assert out == run_verify(cfg)


def test_run_verify_without_failures_has_no_failure_fields():
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.5,
                           synth_r=2, r=2, d=12, omega_count=200, trials=3,
                           checks=("combine",))
    out = run_verify(cfg)
    assert set(out) == {"config", "aggregate", "trials"}
    assert all(set(rec) == {"trial", "d", "omega", "reports"}
               for rec in out["trials"])


def test_run_verify_no_checks():
    cfg = ExperimentConfig(n=24, m=24, trials=5, checks=())
    out = run_verify(cfg)
    assert out["trials"] == [] and out["aggregate"] == {}


def test_run_recovery_exact_instance():
    cfg = ExperimentConfig(n=40, m=40, kind="exact-low-rank", synth_r=2, r=2,
                           d=20, omega_count=600)
    out = run_recovery(cfg)
    assert out["metrics"]["rel_frobenius"] <= 1e-8
    assert out["_M_hat"].shape == (40, 40)
    assert out["omega_size"] == 600
    assert out["gamma"] == pytest.approx(
        out["lambda_min_gram"] * 1600 / 600)
    assert len(out["col_indices"]) == 20
    assert out["metrics"]["recovery_bound"]["name"] == "recovery_error"
    # the bases' diagnostics: the top r+1 singular values of each sample
    M, _ = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
    heads = {"left_sigma": M[:, out["col_indices"]],
             "right_sigma": M[out["row_indices"], :].T}
    assert out["bases"]["degenerate_gap"] is False
    for key, sample in heads.items():
        assert np.allclose(out["bases"][key],
                           np.linalg.svd(sample, compute_uv=False)[:3],
                           rtol=1e-12, atol=1e-12)


def test_run_recovery_on_supplied_matrix():
    g = np.random.default_rng(1)
    U, _ = np.linalg.qr(g.standard_normal((30, 2)))
    V, _ = np.linalg.qr(g.standard_normal((30, 2)))
    M = (U * [3.0, 1.0]) @ V.T
    cfg = ExperimentConfig(n=30, m=30, kind="exact-low-rank", synth_r=2, r=2,
                           d=15, omega_count=400)
    out = run_recovery(cfg, M=M)
    assert out["metrics"]["rel_frobenius"] <= 1e-8
    # d = r: the third singular value of each sample is padded as zero
    cfg = ExperimentConfig(n=30, m=30, kind="exact-low-rank", synth_r=2, r=2,
                           d=2, omega_count=400)
    bases = run_recovery(cfg, M=M)["bases"]
    assert bases["left_sigma"][2] == bases["right_sigma"][2] == 0.0
    assert not bases["degenerate_gap"]


@pytest.mark.parametrize("seed, holds", [(2, False), (5, True)])
def test_run_recovery_bound_can_fail_on_real_draws(seed, holds):
    # full rank, d = r and 10 entries of 2880: far below the premises, so
    # some draws miss the bound (seed 2: lhs 69.7) and some keep it (seed
    # 5: lhs 0.17) against the same rhs of 13.875
    inst_cfg = ExperimentConfig(n=60, m=48, kind="geometric-spectrum",
                                decay=0.5, synth_r=3, r=3)
    M = load_instance(inst_cfg, inst_cfg.base_stream()).M
    cfg = ExperimentConfig(n=60, m=48, r=3, d=3, omega_count=10, seed=seed)
    bound = run_recovery(cfg, M=M)["metrics"]["recovery_bound"]
    assert bound["name"] == "recovery_error"
    assert bound["premises_met"] is False
    assert bound["holds"] is holds
    assert (bound["lhs"] <= bound["rhs"]) is holds
    assert bound["rhs"] == pytest.approx(13.875)


@pytest.mark.parametrize("seed", range(1, 9))
def test_verify_checks_can_fail_on_real_draws(monkeypatch, seed):
    # the same small budgets on a fresh 60 x 48 geometric instance per
    # seed: every draw misses the selection, Gram and convexity bounds,
    # and seeds 5-7 miss the column-space capture bound too
    cfg = ExperimentConfig(n=60, m=48, kind="geometric-spectrum", decay=0.5,
                           synth_r=3, r=3, d=3, omega_count=10, trials=1,
                           seed=seed, checks=CHECK_NAMES)
    monkeypatch.setenv("CURLOW_THREADS", "1")
    reports = run_verify(cfg)["trials"][0]["reports"]
    failed = {rep["name"] for rep in reports if not rep["holds"]}
    assert {"selection_spectrum", "gram_sandwich",
            "strong_convexity"} <= failed
    assert ("column_space_capture" in failed) is (5 <= seed <= 7)


def _selection_reports(monkeypatch, **kwargs):
    cfg = ExperimentConfig(checks=("omega1_spectrum",), **kwargs)
    monkeypatch.setenv("CURLOW_THREADS", "1")
    return cfg, [rep for trial in run_verify(cfg)["trials"]
                 for rep in trial["reports"]]


def test_selection_spectrum_premise_is_its_failure_probability(monkeypatch):
    # d = 3 on a 60 x 48 geometric instance: the bound's own failure
    # probability r exp(-d / (7 mu_r r)) exceeds 1, so the premise fails
    for seed in range(1, 9):
        cfg, [rep] = _selection_reports(
            monkeypatch, n=60, m=48, kind="geometric-spectrum", decay=0.5,
            synth_r=3, r=3, d=3, omega_count=10, trials=1, seed=seed)
        params = rep["params"]
        assert params["fail_prob"] > 1.0 and params["t"] == cfg.t
        assert params["d_gate"] == bounds.sample_size_low_rank(
            params["mu_r"], cfg.r, cfg.t)[0]
        assert not rep["premises_met"] and params["d"] < params["d_gate"]


def test_selection_spectrum_premise_holds_on_ac4s_draws(monkeypatch):
    # AC4's selection group: every draw's failure probability is below
    # e^-t, so every draw meets the premise
    cfg, reports = _selection_reports(
        monkeypatch, n=200, m=200, kind="geometric-spectrum", decay=0.5,
        synth_r=4, r=4, trials=100, seed=9700)
    assert len(reports) == 100
    assert all(rep["premises_met"] for rep in reports)
    assert max(rep["params"]["fail_prob"] for rep in reports) <= math.exp(-cfg.t)


def test_the_fit_residual_has_one_reader(monkeypatch, tmp_path):
    # only recover reports the data-fit residual, so only recover takes it
    values = []

    def counted(self, Z, _fn=recovery.DesignSystem.residual):
        values.append(_fn(self, Z))  # list.append is atomic across threads
        return values[-1]
    monkeypatch.setattr(recovery.DesignSystem, "residual", counted)
    small = dict(n=24, m=24, kind="geometric-spectrum", decay=0.4, synth_r=2,
                 r=2, omega_count=250, trials=2)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    run_sweep(ExperimentConfig(**small), [4, 8])
    monkeypatch.setenv("CURLOW_THREADS", "2")
    run_verify(ExperimentConfig(**small, checks=("combine",)))
    assert values == []
    assert main(["recover", "--set", "synth.n=24", "--set", "synth.m=24",
                 "--set", "r=2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recovery.json").read_text())
    assert len(values) == 1
    assert report["residual"] == values[0]


def test_run_sweep_rows_and_skips(monkeypatch):
    cfg = ExperimentConfig(n=24, m=24, kind="exact-low-rank", synth_r=2, r=2,
                           omega_count=250, trials=3)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [32, 1, 8, 8])
    assert [row["d"] for row in rows] == [1, 8, 32]
    assert rows[0]["skipped"] and rows[0]["rel_error"] is None
    assert rows[2]["skipped"]  # d exceeds min(n, m)
    live = rows[1]
    assert "skipped" not in live
    assert live["analytic_total"] == total_observations(24, 8)
    assert live["rel_error"] <= 1e-6
    assert live["observed_total"] == pytest.approx(8 * 24 * 2 + live["omega"])
    assert live["union"] <= live["observed_total"]


def test_run_sweep_keeps_points_around_an_ill_posed_draw(monkeypatch):
    # 6 entries against a 2x2 core on 12x12: most draws are singular
    cfg = ExperimentConfig(n=12, m=12, kind="exact-low-rank", synth_r=2, r=2,
                           omega_count=6, trials=4)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [4, 8])
    monkeypatch.setenv("CURLOW_THREADS", "1")
    assert rows == run_sweep(cfg, [4, 8])
    insts = [lab._sweep_load(cfg, k) for k in range(cfg.trials)]
    points = [{d: lab._sweep_point(inst, k, d) for d in (4, 8)}
              for k, inst in enumerate(insts)]
    for row in rows:
        outs = [p[row["d"]] for p in points]
        ok = [o for o in outs if "error" not in o]
        failed = [k for k, o in enumerate(outs) if "error" in o]
        assert failed and row["failed"] == len(failed)
        assert row["error"] == f"trial={failed[0]}: " + outs[failed[0]]["error"]
        assert row["error"].split(": ", 1)[1].startswith(
            "design matrix is rank-deficient")
        if ok:
            assert row["rel_error"] == float(np.mean([o["rel_error"] for o in ok]))
            assert row["omega"] == 6.0
        else:
            assert all(row[k] is None for k in ("omega", "observed_total",
                                                "union", "rel_error",
                                                "bound_rate"))
        degenerate = [k for k, o in enumerate(outs) if o["degenerate"]]
        assert row.get("degenerate") == (len(degenerate) or None)
        assert row.get("degenerate_trial") == (degenerate[0] if degenerate
                                               else None)
    assert any(row["rel_error"] is None for row in rows)
    # the d=4 row averages its one surviving draw, whose split is degenerate
    assert rows[0]["degenerate"] and rows[0]["rel_error"] is not None


def test_run_sweep_thread_invariance(monkeypatch):
    # several live points and a skipped one; 3 trials, the benchmark's
    # shape, and 7, more than one window at every worker count here
    grid = [1, 6, 8, 12]
    for trials in (3, 7):
        cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum",
                               decay=0.4, synth_r=2, r=2, omega_count=250,
                               trials=trials)
        monkeypatch.setenv("CURLOW_THREADS", "1")
        one = run_sweep(cfg, grid)
        monkeypatch.setenv("CURLOW_THREADS", "2")
        assert run_sweep(cfg, grid) == one
        monkeypatch.setenv("CURLOW_THREADS", "3")
        assert run_sweep(cfg, grid) == one


def test_run_sweep_spreads_one_trial_over_the_workers(monkeypatch):
    threads = set()
    entered = itertools.count()
    # the first two points wait for each other, so they must be on two
    # threads at once; with one task per trial the wait times out
    barrier = threading.Barrier(2, timeout=10)

    def spy(*args, _fn=lab._sweep_point, **kwargs):
        if next(entered) < 2:
            barrier.wait()
        threads.add(threading.get_ident())
        return _fn(*args, **kwargs)
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2, omega_count=250, trials=1)
    grid = [2, 4, 6, 8, 12, 16]
    monkeypatch.setenv("CURLOW_THREADS", "1")
    expected = run_sweep(cfg, grid)
    monkeypatch.setattr(lab, "_sweep_point", spy)
    monkeypatch.setenv("CURLOW_THREADS", "3")
    assert run_sweep(cfg, grid) == expected
    assert len(threads) > 1


def test_run_sweep_shares_an_instance_across_more_workers_than_trials(
        monkeypatch):
    calls = []
    for ns, name in ((lab, "generate"), (lab, "resolve_budgets"),
                     (lab, "Instance")):
        def counted(*args, _fn=getattr(ns, name), _name=name, **kwargs):
            calls.append(_name)  # list.append is atomic across pool threads
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ns, name, counted)
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2, omega_count=250, trials=2)
    grid = [2, 4, 6, 8, 12, 16]
    monkeypatch.setenv("CURLOW_THREADS", "1")
    expected = run_sweep(cfg, grid)
    calls.clear()
    # 4 workers on 2 trials, switching threads as often as the interpreter
    # allows, so the points race to read each trial's instance, budget and
    # spectrum
    rows = []
    monkeypatch.setenv("CURLOW_THREADS", "4")
    runner = threading.Thread(target=lambda: rows.append(run_sweep(cfg, grid)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert rows == [expected]
    assert sorted(calls) == (["Instance"] * 2 + ["generate"] * 2
                             + ["resolve_budgets"] * 2)


def _track_instances(monkeypatch) -> dict:
    """Spy on lab.load_instance: the streams it loaded from, the instances
    alive now and the most alive at once."""
    seen = {"streams": [], "live": 0, "peak": 0}
    lock = threading.Lock()

    def dropped():
        with lock:
            seen["live"] -= 1

    def counted(cfg, stream, *args, _fn=lab.load_instance, **kwargs):
        inst = _fn(cfg, stream, *args, **kwargs)
        with lock:
            seen["streams"].append(stream)
            seen["live"] += 1
            seen["peak"] = max(seen["peak"], seen["live"])
        weakref.finalize(inst, dropped)
        return inst
    monkeypatch.setattr(lab, "load_instance", counted)
    return seen


def test_run_sweep_holds_one_window_of_instances(monkeypatch):
    cfg = ExperimentConfig(n=24, m=24, kind="exact-low-rank", synth_r=2, r=2,
                           omega_count=250, trials=4)
    grid = [4, 8]
    monkeypatch.setenv("CURLOW_THREADS", "1")
    expected = run_sweep(cfg, grid)
    seen = _track_instances(monkeypatch)
    # trial 0's last draw is slow, so a worker that is done with trial 1
    # could go on to build the next window's trials while trial 0 is live
    slow = cfg.base_stream().derive(0).derive(1 + grid[-1]).derive(1)

    def sample(M, d, stream, _fn=lab.sample_columns):
        if stream == slow:
            time.sleep(0.3)
        return _fn(M, d, stream)
    monkeypatch.setattr(lab, "sample_columns", sample)
    # 4 trials on 2 workers: two windows of 2 trials, each trial built once
    monkeypatch.setenv("CURLOW_THREADS", "2")
    assert run_sweep(cfg, grid) == expected
    assert seen["peak"] <= 2
    assert sorted(s.stream_id for s in seen["streams"]) == sorted(
        cfg.base_stream().derive(k).stream_id for k in range(cfg.trials))
    assert seen["live"] == 0


def test_run_sweep_drops_each_instance_after_its_last_point(monkeypatch):
    cfg = ExperimentConfig(n=24, m=24, kind="exact-low-rank", synth_r=2, r=2,
                           omega_count=250, trials=12)
    monkeypatch.setenv("CURLOW_THREADS", "1")
    expected = run_sweep(cfg, [4, 8, 12])
    seen = _track_instances(monkeypatch)
    workers = 2
    monkeypatch.setenv("CURLOW_THREADS", str(workers))
    assert run_sweep(cfg, [4, 8, 12]) == expected
    # windows of 3 trials: one window's instances, not all twelve
    assert seen["peak"] <= workers + 1
    assert seen["live"] == 0


def _compose(inst, stream, d=None):
    # the draw layout spelled out by hand: samples from stream.derive(1..3)
    cfg, M, budget = inst.cfg, inst.M, resolve_budgets(inst)
    d = budget["d"] if d is None else d
    col_idx, A = sample_columns(M, d, stream.derive(1))
    row_idx, B = sample_rows(M, d, stream.derive(2))
    omega = sample_entries(M, budget["omega"], stream.derive(3))
    _, M_hat = recover(RecoveryInputs(A=A, B=B, omega=omega, r=cfg.r),
                       ridge=cfg.ridge)
    return col_idx, row_idx, omega, M_hat


def test_run_recovery_stream_layout():
    cfg = ExperimentConfig(n=40, m=40, kind="geometric-spectrum", decay=0.5,
                           synth_r=3, r=3, d=14, omega_count=700)
    base = cfg.base_stream()
    inst = load_instance(cfg, base)
    M, _ = generate(cfg.synth_spec(base.derive(0)))
    assert np.array_equal(inst.M, M)
    col_idx, row_idx, omega, M_hat = _compose(inst, base)
    out = run_recovery(cfg)
    assert out["col_indices"] == col_idx.indices.tolist()
    assert out["row_indices"] == row_idx.indices.tolist()
    assert out["omega_size"] == omega.size
    assert np.array_equal(out["_M_hat"], M_hat)


def test_run_sweep_stream_layout():
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2, omega_count=250, trials=3)
    d = 8
    errors = []
    for trial in range(cfg.trials):
        stream = cfg.base_stream().derive(trial)
        inst = load_instance(cfg, stream)
        M, _ = generate(cfg.synth_spec(stream.derive(0)))
        assert np.array_equal(inst.M, M)
        *_, M_hat = _compose(inst, stream.derive(1 + d), d)
        errors.append(frobenius_norm(M - M_hat) / frobenius_norm(M))
    row, = run_sweep(cfg, [d])
    assert row["rel_error"] == float(np.mean(errors))


def test_run_sweep_loads_each_instance_once(monkeypatch):
    calls = []
    for name in ("generate", "resolve_budgets"):
        def counted(*args, _fn=getattr(lab, name), _name=name, **kwargs):
            calls.append(_name)  # list.append is atomic across pool threads
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lab, name, counted)
    cfg = ExperimentConfig(n=24, m=24, kind="exact-low-rank", synth_r=2, r=2,
                           omega_count=250, trials=2)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [1, 4, 8, 12, 30])
    assert sum("skipped" not in row for row in rows) == 3
    assert sorted(calls) == ["generate"] * 2 + ["resolve_budgets"] * 2
    calls.clear()
    run_sweep(cfg, [1, 30])
    assert calls == []


def test_run_sweep_computes_each_recovery_spectrum_once(monkeypatch):
    calls = []

    def counted(*args, _fn=lab.Instance, **kwargs):
        calls.append(args[0].r)  # list.append is atomic across pool threads
        return _fn(*args, **kwargs)
    monkeypatch.setattr(lab, "Instance", counted)
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2, omega_count=250, trials=3)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [4, 6, 8, 12, 16])
    assert all(row["rel_error"] is not None for row in rows)
    assert calls == [2, 2, 2]


def test_sweep_recovery_bounds_match_a_fresh_draw(monkeypatch):
    # Every grid point's "holds" equals that of a fresh draw's report,
    # taken with the exact spectral norm. The sweep reports only the draws
    # that the Frobenius sandwich leaves open: with the sandwich, some of
    # them (Omega = 12 puts some draws near the bound); with a sandwich
    # that never settles, every draw. Each report equals the fresh one
    # field for field.
    check = bounds.check_full_rank_recovery
    cfg = ExperimentConfig(n=60, m=48, kind="geometric-spectrum", synth_r=3,
                           r=3, omega_count=12, trials=3)
    grid = [3, 4, 8, 16]
    oracles = {}
    for trial in range(cfg.trials):
        stream = cfg.base_stream().derive(trial)
        for d in grid:
            inst = load_instance(cfg, stream)
            draw = Draw(inst, d, stream.derive(1 + d))
            error = linalg.spectral_norm(draw.M - draw.recovery()[1]) ** 2
            oracles[trial, d] = check(
                bounds.Spectrum(draw.M, cfg.r, inst.lam,
                                inst.full_rank), error, d,
                draw.entries().size, cfg.t)
    for sandwich in (True, False):
        seen = []

        def recorded(*args, **kwargs):
            report = check(*args, **kwargs)
            seen.append((args[2], report))
            return report
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "check_full_rank_recovery", recorded)
            if not sandwich:
                patch.setattr(lab, "settle_by_frobenius", lambda *args: None)
            reported = 0
            for trial in range(cfg.trials):
                seen.clear()
                inst = lab._sweep_load(cfg, trial)
                outs = {d: lab._sweep_point(inst, trial, d) for d in grid}
                reports = dict(seen)
                assert len(reports) == len(seen)
                if not sandwich:
                    assert [d for d, _ in seen] == grid
                reported += len(reports)
                for d in grid:
                    oracle = oracles[trial, d]
                    assert outs[d]["holds"] is oracle.holds
                    if d in reports:
                        assert reports[d].to_dict() == oracle.to_dict()
        if sandwich:
            assert 0 < reported < cfg.trials * len(grid)


def test_a_sweep_draw_takes_one_frobenius_norm_and_no_spectral_norm(
        monkeypatch):
    # AC7's shape at n = 64: every draw lies far from its recovery bound,
    # so the Frobenius sandwich settles each from the one ||M - M_hat||_F
    # that rel_error also reads. The other Frobenius norms are each
    # instance's ||M||_F. run_recovery still records both exact norms of
    # M - M_hat (spectral_sq and the recovery bound's lhs).
    normed = {"spectral": [], "frobenius": []}
    for kind in normed:
        name = f"{kind}_norm"

        def counted(a, _fn=getattr(lab, name), _calls=normed[kind]):
            _calls.append(np.shape(a))  # atomic across pool threads
            return _fn(a)
        monkeypatch.setattr(lab, name, counted)
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=2, r=2,
                           trials=3)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [2, 4, 8, 16])
    assert all("failed" not in row for row in rows)
    assert normed["spectral"] == []
    assert normed["frobenius"] == [(64, 64)] * (3 + 3 * 4)
    normed["spectral"].clear()
    run_recovery(ExperimentConfig(n=40, m=40, kind="exact-low-rank",
                                  synth_r=2, r=2, seed=5))
    assert normed["spectral"] == [(40, 40)] * 2


def _svds_of(monkeypatch, Ms) -> list:
    """Spy on np.linalg.svd: (k, with vectors) for each call on Ms[k]."""
    calls = []

    def counted(a, *args, _fn=np.linalg.svd, **kwargs):
        for k, M in enumerate(Ms):
            if np.shape(a) == M.shape and np.array_equal(a, M):
                calls.append((k, kwargs.get("compute_uv", True)))
        return _fn(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls  # list.append is atomic across pool threads


def test_a_settled_sweep_factors_m_with_vectors_only_for_its_budget(
        monkeypatch):
    # AC7's shape at n = 64, where every draw settles its bound from the
    # Frobenius sandwich: each trial's M is factored once with its vectors,
    # by resolve_budgets, and once without them, by its spectrum
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=2, r=2,
                           trials=3)
    Ms = [generate(cfg.synth_spec(cfg.base_stream().derive(k).derive(0)))[0]
          for k in range(cfg.trials)]
    calls = _svds_of(monkeypatch, Ms)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [2, 4, 8, 16])
    assert all("failed" not in row for row in rows)
    assert sorted(calls) == [(k, vectors) for k in range(cfg.trials)
                             for vectors in (False, True)]


def test_a_settled_sweep_above_the_rule_forms_no_singular_vectors_of_m(
        monkeypatch):
    # at n = 176, r = 2 the budget reads M's top-r bases by subspace
    # iteration (176 >= 16 (r + 8)), and every draw settles its bound: each
    # trial's M gets only its spectrum's values-only SVD
    cfg = ExperimentConfig(n=176, m=176, kind="exact-low-rank", synth_r=2,
                           r=2, trials=3)
    Ms = [generate(cfg.synth_spec(cfg.base_stream().derive(k).derive(0)))[0]
          for k in range(cfg.trials)]
    calls = _svds_of(monkeypatch, Ms)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    rows = run_sweep(cfg, [2, 4, 8, 16])
    assert all("failed" not in row for row in rows)
    assert sorted(calls) == [(k, False) for k in range(cfg.trials)]


def test_an_unsettled_sweep_factors_each_spectrum_once(monkeypatch):
    # with a sandwich that never settles, every draw reads its instance's
    # regularized rank, so its spectrum's singular vectors: the rows are
    # unchanged, and each spectrum factors M once however many draws, on
    # two pool threads, read it
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=2, r=2,
                           trials=3)
    grid = [2, 4, 8, 16]
    monkeypatch.setenv("CURLOW_THREADS", "2")
    expected = run_sweep(cfg, grid)
    factored, read = [], []

    def counted(a, _fn=bounds.svd):
        factored.append(a)  # list.append is atomic across pool threads
        return _fn(a)

    def recorded(spec, *args, _fn=bounds.check_full_rank_recovery, **kwargs):
        read.append(spec)
        return _fn(spec, *args, **kwargs)
    monkeypatch.setattr(bounds, "svd", counted)
    monkeypatch.setattr(bounds, "check_full_rank_recovery", recorded)
    monkeypatch.setattr(lab, "settle_by_frobenius", lambda *args: None)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    assert run_sweep(cfg, grid) == expected
    assert len(read) == cfg.trials * len(grid)
    assert len({id(spec) for spec in read}) == cfg.trials
    assert len(factored) == cfg.trials
    assert len({id(M) for M in factored}) == cfg.trials


def test_an_unsettled_full_rank_sweep_factors_each_m_once(monkeypatch):
    # the full-rank budget reads the instance's spectrum, so with a
    # sandwich that never settles, each trial's M is factored once with
    # its vectors, for the budget, sigma and every draw, and never without
    cfg = ExperimentConfig(n=48, m=40, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2, omega_count=250, trials=3)
    grid = [2, 4, 8, 16]
    monkeypatch.setenv("CURLOW_THREADS", "2")
    expected = run_sweep(cfg, grid)
    Ms = [generate(cfg.synth_spec(cfg.base_stream().derive(k).derive(0)))[0]
          for k in range(cfg.trials)]
    calls = _svds_of(monkeypatch, Ms)
    monkeypatch.setattr(lab, "settle_by_frobenius", lambda *args: None)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    assert run_sweep(cfg, grid) == expected
    assert sorted(calls) == [(k, True) for k in range(cfg.trials)]


def test_recovery_on_a_supplied_full_rank_matrix_factors_it_once(
        monkeypatch):
    # the budget and the recovery bound read one svd of M, whose sigma is
    # the spectrum's
    cfg = ExperimentConfig(n=40, m=40, kind="geometric-spectrum", decay=0.5,
                           synth_r=3, r=3)
    M, _ = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
    expected = run_recovery(cfg, M)
    calls = _svds_of(monkeypatch, [M])
    out = run_recovery(cfg, M)
    assert calls == [(0, True)]
    assert np.array_equal(out.pop("_M_hat"), expected.pop("_M_hat"))
    assert out == expected


def test_run_sweep_validation():
    cfg = ExperimentConfig(n=24, m=24)
    with pytest.raises(ValueError):
        run_sweep(cfg, [])
    with pytest.raises(ValueError):
        run_sweep(cfg, [0, 4])


def _blas():
    blas = linalg.openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    return blas


_SMALL_VERIFY = ExperimentConfig(n=24, m=24, kind="geometric-spectrum",
                                 decay=0.5, synth_r=2, r=2, d=12,
                                 omega_count=200, trials=3,
                                 checks=("delta_triangle", "combine"))
_SMALL_SWEEP = ExperimentConfig(n=24, m=24, kind="exact-low-rank", synth_r=2,
                                r=2, omega_count=250, trials=3)


def test_trial_pools_run_one_blas_thread_and_restore_the_count(monkeypatch):
    blas = _blas()
    seen = []
    for name in ("run_trial", "_sweep_point"):
        def spy(*args, _fn=getattr(lab, name), **kwargs):
            seen.append(blas.get_threads())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lab, name, spy)
    with blas_threads(2):
        monkeypatch.setenv("CURLOW_THREADS", "2")
        run_verify(_SMALL_VERIFY)
        monkeypatch.setenv("CURLOW_THREADS", "2")
        run_sweep(_SMALL_SWEEP, [4, 8])
        assert blas.get_threads() == 2
    # 3 verify trials, then 3 sweep trials of 2 grid points each
    assert seen == [1] * 9


def test_trial_pools_restore_blas_threads_when_a_trial_raises(monkeypatch):
    blas = _blas()
    before = blas.get_threads()

    def boom(*args, **kwargs):
        raise RuntimeError("trial failed")
    monkeypatch.setattr(lab, "run_trial", boom)
    monkeypatch.setattr(lab, "_sweep_point", boom)
    with pytest.raises(RuntimeError, match="trial failed"):
        monkeypatch.setenv("CURLOW_THREADS", "2")
        run_verify(_SMALL_VERIFY)
    assert blas.get_threads() == before
    with pytest.raises(RuntimeError, match="trial failed"):
        monkeypatch.setenv("CURLOW_THREADS", "2")
        run_sweep(_SMALL_SWEEP, [4, 8])
    assert blas.get_threads() == before


def test_run_verify_without_a_blas_library(monkeypatch):
    monkeypatch.setenv("CURLOW_THREADS", "2")
    expected = run_verify(_SMALL_VERIFY)
    monkeypatch.setattr(linalg, "openblas", lambda: None)
    monkeypatch.setenv("CURLOW_THREADS", "2")
    assert run_verify(_SMALL_VERIFY) == expected


def _golden_argv(name):
    path = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
    sys.path.insert(0, str(path.parent))
    try:
        import golden
    finally:
        sys.path.remove(str(path.parent))
    return {cmd: argv for cmd, argv, _ in golden.commands("")}[name]


def _golden_outputs(name, blas_threads, out):
    """Every file the golden command `name` writes when run in a fresh
    interpreter whose BLAS starts with `blas_threads` threads."""
    src = str(Path(lab.__file__).resolve().parents[1])
    code = ("import sys; from curlow.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *_golden_argv(name),
                           "--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # AC7's sweep in fresh interpreters whose BLAS starts with 1 and 2 threads
    one = _golden_outputs("sweep-ac7", "1", tmp_path / "1")
    assert list(one) == ["sweep.csv"]
    assert one == _golden_outputs("sweep-ac7", "2", tmp_path / "2")


def test_recover_bytes_do_not_depend_on_blas_threads(tmp_path):
    # n = 200 exact rank 5 outside the trial pool, where BLAS keeps its
    # own thread count: M_hat.mtx and recovery.json must not depend on it
    one = _golden_outputs("recover", "1", tmp_path / "1")
    assert list(one) == ["M_hat.mtx", "recovery.json"]
    assert one == _golden_outputs("recover", "2", tmp_path / "2")


# a 160 x 150 geometric-0.5 M at r = 1: d = 20 samples take the thin SVD,
# d = 144 = 16 (r + 8) samples the subspace iteration
SCALED_M, _ = generate(SynthSpec(n=160, m=150, kind="geometric-spectrum",
                                 r=150, stream=RngStream(seed=70), decay=0.5))


def scaled_config(d: int) -> ExperimentConfig:
    return ExperimentConfig(n=160, m=150, r=1, d=d, omega_count=3000, seed=71)


@functools.cache
def unscaled_recovery(d: int) -> dict:
    return run_recovery(scaled_config(d), SCALED_M)


@pytest.mark.parametrize("d", [20, 144], ids=["thin-svd", "iteration"])
@settings(deadline=None, derandomize=True, database=None, max_examples=15)
@given(k=st.integers(-60, 60))
def test_run_recovery_is_exact_in_the_units_of_m(d, k):
    base = unscaled_recovery(d)
    out = run_recovery(scaled_config(d), np.ldexp(SCALED_M, k))
    assert np.array_equal(out["_M_hat"], np.ldexp(base["_M_hat"], k))
    for key in ("col_indices", "row_indices", "omega_size", "lambda_min_gram",
                "gamma"):
        assert out[key] == base[key]
    assert out["metrics"]["rel_frobenius"] == base["metrics"]["rel_frobenius"]
    assert out["bases"]["degenerate_gap"] == base["bases"]["degenerate_gap"]
    for side in ("left_sigma", "right_sigma"):
        assert out["bases"][side] == np.ldexp(base["bases"][side], k).tolist()
    lam = out["budget"].pop("lam")
    assert lam == math.ldexp(base["budget"]["lam"], 2 * k)
    assert out["budget"] == {key: v for key, v in base["budget"].items()
                             if key != "lam"}
