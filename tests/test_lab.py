import numpy as np
import pytest

from curlow import lab
from curlow.bounds import sample_size_low_rank, total_observations
from curlow.coherence import mu_r
from curlow.config import ExperimentConfig
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
from curlow.linalg import frobenius_norm
from curlow.recovery import RecoveryInputs, recover
from curlow.sampling import sample_columns, sample_entries, sample_rows
from curlow.synth import generate


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


def test_resolve_budgets_low_rank_formula():
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=2, r=2)
    M, factors = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
    budget = resolve_budgets(cfg, M, factors.sigma)
    mu = mu_r(M, 2).mu
    d_formula, omega_formula = sample_size_low_rank(mu, 2, 3.0)
    assert budget.details["regime"] == "low-rank"
    assert budget.details["d_formula"] == d_formula
    assert budget.d == min(d_formula, 64)
    assert budget.omega == min(omega_formula, 64 * 64)


def test_resolve_budgets_explicit_and_floor():
    cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank", synth_r=3, r=3,
                           d=10, omega_count=500)
    M, factors = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
    budget = resolve_budgets(cfg, M, factors.sigma)
    assert budget.d == 10 and budget.omega == 500
    floor_cfg = ExperimentConfig(n=64, m=64, kind="exact-low-rank",
                                 synth_r=3, r=3, d=1)
    budget = resolve_budgets(floor_cfg, M, factors.sigma)
    assert budget.d == 3  # never below the target rank


def test_resolve_budgets_full_rank_regime():
    cfg = ExperimentConfig(n=48, m=48, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2)
    M, factors = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
    budget = resolve_budgets(cfg, M, factors.sigma)
    assert budget.details["regime"] == "full-rank"
    assert budget.d <= 48
    assert budget.omega <= 48 * 48
    assert budget.details["omega_formula"] >= budget.omega
    assert "lam" in budget.details and "numerical_rank" in budget.details


def test_trial_context_caches_samples():
    cfg = ExperimentConfig(n=32, m=32, kind="exact-low-rank", synth_r=2, r=2,
                           checks=("delta", "combine"))
    stream = cfg.base_stream().derive(0)
    M, sigma, budget = load_instance(cfg, stream)
    ctx = Draw(cfg, M, sigma, budget.d, budget.omega, stream)
    idx1, _ = ctx.cols()
    idx2, _ = ctx.cols()
    assert idx1 is idx2
    assert ctx.bases() is ctx.bases()


def test_run_trial_report_names():
    cfg = ExperimentConfig(n=32, m=32, kind="geometric-spectrum", decay=0.5,
                           synth_r=2, r=2, d=16, omega_count=300,
                           checks=("projection", "delta_triangle", "sin_theta"))
    record = run_trial(cfg, 0)
    names = [rep["name"] for rep in record["reports"]]
    assert names == ["projection_error_cols", "projection_error_rows",
                     "delta_triangle", "subspace_perturbation"]
    assert record["d"] == 16 and record["omega"] == 300


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


def test_run_verify_thread_invariance():
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.5,
                           synth_r=2, r=2, d=12, omega_count=200, trials=4,
                           checks=("delta_triangle", "omega1_spectrum"))
    one = run_verify(cfg, threads=1)
    four = run_verify(cfg, threads=4)
    assert one == four
    assert len(one["trials"]) == 4
    assert set(one["aggregate"]) == {"delta_triangle", "selection_spectrum"}
    assert one["aggregate"]["delta_triangle"]["holds_rate"] == 1.0


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


def test_run_recovery_on_supplied_matrix():
    g = np.random.default_rng(1)
    U, _ = np.linalg.qr(g.standard_normal((30, 2)))
    V, _ = np.linalg.qr(g.standard_normal((30, 2)))
    M = (U * [3.0, 1.0]) @ V.T
    cfg = ExperimentConfig(n=30, m=30, kind="exact-low-rank", synth_r=2, r=2,
                           d=15, omega_count=400)
    out = run_recovery(cfg, M=M)
    assert out["metrics"]["rel_frobenius"] <= 1e-8


def test_run_sweep_rows_and_skips():
    cfg = ExperimentConfig(n=24, m=24, kind="exact-low-rank", synth_r=2, r=2,
                           omega_count=250, trials=3)
    rows = run_sweep(cfg, [32, 1, 8, 8], threads=2)
    assert [row["d"] for row in rows] == [1, 8, 32]
    assert rows[0]["skipped"] and rows[0]["rel_error"] is None
    assert rows[2]["skipped"]  # d exceeds min(n, m)
    live = rows[1]
    assert "skipped" not in live
    assert live["analytic_total"] == total_observations(24, 8)
    assert live["rel_error"] <= 1e-6
    assert live["observed_total"] == pytest.approx(8 * 24 * 2 + live["omega"])
    assert live["union"] <= live["observed_total"]


def test_run_sweep_thread_invariance():
    # more trials than workers, several live points and a skipped one
    cfg = ExperimentConfig(n=24, m=24, kind="geometric-spectrum", decay=0.4,
                           synth_r=2, r=2, omega_count=250, trials=5)
    grid = [1, 6, 8, 12]
    assert run_sweep(cfg, grid, threads=1) == run_sweep(cfg, grid, threads=3)


def _compose(cfg, M, sigma, stream, d=None):
    # the draw layout spelled out by hand: samples from stream.derive(1..3)
    budget = resolve_budgets(cfg, M, sigma)
    d = budget.d if d is None else d
    col_idx, A = sample_columns(M, d, stream.derive(1))
    row_idx, B = sample_rows(M, d, stream.derive(2))
    omega = sample_entries(M, budget.omega, stream.derive(3))
    _, M_hat = recover(RecoveryInputs(A=A, B=B, omega=omega, r=cfg.r),
                       ridge=cfg.ridge)
    return col_idx, row_idx, omega, M_hat


def test_run_recovery_stream_layout():
    cfg = ExperimentConfig(n=40, m=40, kind="geometric-spectrum", decay=0.5,
                           synth_r=3, r=3, d=14, omega_count=700)
    base = cfg.base_stream()
    M, factors = generate(cfg.synth_spec(base.derive(0)))
    col_idx, row_idx, omega, M_hat = _compose(cfg, M, factors.sigma, base)
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
        M, factors = generate(cfg.synth_spec(stream.derive(0)))
        *_, M_hat = _compose(cfg, M, factors.sigma, stream.derive(1 + d), d)
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
    rows = run_sweep(cfg, [1, 4, 8, 12, 30], threads=2)
    assert sum("skipped" not in row for row in rows) == 3
    assert sorted(calls) == ["generate"] * 2 + ["resolve_budgets"] * 2
    calls.clear()
    run_sweep(cfg, [1, 30])
    assert calls == []


def test_run_sweep_validation():
    cfg = ExperimentConfig(n=24, m=24)
    with pytest.raises(ValueError):
        run_sweep(cfg, [])
    with pytest.raises(ValueError):
        run_sweep(cfg, [0, 4])
