"""Tests that the benchmark's checks reject bad output and that tracing
leaves the program's results unchanged.

    python3 -m pytest perfbench -q
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curlow import lab  # noqa: E402
from curlow.config import ExperimentConfig  # noqa: E402
from curlow.io import write_matrix  # noqa: E402


def _planted(n, sigma, seed=0):
    g = np.random.default_rng(seed)
    U, _ = np.linalg.qr(g.standard_normal((n, n)))
    V, _ = np.linalg.qr(g.standard_normal((n, n)))
    return (U * sigma) @ V.T, U, V


def test_lowrank_check_rejects_one_entry_off():
    sigma = np.zeros(60)
    sigma[:5] = [9.0, 7.0, 4.0, 2.0, 1.0]
    M, _, _ = _planted(60, sigma)
    assert checks.check_lowrank(M, M.copy()) is None
    bad = M.copy()
    bad[17, 3] += 1e-3
    assert "rel_frobenius" in checks.check_lowrank(M, bad)


def test_file_check_accepts_eckart_young_and_rejects_one_entry_off():
    r = 8
    sigma = 0.5 ** np.arange(200.0)
    M, U, V = _planted(200, sigma)
    best = (U[:, :r] * sigma[:r]) @ V[:, :r].T
    assert checks.eckart_young_rel(sigma, r) == pytest.approx(0.5 ** r, rel=1e-3)
    assert checks.check_file(M, best, sigma, r) is None
    for i, j in [(0, 0), (17, 3), (199, 120)]:
        bad = best.copy()
        bad[i, j] += 1e-3
        assert "Eckart-Young" in checks.check_file(M, bad, sigma, r)


def _slot(met, rate):
    return {"count": 25, "premises_met": met, "holds": 0,
            "holds_given_premises": 0, "holds_rate": rate}


def test_verify_check_rejects_low_holds_rate_and_missing_premises():
    names = ("a", "b")
    assert checks.check_verify_group({"a": _slot(25, 1.0), "b": _slot(13, 0.9)},
                                     names, 25) is None
    assert "holds_rate" in checks.check_verify_group(
        {"a": _slot(25, 1.0), "b": _slot(25, 0.8)}, names, 25)
    assert "premises" in checks.check_verify_group(
        {"a": _slot(12, 1.0), "b": _slot(25, 1.0)}, names, 25)
    assert "holds_rate" in checks.check_verify_group(
        {"a": _slot(0, None), "b": _slot(25, 1.0)}, names, 0)
    assert "missing" in checks.check_verify_group({"a": _slot(25, 1.0)}, names, 25)


def test_sweep_check_rejects_large_error_and_skipped_rows():
    grid = [2, 4, 8, 16, 32]
    rows = [{"d": d, "rel_error": 0.3 if d < 16 else 1e-15, "skipped": None}
            for d in grid]
    assert checks.check_sweep(rows, grid) is None
    assert "rel_error" in checks.check_sweep(
        [dict(row, rel_error=1e-6) if row["d"] == 16 else row for row in rows], grid)
    assert "no result" in checks.check_sweep(
        [dict(row, rel_error=None, skipped="d outside") if row["d"] == 32 else row
         for row in rows], grid)
    assert "expected" in checks.check_sweep(rows[:4], grid)


def test_mtx_reader_matches_the_program_writer(tmp_path):
    M = np.random.default_rng(3).standard_normal((7, 4))
    path = tmp_path / "M.mtx"
    write_matrix(M, path)
    assert np.array_equal(checks.read_dense_mtx(path), M)


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(0, "op", 0.0, 10.0, None, 0), S(1, "a", 1.0, 4.0, 0, 0),
             S(2, "b", 3.0, 6.0, 0, 0), S(3, "c", 8.0, 12.0, 0, 0),
             S(4, "d", 2.0, 3.0, 1, 0)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_traced_run_matches_untraced_and_restores_the_program():
    cfg = ExperimentConfig(n=40, m=40, kind="exact-low-rank", synth_r=2, r=2,
                           seed=5)
    original = lab.run_recovery
    plain = lab.run_recovery(cfg)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op_span(0, (40, 40)):
        traced = lab.run_recovery(cfg)
    assert lab.run_recovery is original
    assert np.array_equal(plain.pop("_M_hat"), traced.pop("_M_hat"))
    assert plain == traced
    m = tracing.op_metrics(tracer.spans, workers=1)
    assert m["linalg.full_factorizations"] == 9
    assert m["sampling.omega"] == plain["omega_size"]
    assert m["split.algorithm_s"] > 0 and m["split.lab_s"] > 0


class _FakeWorkload(workloads.Workload):
    shape = (1, 1)

    def __init__(self, out, reason=None, error=None):
        super().__init__(0, "")
        self.out, self.reason, self.error = out, reason, error
        self.cleaned = False

    def prepare(self, k):
        return k

    def run(self, inp, tracer=None):
        if self.error:
            raise self.error
        return self.out

    def check(self, inp, out):
        return self.reason

    def cleanup(self, inp):
        self.cleaned = True


def test_failed_checks_and_exceptions_count_as_failed_ops():
    ok = run.run_op(_FakeWorkload(1), 0)
    assert ok["failure"] is None and ok["items"] == 1
    bad = _FakeWorkload(1, reason="rel_frobenius 1e-3 above 1e-6")
    assert run.run_op(bad, 0)["failure"] == "rel_frobenius 1e-3 above 1e-6"
    boom = _FakeWorkload(1, error=ValueError("bad input"))
    rec = run.run_op(boom, 0)
    assert rec["failure"] == "ValueError: bad input" and boom.cleaned


class _Drifting(_FakeWorkload):
    def run(self, inp, tracer=None):
        return 2 if tracer else 1


def test_traced_output_that_differs_counts_as_failed():
    for k in (0, 1):  # untraced first, then traced first
        rec = run.run_op(_Drifting(1), k, tracing.Tracer())
        assert rec["failure"] == "traced output differs from untraced output"
        assert rec["seconds"] is not None and rec["traced_seconds"] is not None
    assert lab.run_recovery.__name__ == "run_recovery"


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == tracing.LAYER_METRICS
    op = {"op": 0, "seconds": 1.0, "items": 1, "failure": None}
    metrics, _ = run.end_to_end([op], [0.3], ("recover_s", "recoveries_per_s"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.LABELS)
    traced = tracing.op_metrics([tracing.Span(0, "op", 0.0, 1.0, None, 0)], 1)
    assert set(traced) == {name for name, _ in layer if not name.startswith("trace.")}
