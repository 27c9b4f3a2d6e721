import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curlow import bounds, cli, cur
from curlow.cli import load_experiment_config, main, write_csv, write_json
from curlow.config import ExperimentConfig
from curlow.io import DENSE_BANNER, read_matrix, write_matrix
from curlow.linalg import frobenius_norm


def run(*argv):
    return main(list(argv))


def test_gen_round_trip(tmp_path):
    out = tmp_path / "gen"
    rc = run("gen", "--out", str(out), "--set", "synth.n=20", "--set",
             "synth.m=20", "--set", "synth.kind=exact-low-rank", "--set", "r=2")
    assert rc == 0
    M = read_matrix(out / "M.mtx")
    assert M.shape == (20, 20)
    props = json.loads((out / "properties.json").read_text())
    assert props["n"] == 20 and props["r"] == 2
    assert {"mu_r", "mu_lambda", "numerical_rank", "sigma_r", "gap_ok"} <= set(props)
    assert props["config"]["synth.kind"] == "exact-low-rank"
    spectrum = read_matrix(out / "spectrum.csv")
    assert spectrum.shape == (20, 1)
    assert np.count_nonzero(spectrum > 1e-10) == 2


def test_gen_csv_format(tmp_path):
    out = tmp_path / "gen"
    rc = run("gen", "--out", str(out), "--format", "csv",
             "--set", "synth.n=8", "--set", "synth.m=8")
    assert rc == 0
    assert (out / "M.csv").exists()


def test_recover_exact_and_deterministic(tmp_path):
    args = ("recover", "--set", "synth.n=40", "--set", "synth.m=40",
            "--set", "synth.kind=exact-low-rank", "--set", "r=2",
            "--set", "d=20", "--set", "omega=600", "--save-matrix")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert (out1 / "recovery.json").read_bytes() == (out2 / "recovery.json").read_bytes()
    assert (out1 / "M_hat.mtx").read_bytes() == (out2 / "M_hat.mtx").read_bytes()
    report = json.loads((out1 / "recovery.json").read_text())
    assert report["metrics"]["rel_frobenius"] <= 1e-8


def test_recover_metrics_match_written_matrix(tmp_path):
    gen_out = tmp_path / "gen"
    assert run("gen", "--out", str(gen_out), "--set", "synth.n=30",
               "--set", "synth.m=30", "--set", "synth.kind=exact-low-rank",
               "--set", "r=3") == 0
    rec_out = tmp_path / "rec"
    assert run("recover", "--matrix", str(gen_out / "M.mtx"),
               "--out", str(rec_out), "--save-matrix",
               "--set", "r=3", "--set", "d=15", "--set", "omega=500") == 0
    M = read_matrix(gen_out / "M.mtx")
    M_hat = read_matrix(rec_out / "M_hat.mtx")
    report = json.loads((rec_out / "recovery.json").read_text())
    rel = frobenius_norm(M - M_hat) / frobenius_norm(M)
    # serialized at 17 significant digits, so recomputation agrees tightly
    assert report["metrics"]["rel_frobenius"] == pytest.approx(rel, abs=1e-12)
    assert report["config"]["synth.n"] == 30


def test_recover_wide_matrix_file(tmp_path):
    # auto d is capped at min(n, m): sample_rows draws from the 30 rows
    g = np.random.default_rng(3)
    U, _ = np.linalg.qr(g.standard_normal((30, 3)))
    V, _ = np.linalg.qr(g.standard_normal((80, 3)))
    path = tmp_path / "w.mtx"
    write_matrix((U * [5.0, 2.0, 1.0]) @ V.T, path)
    out = tmp_path / "rec"
    assert run("recover", "--matrix", str(path), "--out", str(out),
               "--set", "r=3") == 0
    report = json.loads((out / "recovery.json").read_text())
    assert report["metrics"]["rel_frobenius"] <= 1e-8


def test_recover_says_when_it_capped_an_auto_budget(tmp_path, capsys):
    # power-law n=m=100: the formulas ask for d=1552 and ~1.8e9 entries
    out = tmp_path / "rec"
    args = ("recover", "--out", str(out), "--set", "synth.n=100",
            "--set", "synth.m=100", "--set", "synth.kind=power-law-spectrum",
            "--set", "r=3")

    def sources():
        budget = json.loads((out / "recovery.json").read_text())["budget"]
        return budget["d_source"], budget["omega_source"]
    assert run(*args) == 0
    assert capsys.readouterr().out.splitlines() == [
        "recovered: rel_frobenius=8.041e-01, omega=10000",
        "capped auto budgets at the instance: d_formula=1552 -> d=100, "
        "omega_formula=1785833132 -> omega=10000"]
    assert sources() == ("capped", "capped")
    assert run(*args, "--set", "d=100", "--set", "omega=10000") == 0
    assert capsys.readouterr().out.splitlines() == [
        "recovered: rel_frobenius=8.041e-01, omega=10000"]
    assert sources() == ("user", "user")


@pytest.mark.parametrize("r", [2, 3], ids=["r=rank", "r=rank+1"])
def test_recover_says_when_its_low_rank_budget_read_an_arbitrary_mu_r(
        tmp_path, capsys, r):
    # exact rank 2: at r = 3 the third singular direction is arbitrary, so
    # the mu_r the budget formulas read is too
    out = tmp_path / "rec"
    assert run("recover", "--out", str(out), "--set", "synth.n=30",
               "--set", "synth.m=30", "--set", "synth.kind=exact-low-rank",
               "--set", "synth.r=2", "--set", f"r={r}") == 0
    budget = json.loads((out / "recovery.json").read_text())["budget"]
    said = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("budget formulas:")]
    if r == 2:
        assert "reason" not in budget and said == []
    else:
        assert budget["reason"] == bounds.RANK_BELOW_R
        assert budget["d_formula"] == 861
        assert said == [f"budget formulas: {bounds.RANK_BELOW_R}"]


def test_recover_csv_output(tmp_path):
    out = tmp_path / "rec"
    assert run("recover", "--format", "csv", "--out", str(out),
               "--set", "synth.n=20", "--set", "synth.m=20",
               "--set", "synth.kind=exact-low-rank", "--set", "r=2",
               "--set", "d=10", "--set", "omega=200") == 0
    lines = (out / "recovery.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    keys = [ln.split(",")[0] for ln in lines[1:]]
    assert "rel_frobenius" in keys and "gamma" in keys


def test_verify_json_and_rates(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = run("verify", "--out", str(out),
             "--set", "synth.n=24", "--set", "synth.m=24",
             "--set", "synth.kind=geometric-spectrum", "--set", "r=2",
             "--set", "d=12", "--set", "omega=250", "--set", "trials=5",
             "--set", "checks=delta_triangle,halko")
    assert rc == 0
    result = json.loads((out / "verify.json").read_text())
    assert len(result["trials"]) == 5
    assert result["aggregate"]["delta_triangle"]["holds_rate"] == 1.0
    text = capsys.readouterr().out
    assert "delta_triangle: holds_rate=1.000" in text
    assert "premise-satisfying of 5" in text


def test_verify_empty_checks(tmp_path):
    out = tmp_path / "ver"
    assert run("verify", "--out", str(out), "--set", "trials=2") == 0
    result = json.loads((out / "verify.json").read_text())
    assert result["aggregate"] == {} and result["trials"] == []


def test_verify_csv_outputs(tmp_path):
    out = tmp_path / "ver"
    assert run("verify", "--format", "csv", "--out", str(out),
               "--set", "synth.n=24", "--set", "synth.m=24", "--set", "r=2",
               "--set", "d=12", "--set", "omega=250", "--set", "trials=3",
               "--set", "checks=omega1_spectrum") == 0
    per_trial = (out / "verify.csv").read_text().splitlines()
    assert per_trial[0] == "trial,name,lhs,rhs,sense,holds,premises_met"
    assert len(per_trial) == 4
    agg = (out / "verify_aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("name,count,")
    assert agg[1].startswith("selection_spectrum,3,")


def test_verify_deterministic_across_threads(tmp_path, monkeypatch):
    args = ("verify", "--set", "synth.n=24", "--set", "synth.m=24",
            "--set", "r=2", "--set", "d=12", "--set", "omega=250",
            "--set", "trials=4", "--set", "checks=projection,sin_theta")
    monkeypatch.setenv("CURLOW_THREADS", "1")
    out1 = tmp_path / "t1"
    assert run(*args, "--out", str(out1)) == 0
    monkeypatch.setenv("CURLOW_THREADS", "4")
    out4 = tmp_path / "t4"
    assert run(*args, "--out", str(out4)) == 0
    assert (out1 / "verify.json").read_bytes() == (out4 / "verify.json").read_bytes()


def test_sweep_table(tmp_path, capsys):
    out = tmp_path / "swp"
    rc = run("sweep", "--d-grid", "2,6,12,99", "--out", str(out),
             "--set", "synth.n=24", "--set", "synth.m=24",
             "--set", "synth.kind=exact-low-rank", "--set", "r=2",
             "--set", "omega=250", "--set", "trials=3")
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    # d=2=r samples of a rank-2 instance can be rank 1: a degenerate split
    assert lines[0] == ("d,omega,observed_total,union,analytic_total,"
                        "rel_error,bound_rate,skipped,degenerate")
    assert len(lines) == 5
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[3]["d"] == "99" and rows[3]["skipped"] != ""  # out of range
    assert rows[0]["d"] == "2" and rows[0]["degenerate"] == "2"
    assert all(row["degenerate"] == "" for row in rows[1:])
    stdout = capsys.readouterr().out.splitlines()
    assert "analytic optimum" in stdout[0]
    assert stdout[1] == "degenerate basis splits: 2 of 9 draws (first: d=2, trial=0)"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_refuses_a_format_it_would_ignore(tmp_path, capsys, fmt):
    # sweep writes sweep.csv only, so --format is an unknown flag there
    out = tmp_path / "swp"
    assert run("sweep", "--d-grid", "4", "--format", fmt, "--out", str(out),
               "--set", "synth.n=12", "--set", "synth.m=12",
               "--set", "r=2", "--set", "trials=1") == 1
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_skipped_rows_have_as_many_fields_as_the_header(tmp_path):
    out = tmp_path / "swp"
    assert run("sweep", "--d-grid", "1,8", "--out", str(out),
               "--set", "synth.n=24", "--set", "synth.m=24", "--set", "r=2",
               "--set", "trials=2") == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [8, 8, 8]
    assert rows[1][0] == "1" and rows[1][-1] == "d outside [r, min(n, m)]"


def test_sweep_ill_posed_draws_are_written_and_exit_2(tmp_path, capsys):
    out = tmp_path / "swp"
    rc = run("sweep", "--d-grid", "4,8", "--out", str(out),
             "--set", "synth.n=12", "--set", "synth.m=12",
             "--set", "synth.kind=exact-low-rank", "--set", "r=2",
             "--set", "omega=6", "--set", "trials=4")
    assert rc == 2
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["d", "omega", "observed_total", "union",
                             "analytic_total", "rel_error", "bound_rate",
                             "skipped", "failed", "degenerate"]
    assert [row["d"] for row in rows] == ["4", "8"]
    failed = sum(int(row["failed"] or 0) for row in rows)
    assert 0 < failed <= 8
    for row in rows:
        measured = [row[k] for k in ("omega", "observed_total", "union",
                                     "rel_error", "bound_rate")]
        all_failed = row["failed"] == "4"
        assert all((v == "") == all_failed for v in measured), row
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"failed draws: {failed} of 8 (first: d=")
    assert ", trial=" in last and "design matrix is rank-deficient" in last


def test_sweep_error_improves_with_budget(tmp_path):
    out = tmp_path / "swp"
    assert run("sweep", "--d-grid", "3,16", "--out", str(out),
               "--set", "synth.n=32", "--set", "synth.m=32",
               "--set", "synth.kind=geometric-spectrum", "--set", "synth.decay=0.5",
               "--set", "r=3", "--set", "omega=400", "--set", "trials=10") == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    errs = {int(row["d"]): float(row["rel_error"]) for row in rows}
    assert errs[16] < errs[3]


def test_cur_command(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    args = ("cur", "--c", "8", "--r-rows", "8", "--k", "2",
            "--set", "synth.n=20", "--set", "synth.m=20",
            "--set", "synth.kind=exact-low-rank", "--set", "r=2")
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert (out1 / "cur.json").read_bytes() == (out2 / "cur.json").read_bytes()
    report = json.loads((out1 / "cur.json").read_text())
    assert report["exact"] is True
    assert report["c"] == 8 and report["shape"] == [20, 20]


def test_cur_on_file(tmp_path):
    gen_out = tmp_path / "gen"
    assert run("gen", "--out", str(gen_out), "--set", "synth.n=16",
               "--set", "synth.m=16", "--set", "synth.kind=exact-low-rank",
               "--set", "r=2") == 0
    out = tmp_path / "cur"
    assert run("cur", "--matrix", str(gen_out / "M.mtx"), "--out", str(out),
               "--c", "6", "--r-rows", "6", "--k", "2") == 0
    report = json.loads((out / "cur.json").read_text())
    assert report["exact"] is True


# --- exit codes ----------------------------------------------------------------


def test_exit_code_bad_arguments():
    assert run("frobnicate") == 1
    assert run("sweep") == 1  # missing required --d-grid
    assert run() == 1


def test_exit_code_help_is_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_exit_code_parse_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("r 3\n")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path)) == 1


def test_exit_code_set_without_a_value(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("recover", "--set", "r", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --set expects key=value, got 'r'\n"
    assert not out.exists()


def test_exit_code_unknown_config_key(tmp_path):
    assert run("verify", "--set", "bogus=1", "--out", str(tmp_path)) == 1


def test_exit_code_ill_posed(tmp_path):
    # 9 entries cannot pin down a 3x3 core
    assert run("recover", "--out", str(tmp_path),
               "--set", "synth.n=30", "--set", "synth.m=30",
               "--set", "synth.kind=exact-low-rank", "--set", "r=3",
               "--set", "d=10", "--set", "omega=9") == 2


def test_verify_sandwich_on_an_h_singular_through_rounding(tmp_path):
    # lam = sigma_9^2 / (nm) ~ 2.8e-20 is positive but below the rounding
    # error of ||H||: each trial reports unmet premises, the run goes on
    out = tmp_path / "ver"
    assert run("verify", "--out", str(out), "--set", "synth.n=60",
               "--set", "synth.m=60", "--set", "synth.decay=0.1",
               "--set", "r=9", "--set", "trials=3",
               "--set", "checks=h_sandwich") == 0
    result = json.loads((out / "verify.json").read_text())
    reports = [rep for rec in result["trials"] for rep in rec["reports"]]
    assert [rep["name"] for rep in reports] == ["gram_sandwich"] * 3
    assert not any(rep["premises_met"] for rep in reports)
    assert result["aggregate"]["gram_sandwich"]["premises_met"] == 0


def test_verify_gram_checks_at_a_rank_below_r(tmp_path):
    # rank(M) = 2 < r = 3, so lam = sigma_3^2 / (nm) = 0 and H = M M^T/(mn)
    # is singular: each trial reports unmet premises, the run goes on
    out = tmp_path / "ver"
    assert run("verify", "--out", str(out), "--set", "synth.n=30",
               "--set", "synth.m=30", "--set", "synth.kind=exact-low-rank",
               "--set", "synth.r=2", "--set", "r=3", "--set", "trials=2",
               "--set", "checks=h_sandwich,sin_theta") == 0
    result = json.loads((out / "verify.json").read_text())
    reports = [rep for rec in result["trials"] for rep in rec["reports"]]
    assert [rep["name"] for rep in reports] == [
        "gram_sandwich", "subspace_perturbation"] * 2
    assert not any(rep["premises_met"] for rep in reports)
    for sandwich in reports[::2]:
        assert sandwich["lhs"] == "Infinity"
        assert sandwich["params"]["lam"] == 0.0
        assert sandwich["params"]["reason"] == "H singular to working precision"


def config_of(tmp_path, text, *sets, seed=None):
    """The config `load_experiment_config` reads from a file holding text
    and the given --set items."""
    path = tmp_path / "c.cfg"
    path.write_text(text)
    return load_experiment_config(argparse.Namespace(
        config=str(path), set=list(sets), seed=seed))


def test_set_overrides_the_file_and_r_carries_synth_r(tmp_path):
    out = config_of(tmp_path, "synth.n = 100\nsynth.m = 100\nr = 3\n",
                    "r=5", "d=20")
    assert out.r == 5
    assert out.synth_r == 5  # r override propagates to the generator rank
    assert out.d == 20
    assert out.n == 100  # untouched fields survive
    assert config_of(tmp_path, "seed = 1\n", "seed=2", seed=3).seed == 3


def test_explicit_synth_r_wins_over_set_r(tmp_path):
    out = config_of(tmp_path, "synth.n = 100\nr = 3\n", "r=5", "synth.r=2")
    assert out.r == 5 and out.synth_r == 2


def test_no_overrides_read_the_file_as_is(tmp_path):
    assert config_of(tmp_path, "synth.n = 70\nsynth.m = 70\n") == \
        ExperimentConfig(n=70, m=70)


def test_gen_keeps_a_synth_r_from_the_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("synth.n = 20\nsynth.m = 20\nsynth.kind = exact-low-rank\n"
                   "synth.r = 5\nr = 4\n")
    out = tmp_path / "gen"
    assert run("gen", "--config", str(cfg), "--set", "r=3",
               "--out", str(out)) == 0
    config = json.loads((out / "properties.json").read_text())["config"]
    assert config["r"] == 3 and config["synth.r"] == 5
    assert np.count_nonzero(read_matrix(out / "spectrum.csv")) == 5


def test_verify_at_a_flat_coherence_writes_every_trial(tmp_path):
    # at m = 2 the top singular vectors are flat up to rounding, so mu_r
    # reads 1 - 2e-16 in some trials; clipped into [1, N/r] once, it sizes
    # the formula budget like any other coherence
    for trials in range(1, 5):
        out = tmp_path / f"ver{trials}"
        assert run("verify", "--out", str(out), "--set", "synth.n=5",
                   "--set", "synth.m=2",
                   "--set", "synth.kind=geometric-spectrum", "--set", "r=1",
                   "--set", "d=1", "--set", "synth.decay=0.01",
                   "--set", "checks=projection",
                   "--set", f"trials={trials}") == 0
        result = json.loads((out / "verify.json").read_text())
        trials_written = [rec["trial"] for rec in result["trials"]]
        assert trials_written == list(range(trials))
        assert all(1.0 <= rep["params"]["mu_r"] <= 5.0
                   for rec in result["trials"] for rep in rec["reports"])


def test_verify_ill_posed_trials_are_written_and_exit_2(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = run("verify", "--out", str(out), "--set", "synth.n=30",
             "--set", "synth.m=30", "--set", "r=3", "--set", "d=5",
             "--set", "omega=4", "--set", "checks=combine,delta_triangle",
             "--set", "trials=4")
    assert rc == 2
    result = json.loads((out / "verify.json").read_text())
    assert result["failed_trials"] == 4
    assert [rec["trial"] for rec in result["trials"]] == [0, 1, 2, 3]
    assert all(rec["reports"] == [] and rec["error"] for rec in result["trials"])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("failed trials: 4 of 4 (first: design matrix is "
                           "rank-deficient")


def test_verify_csv_keeps_trials_around_an_ill_posed_one(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = run("verify", "--format", "csv", "--out", str(out),
             "--set", "synth.n=12", "--set", "synth.m=12",
             "--set", "synth.kind=exact-low-rank", "--set", "r=2",
             "--set", "d=4", "--set", "omega=8", "--set", "trials=6",
             "--set", "checks=delta_triangle,combine")
    assert rc == 2
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "trial,name,lhs,rhs,sense,holds,premises_met,error"
    failed = [ln for ln in lines[1:] if ln.endswith("positive ridge")]
    reported = [ln for ln in lines[1:] if not ln.endswith("positive ridge")]
    assert failed and reported
    assert len(reported) == 2 * (6 - len(failed))
    assert (out / "verify_aggregate.csv").exists()
    assert f"failed trials: {len(failed)} of 6 (first: " in capsys.readouterr().out


def test_exit_code_missing_files(tmp_path):
    assert run("verify", "--config", str(tmp_path / "none.cfg"),
               "--out", str(tmp_path)) == 3
    assert run("recover", "--matrix", str(tmp_path / "none.mtx"),
               "--out", str(tmp_path)) == 3


def test_exit_code_non_ascii_matrix_file(tmp_path, capsys):
    path = tmp_path / "accent.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n2 1\n1.0\n2.\xc3\n")
    assert run("recover", "--matrix", str(path), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {path}:4: non-ASCII byte 0xc3\n"


@pytest.mark.parametrize("name, text, line, message", [
    ("banner.mtx", "%%Matrix array\n2 1\n1\n2\n", 1,
     "missing MatrixMarket banner"),
    ("no-size.mtx", f"{DENSE_BANNER}\n% only a comment\n", 2,
     "missing size line"),
    ("zero.mtx", f"{DENSE_BANNER}\n0 3\n", 2,
     "dimensions must be positive, got 0 3"),
    # the comment sends the block down the line-by-line scan
    ("long.mtx", f"{DENSE_BANNER}\n2 1\n1\n% note\n2\n3\n", 6,
     "more than 2 entries"),
    ("header.csv", "# rows=2\n1,2\n3,4\n", 1,
     "header must be '# rows=R cols=C'"),
    ("plain.txt", "1 2 3\n", 1, "unrecognized matrix header"),
])
def test_exit_code_malformed_matrix_file(tmp_path, capsys, name, text, line,
                                         message):
    path = tmp_path / name
    path.write_text(text)
    assert run("recover", "--matrix", str(path), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


def test_exit_code_checks_that_are_not_a_string(tmp_path, capsys):
    # a file value that no --set overrides is checked on its own line
    cfg = tmp_path / "checks.cfg"
    cfg.write_text("checks = 3\n")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: checks must be a string, got 3\n"


def test_config_file_value_that_set_overrides_is_not_checked(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 7\nr = 0\nchecks = 3\n")
    out = tmp_path / "out"
    assert run("gen", "--config", str(cfg), "--set", "r=2",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: checks must be a string, got 3\n"
    assert run("gen", "--config", str(cfg), "--set", "r=2",
               "--set", "checks=delta", "--out", str(out)) == 0
    # a bad --set value is checked after the merge and names only its key
    assert run("gen", "--config", str(cfg), "--set", "r=0",
               "--set", "checks=delta", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: r must be an integer >= 1, got 0\n"


def test_exit_code_svd_that_does_not_converge(tmp_path, capsys, monkeypatch):
    import scipy.linalg

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def fail_gesvd(*args, **kwargs):
        raise scipy.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(scipy.linalg, "svd", fail_gesvd)
    path = tmp_path / "ones.mtx"
    write_matrix(np.ones((3, 2)), path)
    out = tmp_path / "out"
    assert run("recover", "--matrix", str(path), "--set", "r=1",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: SVD did not converge for 3x2 input "
        "(frobenius norm 2.449490e+00)\n")


def test_exit_code_bad_sweep_grid(tmp_path):
    assert run("sweep", "--d-grid", "a,b", "--out", str(tmp_path)) == 1


def test_exit_code_sizes_the_instance_cannot_hold(tmp_path, capsys):
    # a budget set by the user is refused, never rewritten; r above
    # min(n, m) is refused before the spectrum is indexed
    small = ("--set", "synth.n=20", "--set", "synth.m=20",
             "--set", "synth.kind=exact-low-rank")
    tiny = ("--set", "synth.n=10", "--set", "synth.m=10",
            "--set", "synth.r=3", "--set", "r=12")
    cases = [("recover", *small, "--set", "r=2", "--set", "d=10",
              "--set", "omega=5000"),
             ("recover", *small, "--set", "r=5", "--set", "d=3"),
             ("gen", *tiny), ("recover", *tiny),
             ("verify", *tiny, "--set", "checks=delta")]
    for argv in cases:
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path)) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_exit_code_spiky_instance_of_one_row(tmp_path, capsys):
    assert run("gen", "--out", str(tmp_path), "--set", "synth.n=1",
               "--set", "synth.m=1", "--set", "synth.r=1", "--set", "r=1",
               "--set", "synth.coherence=spiky",
               "--set", "synth.spike_weight=0.5") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "M.mtx").exists()


def test_exit_code_non_finite_or_overflowing_t_and_ridge(tmp_path, capsys):
    # a non-finite t or ridge is refused by the config; a finite t whose
    # budget formula overflows is refused by the formula
    small = ("--set", "synth.n=12", "--set", "synth.m=12", "--set", "r=2",
             "--set", "trials=2")
    cases = [("recover", "--set", "t=inf"), ("recover", "--set", "t=1e300"),
             ("verify", "--set", "t=1e300", "--set", "checks=delta"),
             ("recover", "--set", "ridge=nan"),
             ("recover", "--set", "ridge=inf")]
    for argv in cases:
        capsys.readouterr()
        assert run(*argv, *small, "--out", str(tmp_path)) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    assert not (tmp_path / "recovery.json").exists()


def test_exit_code_matrix_whose_squares_overflow(tmp_path, capsys):
    path = tmp_path / "huge.mtx"
    write_matrix(np.full((3, 3), 1e300), str(path))
    for argv in (("recover", "--set", "r=1"),
                 ("cur", "--c", "2", "--r-rows", "2", "--k", "1")):
        out = tmp_path / argv[0]
        assert run(*argv, "--matrix", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: M is too large") and err.count("\n") == 1
        assert list(out.iterdir()) == []


def test_cur_samples_from_a_stream_other_than_the_generators(tmp_path,
                                                            monkeypatch):
    streams = {}

    def generate(spec, _fn=cli.generate):
        streams["generate"] = spec.stream
        return _fn(spec)

    def sample_columns(M, d, stream, _fn=cur.sample_columns):
        streams["columns"] = stream
        return _fn(M, d, stream)
    monkeypatch.setattr(cli, "generate", generate)
    monkeypatch.setattr(cur, "sample_columns", sample_columns)
    assert run("cur", "--c", "4", "--r-rows", "4", "--k", "2",
               "--set", "synth.n=12", "--set", "synth.m=10",
               "--out", str(tmp_path)) == 0
    assert streams["columns"] != streams["generate"]


def test_python_m_curlow_cli_runs_its_command(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "curlow.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
    gen = python_m("gen", "--out", str(tmp_path), "--set", "synth.n=8",
                   "--set", "synth.m=8", "--set", "r=2")
    assert gen.returncode == 0, gen.stderr
    assert (tmp_path / "M.mtx").exists()
    assert python_m("gen", "--bogus").returncode == 1


def test_verify_sin_theta_at_r_equal_to_n_reports(tmp_path):
    # r = n leaves H no eigenvalue past r: sin theta reports unmet premises
    # and the projection reports of the same trials are kept
    out = tmp_path / "ver"
    assert run("verify", "--out", str(out), "--set", "synth.n=20",
               "--set", "synth.m=20", "--set", "r=20", "--set", "trials=2",
               "--set", "checks=projection,sin_theta") == 0
    result = json.loads((out / "verify.json").read_text())
    reports = [rep for rec in result["trials"] for rep in rec["reports"]]
    assert [rep["name"] for rep in reports] == [
        "projection_error_cols", "projection_error_rows",
        "subspace_perturbation"] * 2
    for sin in reports[2::3]:
        assert not sin["premises_met"] and sin["rhs"] == "Infinity"
        assert sin["params"]["reason"] == "no eigenvalue past r: no eigen-gap"


def test_cur_on_an_all_zero_matrix(tmp_path):
    path = tmp_path / "zero.mtx"
    write_matrix(np.zeros((6, 5)), str(path))
    out = tmp_path / "cur"
    assert run("cur", "--matrix", str(path), "--out", str(out),
               "--c", "2", "--r-rows", "2", "--k", "1") == 0
    report = json.loads((out / "cur.json").read_text())
    assert report["rel_frobenius"] == 0.0 and report["exact"] is True


# --- serialization helpers --------------------------------------------------------


def test_write_json_non_finite(tmp_path):
    path = tmp_path / "x.json"
    write_json({"a": float("inf"), "b": float("-inf"), "c": float("nan"),
                "d": np.float64(1.5), "e": np.int32(2),
                "f": np.array([1.0, 2.0])}, path)
    back = json.loads(path.read_text())
    assert back == {"a": "Infinity", "b": "-Infinity", "c": "NaN",
                    "d": 1.5, "e": 2, "f": [1.0, 2.0]}


def test_write_csv_cells(tmp_path):
    path = tmp_path / "x.csv"
    write_csv([{"a": None, "b": True, "c": 0.1}], ["a", "b", "c"], path)
    assert path.read_text() == "a,b,c\n,true,0.10000000000000001\n"
