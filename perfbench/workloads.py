"""The four benchmark workloads.

Each op k of a run uses a fresh instance seeded with `seed + k`, so a cache
keyed on inputs cannot fake a gain. A workload splits every op into
`prepare` (untimed fixture work), `run` (the timed call into the program),
`check` (untimed correctness check, returns None or a reason) and
`fingerprint` (bytes that must match between a traced and an untraced run
of the same op).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

from curlow import cli, lab
from curlow.config import ExperimentConfig
from curlow.synth import generate

import checks


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=repr).encode()


class Workload:
    """Defaults: one work item per op, outputs compared as JSON, nothing
    to clean up."""

    shape: tuple[int, int]  # instance shape; sets the full-factorization size

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def items(self, out) -> int:
        return 1

    def fingerprint(self, out) -> bytes:
        return _json_bytes(out)

    def cleanup(self, inp) -> None:
        pass


class RecoverLowRank(Workload):
    """lab.run_recovery on an exact-low-rank 2000 x 2000 instance, r=5,
    automatic budgets."""

    name = "recover-lowrank-n2000"
    shape = (2000, 2000)
    r = 5

    def prepare(self, k: int) -> ExperimentConfig:
        n, m = self.shape
        return ExperimentConfig(n=n, m=m, kind="exact-low-rank",
                                synth_r=self.r, r=self.r, seed=self.seed + k)

    def run(self, cfg, tracer=None) -> dict:
        return lab.run_recovery(cfg)

    def check(self, cfg, out) -> str | None:
        M, _ = generate(cfg.synth_spec(cfg.base_stream().derive(0)))
        return checks.check_lowrank(M, out["_M_hat"])

    def fingerprint(self, out) -> bytes:
        report = {k: v for k, v in out.items() if k != "_M_hat"}
        return _digest(_json_bytes(report), out["_M_hat"].tobytes())


class RecoverFile(Workload):
    """`curlow recover --matrix M.mtx --save-matrix --set r=8` through
    cli.main, on a geometric-0.5 1000 x 1000 matrix that `curlow gen`
    writes before the op."""

    name = "recover-file-n1000"
    shape = (1000, 1000)
    r = 8

    def prepare(self, k: int) -> dict:
        base = os.path.join(self.workdir, f"op{k}")
        fixture = os.path.join(base, "fixture")
        argv = ["gen", "--out", fixture, "--seed", str(self.seed + k),
                "--set", f"synth.n={self.shape[0]}", "--set", f"synth.m={self.shape[1]}",
                "--set", "synth.kind=geometric-spectrum",
                "--set", "synth.decay=0.5", "--set", f"r={self.r}"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"curlow gen exited {rc}")
        return {"base": base, "fixture": fixture, "seed": self.seed + k}

    def run(self, inp, tracer=None) -> dict:
        out = os.path.join(inp["base"], "traced" if tracer else "untraced")
        argv = ["recover", "--matrix", os.path.join(inp["fixture"], "M.mtx"),
                "--save-matrix", "--set", f"r={self.r}", "--out", out,
                "--seed", str(inp["seed"])]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return {"rc": rc, "out": out}

    def check(self, inp, out) -> str | None:
        if out["rc"] != 0:
            return f"curlow recover exited {out['rc']}"
        M = checks.read_dense_mtx(os.path.join(inp["fixture"], "M.mtx"))
        M_hat = checks.read_dense_mtx(os.path.join(out["out"], "M_hat.mtx"))
        sigma = checks.read_spectrum(os.path.join(inp["fixture"], "spectrum.csv"))
        return checks.check_file(M, M_hat, sigma, self.r)

    def fingerprint(self, out) -> bytes:
        parts = [str(out["rc"]).encode()]
        for name in sorted(os.listdir(out["out"])):
            with open(os.path.join(out["out"], name), "rb") as fh:
                parts += [name.encode(), fh.read()]
        return _digest(*parts)

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp["base"], ignore_errors=True)


# The AC4 check groups: config, seed, report names that must hold
AC4_GROUPS = [
    (dict(n=200, m=200, kind="geometric-spectrum", decay=0.5, synth_r=4, r=4,
          checks=("projection", "omega1_spectrum")), 9700,
     ("projection_error_cols", "projection_error_rows", "selection_spectrum")),
    (dict(n=200, m=200, kind="exact-low-rank", synth_r=4, r=4,
          checks=("strong_convexity",)), 9800,
     ("strong_convexity",)),
    (dict(n=250, m=250, kind="geometric-spectrum", decay=0.1, synth_r=1, r=1,
          sandwich_delta=0.5, checks=("delta", "h_sandwich", "mu_hat")), 9900,
     ("delta_bound", "gram_sandwich", "basis_coherence")),
    (dict(n=200, m=200, kind="geometric-spectrum", decay=0.5, synth_r=4, r=4,
          d=200, omega_count=40000, checks=("full_rank_recovery",)), 10000,
     ("recovery_error",)),
]


class VerifyAC4(Workload):
    """lab.run_verify over the four AC4 check groups, 25 trials each."""

    name = "verify-ac4"
    shape = (200, 200)  # per group while traced; see run()
    trials = 25

    def prepare(self, k: int) -> list[ExperimentConfig]:
        return [ExperimentConfig(trials=self.trials, seed=base + self.seed + k, **kw)
                for kw, base, _ in AC4_GROUPS]

    def run(self, cfgs, tracer=None) -> list[dict]:
        results = []
        for cfg in cfgs:
            if tracer is not None:
                tracer.set_shape((cfg.n, cfg.m))
            results.append(lab.run_verify(cfg))
        return results

    def items(self, out) -> int:
        return sum(len(res["trials"]) for res in out)

    def check(self, cfgs, out) -> str | None:
        for (_, _, names), res in zip(AC4_GROUPS, out):
            reason = checks.check_verify_group(res["aggregate"], names, self.trials)
            if reason:
                return reason
        return None


class SweepN512(Workload):
    """lab.run_sweep with the AC7 config: n=m=512, exact-low-rank, r=2,
    3 trials, d-grid 2,4,8,16,32."""

    name = "sweep-n512"
    shape = (512, 512)
    grid = [2, 4, 8, 16, 32]
    trials = 3

    def prepare(self, k: int) -> ExperimentConfig:
        n, m = self.shape
        return ExperimentConfig(n=n, m=m, kind="exact-low-rank", synth_r=2, r=2,
                                trials=self.trials, seed=self.seed + k)

    def run(self, cfg, tracer=None) -> list[dict]:
        return lab.run_sweep(cfg, self.grid)

    def items(self, out) -> int:
        return self.trials * sum(row["rel_error"] is not None for row in out)

    def check(self, cfg, out) -> str | None:
        return checks.check_sweep(out, self.grid)


WORKLOADS = {w.name: w for w in (RecoverLowRank, RecoverFile, VerifyAC4, SweepN512)}

