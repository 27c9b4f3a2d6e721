"""Stage-timed benchmark for curlow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). Op k of a run uses seed N + k. Ops run back to back until the next
one would end past S seconds; at least one op always runs. Every op's
output is checked, and a failed check, an exception or a nonzero exit code
counts as a failed op with its reason printed.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters that import curlow.cli and finish an n=30 recovery), op_s
(median wall time of one op), items_per_s (median over ops of recoveries,
verify trials or sweep points per second) and peak_rss_mb.

--trace 1 runs each op untraced and traced (the order alternates by op),
requires their outputs to match bit for bit, and reports the per-layer
metrics of the traced runs (median over ops) plus the trace overhead.

`--workload all` runs the four workloads one after the other, each in a
fresh process. The last line of stdout is the result as one JSON object.
The full result, with the thread plan and machine, goes to
perfbench/results/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from curlow import cli
raise SystemExit(cli.main(["recover", "--out", sys.argv[2],
                           "--set", "synth.n=30", "--set", "synth.m=30",
                           "--set", "r=2", "--set", "d=12", "--set", "omega=300"]))
"""
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "CURLOW_THREADS")
# the names the end-to-end metrics carry on each workload
LABELS = {
    "recover-lowrank-n2000": ("recover_s", "recoveries_per_s"),
    "recover-file-n1000": ("recover_s", "recoveries_per_s"),
    "verify-ac4": ("verify_pass_s", "verify_trials_per_s"),
    "sweep-n512": ("sweep_s", "sweep_points_per_s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(LABELS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def thread_plan() -> dict:
    import numpy as np
    from curlow import lab

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "pool_workers": lab.thread_count(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def measure_setup(src: str, workdir: str) -> list[float]:
    """Wall time of fresh interpreters that import curlow.cli and finish
    one n=30 recovery."""
    times = []
    for k in range(SETUP_REPEATS):
        out = os.path.join(workdir, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src, out],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up recovery exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
    return times


def run_op(wl, k: int, tracer=None) -> dict:
    """One op: prepare (untimed), run (timed), check (untimed). Traced, it
    also runs untraced, in alternating order so neither run is always
    the first, and requires the two outputs to match."""
    record = {"op": k, "seconds": None, "items": 0, "failure": None}
    inp = None

    def untraced():
        return wl.run(inp)

    def traced():
        with tracer.installed(), tracer.op_span(k, wl.shape):
            return wl.run(inp, tracer)

    runs = [("seconds", untraced)]
    if tracer is not None:
        runs.append(("traced_seconds", traced))
        if k % 2:
            runs.reverse()
    try:
        inp = wl.prepare(k)
        outs = {}
        for key, fn in runs:
            t0 = time.perf_counter()
            outs[key] = fn()
            record[key] = time.perf_counter() - t0
        out = outs.get("traced_seconds", outs["seconds"])
        if tracer is not None and wl.fingerprint(out) != wl.fingerprint(outs["seconds"]):
            record["failure"] = "traced output differs from untraced output"
        record["failure"] = record["failure"] or wl.check(inp, out)
        record["items"] = wl.items(out)
    except Exception as exc:  # a failed op is counted, never fatal
        record["failure"] = f"{type(exc).__name__}: {exc}"
    finally:
        if inp is not None:
            wl.cleanup(inp)
    return record


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup, label) -> tuple[dict, dict]:
    timed = [op["seconds"] for op in ops if op["seconds"] is not None]
    op_label, items_label = label
    metrics = {
        "setup_s": (_median(setup), "s"),
        "op_s": (_median(timed), "s"),
        "items_per_s": (_median(op["items"] / op["seconds"] for op in ops
                                if op["seconds"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_s": f"{op_label}, median of {len(timed)} ops",
        "items_per_s": f"{items_label}, median of {len(timed)} ops",
        "peak_rss_mb": "peak RSS of this process",
    }
    return metrics, notes


def per_layer(ops, tracer, workers, label) -> tuple[dict, dict]:
    import tracing

    traced = [op for op in ops if "traced_seconds" in op]
    per_op = [tracing.op_metrics([s for s in tracer.spans if s.op == op["op"]], workers)
              for op in traced]
    metrics = {name: (_median(m[name] for m in per_op), unit)
               for name, unit in tracing.LAYER_METRICS
               if not name.startswith("trace.")}
    metrics["trace.op_s"] = (_median(op["traced_seconds"] for op in traced), "s")
    metrics["trace.overhead_s"] = (
        _median(op["traced_seconds"] - op["seconds"] for op in traced), "s")
    notes = {"trace.op_s": f"traced {label[0]}, median of {len(traced)} ops",
             "trace.overhead_s": f"traced minus untraced {label[0]}"}
    return metrics, notes


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                             "--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for name in LABELS]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "curlow", "__init__.py")):
        print(f"error: no curlow sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tracing
    import workloads

    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        plan = thread_plan()
        setup = [] if args.trace else measure_setup(src, workdir)
        tracer = tracing.Tracer() if args.trace else None
        ops, cycles = [], []
        start = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            ops.append(run_op(wl, len(ops), tracer))
            cycles.append(time.perf_counter() - c0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(cycles) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    label = LABELS[wl.name]
    if tracer is None:
        metrics, notes = end_to_end(ops, setup, label)
    else:
        metrics, notes = per_layer(ops, tracer, plan["pool_workers"], label)
    failed = [op for op in ops if op["failure"]]
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "thread_plan": plan, "setup_s": setup,
                   "ops": ops, **result}, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(ops)} ops in {elapsed:.1f} s")
    print("thread plan: " + json.dumps(plan, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':34s} {len(failed) / len(ops):14.6g} ratio  "
          f"{len(failed)} failed of {len(ops)} ops")
    for op in failed:
        print(f"  op {op['op']} failed: {op['failure']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
