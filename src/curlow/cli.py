"""Command-line experiment harness.

Subcommands: gen (synthesize an instance), recover (sample and solve),
verify (Monte-Carlo inequality checks), sweep (budget grid), cur
(column/row baseline). Every command is deterministic given its config:
reruns produce byte-identical files. Exit codes: 0 success, 1 argument or
parse errors, 2 ill-posed solve or an SVD that did not converge, 3 I/O
errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import lab
from .bounds import optimal_d, total_observations
from .config import (
    ExperimentConfig,
    config_from_mapping,
    parse_value,
    read_config,
)
from .cur import cur_decompose, cur_error_ratio
from .io import ParseError, read_matrix, write_matrix
from .linalg import SvdConvergenceError
from .recovery import IllPosedError
from .synth import generate, measured_properties


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return "Infinity" if x > 0 else ("-Infinity" if x < 0 else "NaN")
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(obj, path) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(rows: list[dict], columns: list[str], path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([_csv_cell(row.get(c)) for c in columns] for row in rows)


def load_experiment_config(args) -> ExperimentConfig:
    """The config file's keys, overridden by each --set and then by
    --seed, read as one mapping. A file key that neither overrides is
    checked on its own line."""
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = parse_value(value)
    if args.seed is not None:
        overrides["seed"] = args.seed
    mapping = read_config(args.config, overrides) if args.config else {}
    return config_from_mapping({**mapping, **overrides})


def _matrix_ext(fmt: str) -> tuple[str, str]:
    return ("csv", "csv") if fmt == "csv" else ("mtx", "dense-array")


def cmd_gen(args) -> int:
    cfg = load_experiment_config(args)
    inst = lab.load_instance(cfg, cfg.base_stream())
    os.makedirs(args.out, exist_ok=True)
    ext, mfmt = _matrix_ext(args.format)
    write_matrix(inst.M, os.path.join(args.out, f"M.{ext}"), format=mfmt)
    write_matrix(inst.planted_sigma.reshape(-1, 1),
                 os.path.join(args.out, "spectrum.csv"), format="csv")
    props = measured_properties(inst)
    props["config"] = cfg.to_flat()
    write_json(props, os.path.join(args.out, "properties.json"))
    print(f"wrote M.{ext}, spectrum.csv, properties.json to {args.out}")
    return 0


def cmd_recover(args) -> int:
    cfg = load_experiment_config(args)
    os.makedirs(args.out, exist_ok=True)
    M = read_matrix(args.matrix) if args.matrix else None
    if M is not None:
        n, m = M.shape
        cfg = dataclasses.replace(cfg, n=n, m=m)
    report = lab.run_recovery(cfg, M=M)
    M_hat = report.pop("_M_hat")
    ext, mfmt = _matrix_ext(args.format)
    if args.save_matrix:
        write_matrix(M_hat, os.path.join(args.out, f"M_hat.{ext}"), format=mfmt)
    if args.format == "csv":
        flat = {
            "rel_frobenius": report["metrics"]["rel_frobenius"],
            "spectral_sq": report["metrics"]["spectral_sq"],
            "lambda_min_gram": report["lambda_min_gram"],
            "gamma": report["gamma"],
            "residual": report["residual"],
            "omega_size": report["omega_size"],
        }
        rows = [{"key": k, "value": flat[k]} for k in sorted(flat)]
        write_csv(rows, ["key", "value"],
                  os.path.join(args.out, "recovery.csv"))
    else:
        write_json(report, os.path.join(args.out, "recovery.json"))
    rel = report["metrics"]["rel_frobenius"]
    print(f"recovered: rel_frobenius={rel:.3e}, omega={report['omega_size']}")
    budget = report["budget"]
    capped = [f"{key}_formula={budget[key + '_formula']} -> {key}={budget[key]}"
              for key in ("d", "omega") if budget[key + "_source"] == "capped"]
    if capped:
        print(f"capped auto budgets at the instance: {', '.join(capped)}")
    if "reason" in budget:
        print(f"budget formulas: {budget['reason']}")
    return 0


_TRIAL_COLUMNS = ["trial", "name", "lhs", "rhs", "sense", "holds",
                  "premises_met"]
_AGG_COLUMNS = ["name", "count", "premises_met", "holds",
                "holds_given_premises", "holds_rate"]


def cmd_verify(args) -> int:
    cfg = load_experiment_config(args)
    os.makedirs(args.out, exist_ok=True)
    result = lab.run_verify(cfg)
    failed = [record for record in result["trials"] if "error" in record]
    if args.format == "csv":
        trial_rows = []
        for record in result["trials"]:
            for rep in record["reports"]:
                trial_rows.append({"trial": record["trial"], **rep})
            if "error" in record:
                trial_rows.append({"trial": record["trial"],
                                   "error": record["error"]})
        columns = _TRIAL_COLUMNS + ["error"] if failed else _TRIAL_COLUMNS
        write_csv(trial_rows, columns, os.path.join(args.out, "verify.csv"))
        agg_rows = [{"name": name, **slot}
                    for name, slot in sorted(result["aggregate"].items())]
        write_csv(agg_rows, _AGG_COLUMNS,
                  os.path.join(args.out, "verify_aggregate.csv"))
    else:
        write_json(result, os.path.join(args.out, "verify.json"))
    for name, slot in sorted(result["aggregate"].items()):
        rate = slot["holds_rate"]
        shown = "n/a" if rate is None else f"{rate:.3f}"
        print(f"{name}: holds_rate={shown} "
              f"({slot['holds_given_premises']}/{slot['premises_met']} "
              f"premise-satisfying of {slot['count']})")
    if failed:
        print(f"failed trials: {len(failed)} of {len(result['trials'])} "
              f"(first: {failed[0]['error']})")
        return 2
    return 0


_SWEEP_COLUMNS = ["d", "omega", "observed_total", "union", "analytic_total",
                  "rel_error", "bound_rate", "skipped"]


def cmd_sweep(args) -> int:
    cfg = load_experiment_config(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        grid = [int(tok) for tok in args.d_grid.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--d-grid expects comma-separated integers, "
                         f"got {args.d_grid!r}")
    rows = lab.run_sweep(cfg, grid)
    failed = [row for row in rows if "failed" in row]
    degenerate = [row for row in rows if "degenerate" in row]
    columns = (_SWEEP_COLUMNS + ["failed"] * bool(failed)
               + ["degenerate"] * bool(degenerate))
    write_csv(rows, columns, os.path.join(args.out, "sweep.csv"))
    best = optimal_d(cfg.n)
    print(f"swept {len(rows)} grid points; analytic optimum near d={best} "
          f"(total {total_observations(cfg.n, best):.0f})")
    draws = cfg.trials * sum("skipped" not in row for row in rows)
    if degenerate:
        print(f"degenerate basis splits: "
              f"{sum(row['degenerate'] for row in degenerate)} of {draws} "
              f"draws (first: d={degenerate[0]['d']}, "
              f"trial={degenerate[0]['degenerate_trial']})")
    if failed:
        print(f"failed draws: {sum(row['failed'] for row in failed)} of "
              f"{draws} (first: d={failed[0]['d']}, {failed[0]['error']})")
        return 2
    return 0


def cmd_cur(args) -> int:
    cfg = load_experiment_config(args)
    os.makedirs(args.out, exist_ok=True)
    stream = cfg.base_stream()
    if args.matrix:
        M = read_matrix(args.matrix)
    else:
        M, _ = generate(cfg.synth_spec(stream.derive(0)))
    scale = lab.checked_frobenius(M)
    # derive(0) is the generator's stream; the samples come from derive(1)
    factors = cur_decompose(M, args.c, args.r_rows, stream.derive(1))
    report_obj = cur_error_ratio(M, factors, args.k)
    rel = 0.0 if scale == 0 else report_obj.cur_error / scale
    report = {"c": args.c, "r_rows": args.r_rows, "k": args.k,
              "seed": stream.seed, "rel_frobenius": float(rel),
              "shape": list(M.shape), **report_obj.to_dict()}
    if args.format == "csv":
        rows = [{"key": k, "value": report[k]} for k in sorted(report)
                if not isinstance(report[k], list)]
        write_csv(rows, ["key", "value"], os.path.join(args.out, "cur.csv"))
    else:
        write_json(report, os.path.join(args.out, "cur.json"))
    shown = "exact" if report_obj.exact else f"{report_obj.ratio:.4f}"
    print(f"cur baseline: error ratio {shown} at k={args.k}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlow",
        description="Low-rank recovery from sampled columns, rows, and "
                    "entries, with an empirical bounds lab.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, formats=True):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    p_gen = sub.add_parser("gen", help="generate a synthetic instance")
    shared(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_rec = sub.add_parser("recover", help="sample and recover a matrix")
    shared(p_rec)
    p_rec.add_argument("--matrix", default=None,
                       help="recover this matrix file instead of a synthetic one")
    p_rec.add_argument("--save-matrix", action="store_true",
                       help="also write the recovered matrix")
    p_rec.set_defaults(func=cmd_recover)

    p_ver = sub.add_parser("verify", help="run configured inequality checks")
    shared(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    # sweep writes sweep.csv only, so it takes no --format
    p_swp = sub.add_parser("sweep", help="error and observation count over a d grid")
    shared(p_swp, formats=False)
    p_swp.add_argument("--d-grid", required=True,
                       help="comma-separated column/row budgets")
    p_swp.set_defaults(func=cmd_sweep)

    p_cur = sub.add_parser("cur", help="column/row baseline decomposition")
    shared(p_cur)
    p_cur.add_argument("--matrix", default=None, help="input matrix file")
    p_cur.add_argument("--c", type=int, required=True, help="columns to sample")
    p_cur.add_argument("--r-rows", type=int, required=True, help="rows to sample")
    p_cur.add_argument("--k", type=int, required=True, help="comparison rank")
    p_cur.set_defaults(func=cmd_cur)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (IllPosedError, SvdConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
