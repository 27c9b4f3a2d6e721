"""Golden outputs of a fixed command set, for byte-identity checks.

Runs each command in-process through `curlow.cli.main` into its own
directory under a temporary root, then prints one `command file sha256`
line per output file, sorted. Each command names the exit code it is
expected to give; exits 1 if any command gives another.
One stderr line names the BLAS library, its thread count and the
trial-pool workers (CURLOW_THREADS), so a saved table says which thread
plan it was taken under.
Imports curlow from the `src/` of the checkout this file lives in, so
running the copy in another checkout hashes that checkout's outputs:

    python tools/golden.py > golden.txt
    CURLOW_THREADS=3 python tools/golden.py --compare golden.txt

With --compare FILE it prints, in place of the table, the lines that
differ from the saved table FILE ("-" saved, "+" this run) and one summary
line, and exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from curlow.cli import main  # noqa: E402
from curlow.config import CHECK_NAMES  # noqa: E402
from curlow.io import DENSE_BANNER  # noqa: E402
from curlow.lab import thread_count  # noqa: E402
from curlow.linalg import openblas  # noqa: E402

ALL_CHECKS = "checks=" + ",".join(CHECK_NAMES)


CRLF_MATRIX = "crlf.mtx"
BLANK_LINE_CSV = "blank-line.csv"
POWER_LAW_CONFIG = "power-law.cfg"


def write_crlf_matrix(root: str) -> None:
    """A 7 x 5 dense-array file written by hand into `root`: CRLF line
    ends, a comment and a blank line inside the body, and one entry ended
    by a form feed, which also ends a line."""
    entries = [f"{3 * k % 11 - 5}.{k % 4}5" for k in range(35)]
    body = [*entries[:10], "% a comment inside the body", "", *entries[10:20],
            entries[20] + "\f" + entries[21], *entries[22:]]
    with open(os.path.join(root, CRLF_MATRIX), "w", encoding="ascii",
              newline="\r\n") as fh:
        fh.write("\n".join([DENSE_BANNER, "7 5", *body]) + "\n")


def write_blank_line_csv(root: str) -> None:
    """A 4 x 3 CSV matrix written by hand into `root`, with a blank line
    inside its body, so the reader scans that block line by line."""
    with open(os.path.join(root, BLANK_LINE_CSV), "w", encoding="ascii") as fh:
        fh.write("# rows=4 cols=3\n1.5,-2,0.25\n3,4.75,-1\n\n"
                 "-0.5,2,6\n7,-3.25,0.5\n")


def write_power_law_config(root: str) -> None:
    """A config file written by hand into `root`: a power-law instance with
    a spiky coherence, every check, and a comment."""
    with open(os.path.join(root, POWER_LAW_CONFIG), "w", encoding="utf-8") as fh:
        fh.write("# power-law spectrum, one spiky direction\n"
                 "synth.n = 40\nsynth.m = 30\n"
                 'synth.kind = "power-law-spectrum"\nsynth.decay = 1.5\n'
                 'synth.coherence = "spiky"\nr = 3\ntrials = 3  # few\n'
                 f'checks = "{ALL_CHECKS.split("=", 1)[1]}"\n')


def commands(root: str) -> list[tuple[str, list[str], int]]:
    """(name, argv, expected exit code) triples; `recover-matrix` and
    `cur-matrix-csv` read what `gen` wrote, `recover-matrix-csv` what
    `gen-csv` wrote, and the `write_*` functions write the other inputs."""
    def sets(*pairs):
        return [a for p in pairs for a in ("--set", p)]

    small_verify = ["verify", *sets("synth.n=40", "synth.m=40", "r=2", "d=16",
                                    "omega=600", "trials=4", ALL_CHECKS)]
    exits_0 = [
        ("recover", ["recover", "--save-matrix", *sets(
            "synth.n=200", "synth.m=200", "synth.kind=exact-low-rank", "r=5")]),
        # both sides reach 16 (r + 8), so recovery.json pins the mu_r the
        # budget reads from M's top-r bases by subspace iteration
        ("recover-iterated-budget", ["recover", *sets(
            "synth.n=240", "synth.m=240", "synth.kind=exact-low-rank",
            "r=2")]),
        ("gen", ["gen", *sets("synth.n=120", "synth.m=120", "r=4")]),
        ("recover-matrix", ["recover", "--save-matrix", "--matrix",
                            os.path.join(root, "gen", "M.mtx"), *sets("r=4")]),
        ("gen-csv", ["gen", "--format", "csv",
                     *sets("synth.n=90", "synth.m=70", "r=3")]),
        ("recover-matrix-csv", ["recover", "--save-matrix", "--format", "csv",
                                "--matrix", os.path.join(root, "gen-csv", "M.csv"),
                                *sets("r=3")]),
        ("recover-matrix-crlf", ["recover", "--save-matrix", "--matrix",
                                 os.path.join(root, CRLF_MATRIX), *sets("r=2")]),
        ("verify-json", small_verify + ["--format", "json"]),
        ("verify-csv", small_verify + ["--format", "csv"]),
        ("sweep-ac7", ["sweep", "--d-grid", "2,4,8,16,32", "--seed", "10700",
                       *sets("synth.n=512", "synth.m=512",
                             "synth.kind=exact-low-rank", "r=2", "trials=3")]),
        # full rank and n != m, with an entry budget small enough that some
        # draws break the recovery bound, two of them inside the Frobenius
        # sandwich, so a flipped or misread "holds" changes these bytes
        ("sweep-rect-geometric", ["sweep", "--d-grid", "3,4,8,16", *sets(
            "synth.n=60", "synth.m=48", "synth.kind=geometric-spectrum",
            "r=3", "omega=12", "trials=3")]),
        # more trials than one window holds at any worker count up to 10,
        # so the windows' schedule reaches these bytes
        ("sweep-many-trials", ["sweep", "--d-grid", "2,4,8,16", *sets(
            "synth.n=96", "synth.m=96", "r=2", "trials=12")]),
        ("verify-n200", ["verify", *sets("synth.n=200", "synth.m=200", "r=4",
                                         "trials=20", ALL_CHECKS)]),
        # n != m, so a check that swaps n and m changes these bytes
        ("verify-rect-lowrank", ["verify", *sets(
            "synth.n=60", "synth.m=48", "synth.kind=exact-low-rank", "r=2",
            "d=16", "omega=600", "trials=4", ALL_CHECKS)]),
        ("verify-rect-geometric", ["verify", *sets(
            "synth.n=60", "synth.m=48", "synth.kind=geometric-spectrum", "r=3",
            "d=16", "omega=900", "trials=4", ALL_CHECKS)]),
        ("cur", ["cur", "--c", "12", "--r-rows", "10", "--k", "3", *sets(
            "synth.n=60", "synth.m=48", "r=3")]),
        ("cur-matrix-csv", ["cur", "--format", "csv", "--matrix",
                            os.path.join(root, "gen", "M.mtx"),
                            "--c", "12", "--r-rows", "12", "--k", "4"]),
        # r above the instance's rank: lam = 0 and H is singular
        ("verify-rank-above", ["verify", *sets(
            "synth.n=30", "synth.m=30", "synth.kind=exact-low-rank",
            "synth.r=2", "r=3", "trials=2", ALL_CHECKS)]),
        # a power-law spectrum and a spiky coherence, from a config file
        ("verify-config-file", ["verify", "--config",
                                os.path.join(root, POWER_LAW_CONFIG)]),
        ("recover-matrix-blank-line", ["recover", "--save-matrix", "--format",
                                       "csv", "--matrix",
                                       os.path.join(root, BLANK_LINE_CSV),
                                       *sets("r=2")]),
    ]
    # ill-posed fits: the run writes every trial or point, then exits 2
    exits_2 = [
        # 3 of 6 trials fail, so verify.csv has its error column
        ("verify-ill-posed", ["verify", "--format", "csv", *sets(
            "synth.n=12", "synth.m=12", "synth.kind=exact-low-rank", "r=2",
            "d=4", "omega=8", "trials=6", "checks=delta_triangle,combine")]),
        # failed draws and two skipped points, so sweep.csv has both
        ("sweep-ill-posed", ["sweep", "--d-grid", "1,4,8,13", *sets(
            "synth.n=12", "synth.m=12", "synth.kind=exact-low-rank", "r=2",
            "omega=6", "trials=4")]),
    ]
    return ([(name, argv, 0) for name, argv in exits_0]
            + [(name, argv, 2) for name, argv in exits_2])


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def blas_line() -> str:
    blas = openblas()
    if blas is None:
        return ("blas: bundled OpenBLAS not found, thread count unknown "
                f"workers={thread_count()}")
    return (f"blas: {blas.path} threads={blas.get_threads()} "
            f"workers={thread_count()}")


def table() -> tuple[list[str], bool]:
    """The sorted `command file sha256` lines, and whether every command
    gave its expected exit code."""
    print(blas_line(), file=sys.stderr)
    failed = False
    lines = []
    with tempfile.TemporaryDirectory() as root:
        write_crlf_matrix(root)
        write_blank_line_csv(root)
        write_power_law_config(root)
        for name, argv, expected in commands(root):
            out = os.path.join(root, name)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv + ["--out", out])
            if rc != expected:
                print(f"{name}: exit {rc}, expected {expected}", file=sys.stderr)
                failed = True
                continue
            lines += [f"{name} {f} {sha256(os.path.join(out, f))}"
                      for f in os.listdir(out)]
    return sorted(lines), not failed


def compare(saved: list[str], lines: list[str]) -> list[str]:
    """"- line" for each saved line this run lacks and "+ line" for each
    line of this run the saved table lacks, by command and file, "-"
    first."""
    old, new = set(saved), set(lines)
    return sorted([f"- {ln}" for ln in old - new]
                  + [f"+ {ln}" for ln in new - old],
                  key=lambda d: (d[2:].rsplit(" ", 1)[0], d[0] == "+"))


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hash the outputs of a fixed command set.")
    parser.add_argument("--compare", metavar="FILE",
                        help="diff this run against a saved table")
    args = parser.parse_args(argv)
    lines, ok = table()
    if args.compare is None:
        print("\n".join(lines))
        return 0 if ok else 1
    with open(args.compare, encoding="ascii") as fh:
        saved = sorted(ln.strip() for ln in fh if ln.strip())
    diff = compare(saved, lines)
    if diff:
        print("\n".join(diff))
    print(f"{len(set(saved) & set(lines))} of {len(saved)} saved lines "
          "identical")
    return 0 if ok and not diff else 1


if __name__ == "__main__":
    raise SystemExit(run())
