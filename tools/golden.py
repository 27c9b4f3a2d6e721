"""Golden outputs of a fixed command set, for byte-identity checks.

Runs each command in-process through `curlow.cli.main` into its own
directory under a temporary root, then prints one `command file sha256`
line per output file, sorted. Exits 1 if any command exits nonzero.
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
from curlow.lab import thread_count  # noqa: E402
from curlow.linalg import openblas  # noqa: E402

ALL_CHECKS = ("checks=projection,delta,delta_triangle,combine,halko,"
              "omega1_spectrum,strong_convexity,h_sandwich,mu_hat,sin_theta,"
              "full_rank_recovery")


def commands(root: str) -> list[tuple[str, list[str]]]:
    """(name, argv) pairs; `recover-matrix` reads what `gen` wrote, and
    `recover-matrix-csv` what `gen-csv` wrote."""
    def sets(*pairs):
        return [a for p in pairs for a in ("--set", p)]

    small_verify = ["verify", *sets("synth.n=40", "synth.m=40", "r=2", "d=16",
                                    "omega=600", "trials=4", ALL_CHECKS)]
    return [
        ("recover", ["recover", "--save-matrix", *sets(
            "synth.n=200", "synth.m=200", "synth.kind=exact-low-rank", "r=5")]),
        ("gen", ["gen", *sets("synth.n=120", "synth.m=120", "r=4")]),
        ("recover-matrix", ["recover", "--save-matrix", "--matrix",
                            os.path.join(root, "gen", "M.mtx"), *sets("r=4")]),
        ("gen-csv", ["gen", "--format", "csv",
                     *sets("synth.n=90", "synth.m=70", "r=3")]),
        ("recover-matrix-csv", ["recover", "--save-matrix", "--format", "csv",
                                "--matrix", os.path.join(root, "gen-csv", "M.csv"),
                                *sets("r=3")]),
        ("verify-json", small_verify + ["--format", "json"]),
        ("verify-csv", small_verify + ["--format", "csv"]),
        ("sweep-ac7", ["sweep", "--d-grid", "2,4,8,16,32", "--seed", "10700",
                       *sets("synth.n=512", "synth.m=512",
                             "synth.kind=exact-low-rank", "r=2", "trials=3")]),
        ("verify-n200", ["verify", *sets("synth.n=200", "synth.m=200", "r=4",
                                         "trials=20", ALL_CHECKS)]),
        # n != m, so a check that swaps n and m changes these bytes
        ("verify-rect-lowrank", ["verify", *sets(
            "synth.n=60", "synth.m=48", "synth.kind=exact-low-rank", "r=2",
            "d=16", "omega=600", "trials=4", ALL_CHECKS)]),
        ("verify-rect-geometric", ["verify", *sets(
            "synth.n=60", "synth.m=48", "synth.kind=geometric-spectrum", "r=3",
            "d=16", "omega=900", "trials=4", ALL_CHECKS)]),
        # r above the instance's rank: lam = 0 and H is singular
        ("verify-rank-above", ["verify", *sets(
            "synth.n=30", "synth.m=30", "synth.kind=exact-low-rank",
            "synth.r=2", "r=3", "trials=2", ALL_CHECKS)]),
    ]


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
    exited 0."""
    print(blas_line(), file=sys.stderr)
    failed = False
    lines = []
    with tempfile.TemporaryDirectory() as root:
        for name, argv in commands(root):
            out = os.path.join(root, name)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv + ["--out", out])
            if rc != 0:
                print(f"{name}: exit {rc}", file=sys.stderr)
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
