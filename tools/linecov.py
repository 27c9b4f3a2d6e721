"""The lines of src/curlow that the tier-1 tests never run.

Runs pytest in this process, from the root of the checkout this file lives
in, with `src/` first on the import path as the tier-1 command puts it,
under `sys.settrace` and `threading.settrace`. Only frames whose code lies
in src/curlow are traced line by line. Afterwards it prints, per file, each
executable line that never ran, with its text, and exits with pytest's exit
code. A line is executable when the compiled module maps an instruction to
it. Lines run only in a child process, such as a test's `python -m
curlow.cli`, are not seen. Standard library and pytest only:

    python tools/linecov.py                    # tier-1
    python tools/linecov.py tests/test_io.py   # other pytest arguments
    python tools/linecov.py --expect tools/linecov_allowed.txt

Each unrun line is listed with the function it belongs to. With `--expect
FILE` it exits 1, once pytest has passed, when an unrun line is missing
from FILE, a list of `path function: text` entries, one a line, `#`
starting a comment; an entry that did run is reported but does not fail.

Tier-1 under the tracer takes about 70 s on 2 vCPUs. Do not run it beside
the benchmark (`perfbench/run.py`): each slows the other.
"""
from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     os.pardir))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "curlow") + os.sep
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: str) -> dict[int, str]:
    """The lines that some code object compiled from `path` maps an
    instruction to, each with the qualified name of the innermost one."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = {}
    while todo:
        code = todo.pop(0)
        lines.update((line, code.co_qualname)
                     for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on `args` and the (file, line) pairs run in the
    package while it ran."""
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def report(hits: set[tuple[str, int]]) -> tuple[list[str], list[str]]:
    """One block per package file: its path and count of lines never run,
    then each such line's number, function and text; and the `path
    function: text` key of each such line."""
    out, keys = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = sorted(set(lines) - {line for f, line in hits if f == path})
        if not missed:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        out.append(f"{rel}: {len(missed)} never ran")
        for line in missed:
            entry = f"{lines[line]}: {text[line - 1].strip()}"
            out.append(f"  {line} {entry}")
            keys.append(f"{rel} {entry}")
    return out, keys


def read_expected(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {ln.strip() for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")}


def main(argv: list[str]) -> int:
    expected = None
    if "--expect" in argv:
        at = argv.index("--expect")
        expected = read_expected(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    code, hits = run_traced(argv or TIER1)
    lines, keys = report(hits)
    print("\n".join(lines) if lines else "every executable line ran")
    if expected is None or code:
        return code
    for key in sorted(expected - set(keys)):
        print(f"expected unrun, but ran: {key}")
    unexpected = sorted(set(keys) - expected)
    for key in unexpected:
        print(f"unrun and not expected: {key}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
