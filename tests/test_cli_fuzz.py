"""Fuzz of the command line: whatever the `--set` overrides, options and
matrix files, every command exits with a documented code (0/1/2/3) and
never with a traceback."""
import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curlow.cli import main
from curlow.config import CHECK_NAMES
from curlow.synth import COHERENCE_KINDS, KINDS

FUZZ = settings(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# few tokens, so that each odd one is drawn often
_TOKENS = ["inf", "-inf", "nan", "1e300", "-1e300", "0", "-1", "0.5", "3",
           "auto"]
_NUMERIC_KEYS = ["synth.n", "synth.m", "synth.r", "synth.decay",
                 "synth.spike_index", "synth.spike_weight", "r", "d", "omega",
                 "t", "trials", "ridge", "seed", "sandwich_delta"]
_VALUES = {key: st.sampled_from(_TOKENS) for key in _NUMERIC_KEYS}
_VALUES["synth.kind"] = st.sampled_from([*KINDS, "dense"])
_VALUES["synth.coherence"] = st.sampled_from([*COHERENCE_KINDS, "odd"])
_VALUES["checks"] = st.sampled_from(["", "nonsense", ",".join(CHECK_NAMES)])
# the checks of a run before its overrides, so that `verify` draws
_CHECKS = st.lists(st.sampled_from(CHECK_NAMES), min_size=1,
                   max_size=3).map(",".join)
_ENTRIES = [0.0, 1.0, -2.5, 3.25, 1e300, float("nan"), float("inf")]
# about half the files are well-formed
_FAULTS = [None] * 6 + ["truncate", "token", "extra", "header", "dims",
                        "empty"]


@st.composite
def base_argv(draw, command, overrides):
    """argv for `command` on an n x m instance, n, m <= 12, with between
    overrides[0] and overrides[1] `--set` overrides drawn from odd values;
    and n, m."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(m, 12))
    sets = {"synth.n": n, "synth.m": m, "r": draw(st.integers(1, min(m, 3))),
            "trials": 2, "checks": draw(_CHECKS)}
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)),
                             min_size=overrides[0], max_size=overrides[1],
                             unique=True)):
        sets[key] = draw(_VALUES[key])
    argv = [command]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    seed = draw(st.none() | st.integers(-3, 3))
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "sweep":
        argv += ["--d-grid", draw(st.sampled_from(
            ["1,2,4", "2", "", "a", "0,3", "-1", "3,30"]))]
    if command == "cur":
        odd = draw(st.booleans())
        for flag, top in (("--c", m), ("--r-rows", n), ("--k", min(n, m))):
            argv += [flag, str(draw(st.integers(-1, 14) if odd
                                    else st.integers(1, top)))]
    return argv, n, m


@st.composite
def matrix_texts(draw, n, m):
    """The suffix and text of an n x m .mtx or CSV matrix file, possibly
    malformed."""
    if draw(st.booleans()):
        values = [0.0] * (n * m)
    else:
        values = draw(st.lists(st.sampled_from(_ENTRIES),
                               min_size=n * m, max_size=n * m))
    fmt = draw(st.sampled_from(["mtx", "csv"]))
    if fmt == "mtx":
        # column-major, one entry a line
        lines = ["%%MatrixMarket matrix array real general", f"{n} {m}",
                 *(repr(values[i * n + j]) for i in range(m) for j in range(n))]
    else:
        lines = [f"# rows={n} cols={m}"]
        lines += [",".join(repr(values[j * m + i]) for i in range(m))
                  for j in range(n)]
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "truncate":
        lines.pop()
    elif fault == "token":
        lines[draw(st.integers(1, len(lines) - 1))] = "1x"
    elif fault == "extra":
        lines.append(lines[-1])
    elif fault == "header":
        lines[0] = "matrix"
    elif fault == "dims":
        dims = draw(st.sampled_from(["0 3", "-1 2", "a b", "2"]))
        lines[1 if fmt == "mtx" else 0] = (
            dims if fmt == "mtx" else f"# rows={dims.split()[0]} cols=2")
    elif fault == "empty":
        lines = []
    return fmt, "\n".join(lines) + "\n" * bool(lines)


def _exits_cleanly(argv, matrix=None):
    """Run argv in a fresh directory, with the matrix file (suffix, text)
    as M.<suffix> if given: the exit code must be documented and stderr
    must hold no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        if matrix is not None:
            path = os.path.join(tmp, f"M.{matrix[0]}")
            with open(path, "w") as fh:
                fh.write(matrix[1])
            argv = [*argv, "--matrix", path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(FUZZ, max_examples=600)
@given(data=st.data())
def test_every_command_exits_with_a_documented_code(data):
    command = data.draw(st.sampled_from(["gen", "recover", "verify", "sweep",
                                         "cur"]))
    argv, _, _ = data.draw(base_argv(command, (1, 2)))
    _exits_cleanly(argv)


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_matrix_files_exit_with_a_documented_code(data):
    command = data.draw(st.sampled_from(["recover", "cur"]))
    argv, n, m = data.draw(base_argv(command, (0, 1)))
    _exits_cleanly(argv, data.draw(matrix_texts(n, m)))
