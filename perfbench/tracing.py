"""Spans around the calls into each curlow layer, recorded from outside.

`Tracer.installed()` swaps each traced function for a wrapper in the
module namespace its callers look it up in, and puts the originals back on
exit, so untraced runs execute the unmodified program. Spans stay in
memory (name, start, end, parent, op id, attributes) and are written out
once the run ends. `op_metrics` turns one op's spans into the per-layer
metrics listed in LAYER_METRICS.
"""
from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from curlow import bounds, cli, lab, recovery

# numpy.linalg entry points counted by linalg.full_factorizations
FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "qr")

# the checks the workloads reach; build_h_pair is timed with check_h_sandwich
BOUND_CHECKS = ("check_projection", "check_omega1_spectrum",
                "check_strong_convexity", "check_delta", "check_h_sandwich",
                "check_mu_hat_bound", "check_full_rank_recovery", "build_h_pair")

# the paper's algorithm; every other span is the lab's cost
ALGORITHM = frozenset({"sampling.columns", "sampling.rows", "sampling.entries",
                       "recovery.recover", "recovery.build_bases",
                       "recovery.assemble_design", "recovery.solve_core",
                       "recovery.reconstruct"})

# (metric, unit) of the traced run; op_metrics computes all but trace.*
LAYER_METRICS = [
    ("synth.generate_s", "s"),
    ("lab.resolve_budgets_s", "s"),
    ("lab.trial_s", "s"),
    ("lab.pool_busy_frac", "ratio"),
    ("sampling.columns_s", "s"),
    ("sampling.rows_s", "s"),
    ("sampling.entries_s", "s"),
    ("sampling.omega", "count"),
    ("recovery.build_bases_s", "s"),
    ("recovery.assemble_design_s", "s"),
    ("recovery.design_mb", "MB"),
    ("recovery.solve_core_s", "s"),
    ("recovery.reconstruct_s", "s"),
    ("recovery.ill_posed", "count"),
    ("bounds.evaluate_s", "s"),
    ("bounds.check_projection_s", "s"),
    ("bounds.check_omega1_spectrum_s", "s"),
    ("bounds.check_strong_convexity_s", "s"),
    ("bounds.check_delta_s", "s"),
    ("bounds.check_h_sandwich_s", "s"),
    ("bounds.check_mu_hat_bound_s", "s"),
    ("bounds.check_full_rank_recovery_s", "s"),
    ("linalg.full_factorizations", "count"),
    ("linalg.full_factorization_s", "s"),
    ("io.read_matrix_s", "s"),
    ("io.write_matrix_s", "s"),
    ("io.mb", "MB"),
    ("cli.self_s", "s"),
    ("split.algorithm_s", "s"),
    ("split.lab_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


def _design_bytes(args, kwargs, out):
    return {"bytes": int(out.K.nbytes)}


def _omega_size(args, kwargs, out):
    return {"omega": int(out.size)}


def _read_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _write_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _targets():
    """(namespace, attribute, span name, attribute hook) for every call
    into a layer that the benchmark's workloads reach."""
    t = [
        (lab, "run_recovery", "lab.run_recovery", None),
        (lab, "run_verify", "lab.pool", None),
        (lab, "run_sweep", "lab.pool", None),
        (lab, "run_trial", "lab.trial", None),
        (lab, "_sweep_point", "lab.trial", None),
        (lab, "generate", "synth.generate", None),
        (lab, "resolve_budgets", "lab.resolve_budgets", None),
        (lab, "sample_columns", "sampling.columns", None),
        (lab, "sample_rows", "sampling.rows", None),
        (lab, "sample_entries", "sampling.entries", _omega_size),
        (lab, "recover", "recovery.recover", None),
        (lab, "build_bases", "recovery.build_bases", None),
        (lab, "assemble_design", "recovery.assemble_design", _design_bytes),
        (recovery, "build_bases", "recovery.build_bases", None),
        (recovery, "assemble_design", "recovery.assemble_design", _design_bytes),
        (recovery, "solve_core", "recovery.solve_core", None),
        (recovery.RecoveryResult, "reconstruct", "recovery.reconstruct", None),
        (lab, "frobenius_norm", "bounds.norm", None),
        (lab, "spectral_norm", "bounds.norm", None),
        (cli, "main", "cli.main", None),
        (cli, "read_matrix", "io.read_matrix", _read_bytes),
        (cli, "write_matrix", "io.write_matrix", _write_bytes),
    ]
    for name in BOUND_CHECKS:
        span = "bounds.check_h_sandwich" if name == "build_h_pair" else f"bounds.{name}"
        t.append((bounds, name, span, None))
    return t


class Tracer:
    """Collects spans for the ops of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        # factorizations count as full when both input dimensions reach this
        self.full_dim = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._stack()
        # a pool worker's first span hangs off the span that started the pool
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        sid = next(self._ids)
        record = Span(sid, name, 0.0, 0.0, parent, self.op, attrs or {})
        stack.append(sid)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def op_span(self, op: int, shape: tuple[int, int]):
        """Root span of one op; pool workers parent their spans under the
        innermost span open on this thread."""
        self.op = op
        self.set_shape(shape)
        self._op_stack = self._stack()
        with self.span("op") as root:
            yield root

    def set_shape(self, shape: tuple[int, int]) -> None:
        self.full_dim = min(shape) / 2.0

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if hook is not None:
                    record.attrs.update(hook(args, kwargs, out))
                return out
        return traced

    def _wrap_factorization(self, fn, name):
        def traced(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) == 2 and min(shape) >= self.full_dim:
                with self.span("linalg.full_factorization",
                               {"fn": name, "shape": list(shape)}):
                    return fn(a, *args, **kwargs)
            return fn(a, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        # a target the program no longer has is skipped; its metric reads 0
        swaps = [(ns, attr, self._wrap(getattr(ns, attr), name, hook))
                 for ns, attr, name, hook in _targets() if hasattr(ns, attr)]
        swaps += [(np.linalg, fn, self._wrap_factorization(getattr(np.linalg, fn), fn))
                  for fn in FACTORIZATIONS]
        originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in swaps]
        try:
            for ns, attr, wrapper in swaps:
                setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, fn in originals:
                setattr(ns, attr, fn)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in kids.get(s.id, []) if b > s.start and a < s.end]
        out[s.id] = (s.end - s.start) - _union_length(clipped)
    return out


def op_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (root span named "op")."""
    by_id = {s.id: s for s in spans}

    def ancestors(s: Span):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def inclusive(*names: str) -> float:
        # time covered by outermost spans of the named group
        group = set(names)
        return sum(s.end - s.start for s in spans if s.name in group
                   and not any(a.name in group for a in ancestors(s)))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    own = self_times(spans)
    algorithm = sum(own[s.id] for s in spans if s.name in ALGORITHM
                    or any(a.name in ALGORITHM for a in ancestors(s)))
    trials = [s.end - s.start for s in named("lab.trial")]
    pool_wall = inclusive("lab.pool")
    io_bytes = sum(s.attrs.get("bytes", 0) for s in spans if s.name.startswith("io."))
    designs = [s.attrs.get("bytes", 0) for s in named("recovery.assemble_design")]
    m = {
        "synth.generate_s": inclusive("synth.generate"),
        "lab.resolve_budgets_s": inclusive("lab.resolve_budgets"),
        "lab.trial_s": statistics.median(trials) if trials else 0.0,
        "lab.pool_busy_frac": (sum(trials) / (pool_wall * workers)
                               if pool_wall > 0 else 0.0),
        "sampling.columns_s": inclusive("sampling.columns"),
        "sampling.rows_s": inclusive("sampling.rows"),
        "sampling.entries_s": inclusive("sampling.entries"),
        "sampling.omega": float(sum(s.attrs.get("omega", 0)
                                    for s in named("sampling.entries"))),
        "recovery.build_bases_s": inclusive("recovery.build_bases"),
        "recovery.assemble_design_s": inclusive("recovery.assemble_design"),
        "recovery.design_mb": max(designs, default=0) / 1e6,
        "recovery.solve_core_s": inclusive("recovery.solve_core"),
        "recovery.reconstruct_s": inclusive("recovery.reconstruct"),
        "recovery.ill_posed": float(sum(s.attrs.get("error") == "IllPosedError"
                                        for s in named("recovery.solve_core"))),
        "bounds.evaluate_s": inclusive("bounds.norm", "bounds.check_full_rank_recovery"),
        "linalg.full_factorizations": float(len(named("linalg.full_factorization"))),
        "linalg.full_factorization_s": inclusive("linalg.full_factorization"),
        "io.read_matrix_s": inclusive("io.read_matrix"),
        "io.write_matrix_s": inclusive("io.write_matrix"),
        "io.mb": io_bytes / 1e6,
        "cli.self_s": sum(own[s.id] for s in named("cli.main")),
        "split.algorithm_s": algorithm,
        "split.lab_s": sum(own.values()) - algorithm,
    }
    for check in BOUND_CHECKS:
        if check != "build_h_pair":
            m[f"bounds.{check}_s"] = inclusive(f"bounds.{check}")
    return m
