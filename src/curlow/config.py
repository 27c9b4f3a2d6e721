"""Experiment configuration: a flat dotted-key text format and the
resolved config object shared by the CLI commands.

File syntax, one assignment per line:

    synth.n = 200
    synth.kind = "geometric-spectrum"
    d = auto
    checks = "delta,projection"

Values are decimal literals, quoted strings, or bare words; `#` starts a
comment. Command-line overrides use the same `key = value` keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .io import ParseError
from .sampling import RngStream
from .synth import COHERENCE_KINDS, KINDS, SynthSpec

AUTO = "auto"

# every checker the harness knows how to drive
CHECK_NAMES = (
    "projection",
    "delta",
    "delta_triangle",
    "combine",
    "halko",
    "omega1_spectrum",
    "strong_convexity",
    "h_sandwich",
    "mu_hat",
    "sin_theta",
    "full_rank_recovery",
)


def parse_value(token: str):
    text = token.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str, path: str = "<config>") -> dict:
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, line_no, f"expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(path, line_no, "empty key")
        if key in out:
            raise ParseError(path, line_no, f"duplicate key {key!r}")
        out[key] = parse_value(value)
    return out


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), path=str(path))


def _as_count(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _as_real(value, key: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def _as_budget(value, key: str):
    if value == AUTO:
        return AUTO
    return _as_count(value, key)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command needs: the instance family, the target rank,
    sample budgets (or "auto"), confidence t, trial count, and checks."""

    n: int = 60
    m: int = 60
    kind: str = "geometric-spectrum"
    synth_r: int = 3
    decay: float = 0.5
    coherence: str = "flat"
    spike_index: int = 0
    spike_weight: float = 0.9
    r: int = 3
    d: int | str = AUTO
    omega_count: int | str = AUTO
    t: float = 3.0
    trials: int = 20
    ridge: float = 0.0
    seed: int = 20240801
    sandwich_delta: float = 0.5
    checks: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _as_count(self.n, "synth.n")
        _as_count(self.m, "synth.m")
        if self.kind not in KINDS:
            raise ValueError(f"synth.kind must be one of {KINDS}, got {self.kind!r}")
        if self.coherence not in COHERENCE_KINDS:
            raise ValueError(f"synth.coherence must be one of {COHERENCE_KINDS}")
        _as_count(self.synth_r, "synth.r")
        _as_real(self.decay, "synth.decay")
        _as_real(self.spike_weight, "synth.spike_weight")
        _as_count(self.r, "r")
        _as_budget(self.d, "d")
        _as_budget(self.omega_count, "omega")
        if not _as_real(self.t, "t") > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        _as_count(self.trials, "trials")
        if _as_real(self.ridge, "ridge") < 0:
            raise ValueError(f"ridge must be nonnegative, got {self.ridge}")
        for key, value in (("seed", self.seed),
                           ("synth.spike_index", self.spike_index)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not 0.0 < _as_real(self.sandwich_delta, "sandwich_delta") < 1.0:
            raise ValueError("sandwich_delta must lie in (0, 1)")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r}; known: {CHECK_NAMES}")

    def synth_spec(self, stream: RngStream) -> SynthSpec:
        return SynthSpec(n=self.n, m=self.m, kind=self.kind, r=self.synth_r,
                         stream=stream, decay=self.decay,
                         coherence=self.coherence,
                         spike_index=self.spike_index,
                         spike_weight=self.spike_weight)

    def base_stream(self) -> RngStream:
        return RngStream(seed=self.seed)

    def to_flat(self) -> dict:
        flat = {key: getattr(self, name) for key, name in _KEY_TO_FIELD.items()}
        flat["checks"] = ",".join(self.checks)
        return flat


_KEY_TO_FIELD = {
    "synth.n": "n", "synth.m": "m", "synth.kind": "kind",
    "synth.r": "synth_r", "synth.decay": "decay",
    "synth.coherence": "coherence", "synth.spike_index": "spike_index",
    "synth.spike_weight": "spike_weight",
    "r": "r", "d": "d", "omega": "omega_count", "t": "t",
    "trials": "trials", "ridge": "ridge", "seed": "seed",
    "sandwich_delta": "sandwich_delta", "checks": "checks",
}

_FLOAT_FIELDS = {"decay", "spike_weight", "t", "ridge", "sandwich_delta"}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in _KEY_TO_FIELD:
            raise ValueError(f"unknown config key {key!r}")
        name = _KEY_TO_FIELD[key]
        if name == "checks":
            if not isinstance(value, str):
                raise ValueError(f"checks must be a string, got {value!r}")
            value = tuple(p.strip() for p in value.split(",") if p.strip())
        elif name in _FLOAT_FIELDS and isinstance(value, int):
            value = float(value)
        kwargs[name] = value
    if "synth_r" not in kwargs and "r" in kwargs:
        kwargs["synth_r"] = kwargs["r"]
    return ExperimentConfig(**kwargs)

