import pytest

from curlow.config import (
    AUTO,
    CHECK_NAMES,
    ExperimentConfig,
    config_from_mapping,
    parse_config_text,
    parse_value,
    read_config,
)
from curlow.io import ParseError


def test_parse_value_kinds():
    assert parse_value("42") == 42
    assert isinstance(parse_value("42"), int)
    assert parse_value("0.5") == 0.5
    assert parse_value('"geometric-spectrum"') == "geometric-spectrum"
    assert parse_value("'auto'") == "auto"
    assert parse_value("auto") == "auto"
    assert parse_value("  7 ") == 7


def test_parse_config_text_basics():
    text = """
    # an experiment
    synth.n = 100   # inline comment
    synth.kind = "exact-low-rank"
    d = auto
    t = 2.5
    """
    out = parse_config_text(text)
    assert out == {"synth.n": 100, "synth.kind": "exact-low-rank",
                   "d": "auto", "t": 2.5}


def test_parse_config_duplicate_key():
    with pytest.raises(ParseError) as err:
        parse_config_text("r = 3\nr = 4\n")
    assert "duplicate" in str(err.value)


def test_parse_config_missing_equals():
    with pytest.raises(ParseError) as err:
        parse_config_text("r 3\n")
    assert err.value.line_no == 1


def test_parse_config_empty_key():
    with pytest.raises(ParseError):
        parse_config_text("= 3\n")


def test_read_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 99\nchecks = \"delta,halko\"\n")
    assert read_config(path) == {"seed": 99, "checks": "delta,halko"}


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.n == cfg.m == 60
    assert cfg.kind == "geometric-spectrum"
    assert cfg.d == AUTO and cfg.omega_count == AUTO
    assert cfg.t == 3.0
    assert cfg.checks == ()
    assert cfg.seed == 20240801


def test_config_from_mapping_and_checks():
    cfg = config_from_mapping({"synth.n": 80, "synth.m": 64, "r": 4,
                               "checks": "delta, halko ,projection"})
    assert cfg.n == 80 and cfg.m == 64
    assert cfg.r == 4
    assert cfg.synth_r == 4  # follows r unless set explicitly
    assert cfg.checks == ("delta", "halko", "projection")


def test_config_synth_r_independent_when_given():
    cfg = config_from_mapping({"r": 2, "synth.r": 5, "synth.n": 64, "synth.m": 64})
    assert cfg.r == 2 and cfg.synth_r == 5


def test_int_to_float_coercion():
    cfg = config_from_mapping({"t": 4, "ridge": 0})
    assert cfg.t == 4.0 and isinstance(cfg.t, float)
    assert cfg.ridge == 0.0 and isinstance(cfg.ridge, float)


def test_unknown_key_rejected():
    with pytest.raises(ValueError) as err:
        config_from_mapping({"samples": 10})
    assert "unknown config key" in str(err.value)


def test_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="dense")
    with pytest.raises(ValueError):
        ExperimentConfig(d="some")
    with pytest.raises(ValueError):
        ExperimentConfig(d=0)
    with pytest.raises(ValueError):
        ExperimentConfig(t=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(ridge=-1.0)
    for bad in (float("inf"), float("nan"), "abc"):
        for name in ("t", "ridge", "decay", "spike_weight", "sandwich_delta"):
            with pytest.raises(ValueError):
                ExperimentConfig(**{name: bad})
    for bad in (0.5, "abc"):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=bad)
        with pytest.raises(ValueError):
            ExperimentConfig(spike_index=bad)
    # the range is SynthSpec's to check, and only a spiky instance reads it
    assert ExperimentConfig(spike_index=-1).spike_index == -1
    with pytest.raises(ValueError):
        ExperimentConfig(sandwich_delta=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(checks=("delta", "nonsense"))
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)


def test_every_known_check_is_accepted():
    cfg = ExperimentConfig(checks=CHECK_NAMES)
    assert cfg.checks == CHECK_NAMES


def test_to_flat_round_trips():
    cfg = ExperimentConfig(n=100, m=90, r=5, checks=("delta", "combine"),
                           d=40, omega_count=500)
    again = config_from_mapping(cfg.to_flat())
    assert again == cfg


def test_synth_spec_and_stream():
    cfg = ExperimentConfig(n=64, m=48, kind="exact-low-rank", synth_r=2, seed=7)
    stream = cfg.base_stream()
    assert stream.seed == 7
    spec = cfg.synth_spec(stream)
    assert (spec.n, spec.m, spec.r, spec.kind) == (64, 48, 2, "exact-low-rank")
