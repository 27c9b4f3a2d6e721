import numpy as np
import pytest

from curlow.bounds import spectrum
from curlow.coherence import mu_r, numerical_rank
from curlow.linalg import frobenius_norm, svd
from curlow.sampling import RngStream
from curlow.synth import SynthSpec, generate, measured_properties


def spec(seed=0, **kw):
    base = dict(n=40, m=30, kind="exact-low-rank", r=3,
                stream=RngStream(seed=seed))
    base.update(kw)
    return SynthSpec(**base)


def test_exact_low_rank_has_r_singular_values():
    M, _ = generate(spec(kind="exact-low-rank", r=3))
    sig = svd(M).sigma
    assert np.sum(sig > 1e-10) == 3


def test_exact_low_rank_scale_window():
    M, f = generate(spec(seed=1))
    live = f.sigma[f.sigma > 0]
    assert live.min() >= 1.0 - 1e-12
    assert live.max() <= 10.0 + 1e-12


def test_geometric_decay_ratio_exact():
    _, f = generate(spec(seed=2, kind="geometric-spectrum", decay=0.5))
    ratios = f.sigma[1:] / f.sigma[:-1]
    assert np.allclose(ratios, 0.5, atol=1e-12)


def test_power_law_spectrum():
    _, f = generate(spec(seed=3, kind="power-law-spectrum", decay=1.5))
    expect = np.arange(1, 31, dtype=float) ** -1.5
    assert np.allclose(f.sigma, expect, atol=1e-12)


def test_ground_truth_reconstructs():
    for kind in ("exact-low-rank", "geometric-spectrum", "power-law-spectrum"):
        M, f = generate(spec(seed=4, kind=kind, decay=0.7))
        err = frobenius_norm(f.reconstruct() - M)
        assert err <= 1e-10 * frobenius_norm(M)


def test_spiky_coherence_plants_leverage():
    s = spec(seed=5, n=100, m=64, r=2, coherence="spiky", spike_index=0,
             spike_weight=0.9)
    M, _ = generate(s)
    mu = mu_r(svd(M), 2)
    target = 0.81 * (100 / 2)
    assert mu >= target * 0.95


def test_full_spike_weight_is_canonical():
    s = spec(seed=6, n=50, m=32, r=2, coherence="spiky", spike_index=3,
             spike_weight=1.0)
    M, f = generate(s)
    col = np.abs(f.U[:, 0])
    assert col[3] > 1.0 - 1e-12
    assert mu_r(svd(M), 2) >= 50 / 2 - 1e-6


def test_flat_coherence_stays_small():
    # documented empirical property: mu <= 5 for n >= 64, r <= 8
    bad = 0
    for seed in range(100):
        M, _ = generate(spec(seed=1000 + seed, n=64, m=64, r=8))
        if mu_r(svd(M), 8) > 5.0:
            bad += 1
    assert bad <= 1


def test_generation_is_deterministic():
    M1, _ = generate(spec(seed=7))
    M2, _ = generate(spec(seed=7))
    assert np.array_equal(M1, M2)


def test_synth_spec_rejects_bad_arguments():
    with pytest.raises(ValueError):
        spec(kind="geometric-spectrum", decay=1.5)
    with pytest.raises(ValueError):
        spec(kind="power-law-spectrum", decay=0.0)
    with pytest.raises(ValueError):
        spec(kind="unknown-kind")
    with pytest.raises(ValueError):
        spec(r=0)
    with pytest.raises(ValueError):
        spec(r=31)  # r > m
    with pytest.raises(ValueError):
        spec(n=20, m=30)  # n < m
    with pytest.raises(ValueError):
        spec(coherence="spiky", spike_weight=0.0)
    with pytest.raises(ValueError):
        spec(coherence="spiky", spike_index=40)


def test_spiky_spec_refuses_a_partial_weight_on_one_row():
    # one row leaves the weight's remainder nowhere to go; it used to come
    # back from QR as a weight of 1 after a 0/0
    with pytest.raises(ValueError, match="n >= 2"):
        spec(n=1, m=1, r=1, coherence="spiky", spike_weight=0.5)
    M, f = generate(spec(n=1, m=1, r=1, coherence="spiky", spike_weight=1.0))
    assert f.U.tolist() == [[1.0]] and M.shape == (1, 1)
    _, f = generate(spec(n=2, m=1, r=1, coherence="spiky", spike_weight=0.5))
    assert abs(f.U[0, 0] - 0.5) < 1e-12


def test_measured_properties_cross_checks():
    M, f = generate(spec(seed=8, kind="geometric-spectrum", decay=0.5,
                         n=32, m=32, r=4))
    lam = float(f.sigma[3]) ** 2 / (32 * 32)
    props = measured_properties(spectrum(M, 4, lam))
    assert abs(props["mu_r"] - mu_r(svd(M), 4)) < 1e-12
    rank_rep = numerical_rank(svd(M), lam)
    assert abs(props["mu_lambda"] - rank_rep.mu_lambda) < 1e-12
    assert abs(props["numerical_rank"] - rank_rep.value) < 1e-12
    assert props["gap_ok"] == (props["sigma_r"] >= np.sqrt(2) * props["sigma_r_plus_1"])
    assert props["gap_ok"]  # decay 0.5 has exactly a factor-2 gap
