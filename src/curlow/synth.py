"""Synthetic test matrices with planted spectra and controlled coherence.

Factors come from orthonormalized random sign matrices, which keeps
coherence within a small constant of 1; a "spiky" variant mixes a canonical
basis direction into the first left factor column to push coherence toward
its n/r ceiling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, SvdFactors
from .sampling import RngStream

KINDS = ("exact-low-rank", "geometric-spectrum", "power-law-spectrum")
COHERENCE_KINDS = ("flat", "spiky")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic matrix."""

    n: int
    m: int
    kind: str
    r: int
    stream: RngStream
    decay: float = 0.5
    coherence: str = "flat"
    spike_index: int = 0
    spike_weight: float = 0.9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.coherence not in COHERENCE_KINDS:
            raise ValueError(f"unknown coherence {self.coherence!r}")
        if self.n < self.m or self.m < 1:
            raise ValueError(f"need n >= m >= 1, got n={self.n}, m={self.m}")
        if not 1 <= self.r <= self.m:
            raise ValueError(f"r must be in [1, m], got {self.r}")
        if self.kind == "geometric-spectrum" and not 0.0 < self.decay < 1.0:
            raise ValueError("geometric decay must lie in (0, 1)")
        if self.kind == "power-law-spectrum" and self.decay <= 0.0:
            raise ValueError("power-law exponent must be positive")
        if self.coherence == "spiky":
            if not 0 <= self.spike_index < self.n:
                raise ValueError("spike_index out of range")
            if not 0.0 < self.spike_weight <= 1.0:
                raise ValueError("spike_weight must lie in (0, 1]")
            if self.spike_weight < 1.0 and self.n < 2:
                # the rest of the weight needs a second row to go to
                raise ValueError("a spiky instance with spike_weight below 1 "
                                 f"needs n >= 2, got n={self.n}")


def _orth_signs(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.choice([-1.0, 1.0], size=(n, m)))
    return Q


def _plant_spike(U: np.ndarray, index: int, weight: float) -> np.ndarray:
    """Replace the first column with weight*e_index plus an orthogonal
    remainder, then re-orthonormalize the rest against it."""
    n = U.shape[0]
    e = np.zeros(n)
    e[index] = 1.0
    if weight >= 1.0:
        first = e
    else:
        # every entry of U[:, 0] is +-1/sqrt(n): nrm = sqrt((n - 1)/n) > 0
        rem = U[:, 0] - e * U[index, 0]
        nrm = np.linalg.norm(rem)
        first = weight * e + np.sqrt(1.0 - weight**2) * rem / nrm
    stacked = np.column_stack([first, U[:, 1:]])
    Q, _ = np.linalg.qr(stacked)
    if np.dot(Q[:, 0], first) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _spectrum(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    m = spec.m
    if spec.kind == "exact-low-rank":
        sig = np.zeros(m)
        head = np.exp(rng.uniform(0.0, np.log(10.0), size=spec.r))
        sig[: spec.r] = np.sort(head)[::-1]
        return sig
    if spec.kind == "geometric-spectrum":
        return spec.decay ** np.arange(m, dtype=np.float64)
    powers = np.arange(1, m + 1, dtype=np.float64)
    return powers ** (-spec.decay)


def generate(spec: SynthSpec) -> tuple[DenseMatrix, SvdFactors]:
    """Build the matrix and the planted factorization that reconstructs it."""
    rng = spec.stream.generator()
    sig = _spectrum(spec, rng)
    U = _orth_signs(rng, spec.n, spec.m)
    V = _orth_signs(rng, spec.m, spec.m)
    if spec.coherence == "spiky":
        U = _plant_spike(U, spec.spike_index, spec.spike_weight)
    M = (U * sig) @ V.T
    return M, SvdFactors(U=U, sigma=sig, V=V)


def measured_properties(spectrum) -> dict:
    """Coherence, regularized rank at the instance's lam, and spectrum-gap
    summary of an instance, read from its `bounds.Spectrum`."""
    return {
        **spectrum.rank_params,
        "n": spectrum.n,
        "m": spectrum.m,
        "r": spectrum.r,
        "mu_r": spectrum.mu_r,
        "sigma_r": spectrum.sigma_r,
        "sigma_r_plus_1": spectrum.sigma_r_plus_1,
        "gap_ok": spectrum.gap_ok,
    }
