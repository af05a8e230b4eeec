"""Synthetic data laboratory: noise, sinusoids, and their combination.

A composite series is ``snr * signal + noise`` where the signal is a pure
cosine with a random frequency in the open Nyquist interval (0, 1/2) and
an amplitude chosen so that signal and noise have equal magnitude (sum of
absolute values).  ``snr = 0`` is the exchangeable null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import check_seed, philox_generator
from .series import TimeSeries, check_length

DISTRIBUTIONS = ("normal", "t2")


def check_snr(snr: float) -> None:
    """Reject a signal-to-noise ratio lambda that is not finite and >= 0."""
    if not (math.isfinite(snr) and snr >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0, got {snr}")


@dataclass(frozen=True)
class NoiseSpec:
    """IID noise family and length: standard normal, or Student t with 2
    degrees of freedom for a fat-tailed alternative."""

    distribution: str
    n: int

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        check_length(self.n)


@dataclass(frozen=True)
class SignalSpec:
    """Pure cosine signal; the phase is zero by construction (it does not
    affect intensities).  A plain record: :func:`random_composite` builds it
    from a frequency that :func:`gen_sinusoid` has checked."""

    frequency: float
    amplitude: float


@dataclass(frozen=True)
class CompositeSeries:
    """A generated series together with how it was built."""

    series: TimeSeries
    snr: float
    signal: SignalSpec
    noise_seed: int


def gen_noise(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one noise vector from the spec's distribution."""
    if spec.distribution == "normal":
        return rng.standard_normal(spec.n)
    return rng.standard_t(2, size=spec.n)


def gen_sinusoid(n: int, frequency: float, amplitude: float = 1.0) -> np.ndarray:
    """``amplitude * cos(2*pi*frequency*t)`` for t = 0 .. n-1."""
    if not 0.0 < frequency < 0.5:
        raise ValueError(
            f"frequency must lie strictly inside (0, 0.5), got {frequency}"
        )
    return amplitude * np.cos(2.0 * np.pi * frequency * np.arange(n))


def normalize_magnitude(signal: np.ndarray, noise: np.ndarray) -> float:
    """Scale factor c with sum|c * signal| = sum|noise|."""
    signal_mag = float(np.abs(signal).sum())
    if signal_mag == 0.0:
        raise ValueError("cannot normalise a signal that is identically zero")
    return float(np.abs(noise).sum()) / signal_mag


def compose(snr: float, signal: np.ndarray, noise: np.ndarray) -> TimeSeries:
    """Elementwise ``snr * signal + noise`` as a TimeSeries."""
    signal = np.asarray(signal, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if signal.shape != noise.shape:
        raise ValueError(
            f"signal and noise lengths differ: {signal.shape} vs {noise.shape}"
        )
    return TimeSeries(snr * signal + noise)


def random_composite(
    distribution: str, n: int, snr: float, seed: int
) -> CompositeSeries:
    """One fresh replicate: random frequency, fresh noise, magnitude-matched.

    Draw order is fixed (frequency, then noise) so a seed fully determines
    the replicate.  The frequency is uniform on the open interval (0, 1/2);
    the boundary draw has probability ~2**-53 and is rejected.
    """
    check_snr(snr)
    check_seed(seed)
    spec = NoiseSpec(distribution=distribution, n=n)
    generator = philox_generator(seed)
    frequency = generator.uniform(0.0, 0.5)
    while frequency == 0.0:
        frequency = generator.uniform(0.0, 0.5)
    noise = gen_noise(spec, generator)
    unit_signal = gen_sinusoid(n, frequency)
    amplitude = normalize_magnitude(unit_signal, noise)
    series = compose(snr, amplitude * unit_signal, noise)
    return CompositeSeries(
        series=series,
        snr=snr,
        signal=SignalSpec(frequency=frequency, amplitude=amplitude),
        noise_seed=seed,
    )
