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

from .rng import check_integer, check_seed, philox_generators
from .series import TimeSeries, check_length

DISTRIBUTIONS = ("normal", "t2")


def check_snr(snr: float) -> None:
    """Reject a signal-to-noise ratio lambda that is a boolean (TypeError: it
    would be written to a results file as one) or is not finite and >= 0."""
    if isinstance(snr, (bool, np.bool_)):
        raise TypeError(f"lambda must be a real number, got {snr!r}")
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


def gen_sinusoid(n: int, frequency, amplitude: float = 1.0) -> np.ndarray:
    """``amplitude * cos(2*pi*frequency*t)`` for t = 0 .. n-1; for an array
    of frequencies, one row per frequency."""
    check_integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    frequency = np.asarray(frequency, dtype=np.float64)
    if not np.all((0.0 < frequency) & (frequency < 0.5)):
        raise ValueError(
            f"frequency must lie strictly inside (0, 0.5), got {frequency}"
        )
    return amplitude * np.cos(np.multiply.outer(2.0 * np.pi * frequency, np.arange(n)))


def normalize_magnitude(signal: np.ndarray, noise: np.ndarray) -> float | np.ndarray:
    """Scale factor c with sum|c * signal| = sum|noise|, summed along the
    last axis: one factor per row of 2-D arrays."""
    signal_mag = np.abs(signal).sum(axis=-1)
    if np.any(signal_mag == 0.0):
        raise ValueError("cannot normalise a signal that is identically zero")
    return np.abs(noise).sum(axis=-1) / signal_mag


def composite_block(
    spec: NoiseSpec, snr: float, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The replicates of :func:`random_composite` for a uint64 array of
    noise seeds, as arrays: their ``(len(seeds), n)`` series values, one row
    per seed, their signal frequencies and their amplitudes.

    Each seed's draws come first, in a fixed order (frequency, then noise),
    so a seed fully determines its row; the arithmetic then runs on the
    whole block.  The frequency is uniform on the open interval (0, 1/2);
    the boundary draw has probability ~2**-53 and is rejected.  ``snr``
    and the seeds are the caller's to check.
    """
    noise = np.empty((len(seeds), spec.n))
    frequencies = np.empty(len(seeds))
    for row, generator in enumerate(philox_generators(seeds)):
        frequency = generator.uniform(0.0, 0.5)
        while frequency == 0.0:
            frequency = generator.uniform(0.0, 0.5)
        frequencies[row] = frequency
        noise[row] = gen_noise(spec, generator)
    unit_signals = gen_sinusoid(spec.n, frequencies)
    amplitudes = normalize_magnitude(unit_signals, noise)
    return snr * (amplitudes[:, None] * unit_signals) + noise, frequencies, amplitudes


def random_composite(
    distribution: str, n: int, snr: float, seed: int
) -> CompositeSeries:
    """One fresh replicate: random frequency, fresh noise, magnitude-matched;
    the one-seed case of :func:`composite_block`."""
    check_snr(snr)
    check_seed(seed)
    spec = NoiseSpec(distribution=distribution, n=n)
    values, frequencies, amplitudes = composite_block(spec, snr, np.array([seed], dtype=np.uint64))
    return CompositeSeries(
        series=TimeSeries(values[0]),
        snr=snr,
        signal=SignalSpec(frequency=float(frequencies[0]), amplitude=float(amplitudes[0])),
        noise_seed=seed,
    )
