"""Deterministic spectral mathematics.

Everything here is a pure function of its inputs: centering, the unitary
DFT over the fundamental frequencies, intensity and scaled-intensity
vectors, the maximum scaled intensity (MSI) test statistic, Fisher's g, and
the autocovariance / Chebyshev expansion of the squared scaled intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateSeriesError
from .series import as_time_series, times_power_of_two


def center(series) -> np.ndarray:
    """Subtract the sample mean; the result sums to zero (up to rounding)."""
    return as_time_series(series).centered()[0]


def dft_at(series, delta: float) -> complex:
    """Unitary DFT of the centered series at an arbitrary frequency.

    ``(1/sqrt(n)) * sum_t (y_t - mean) * exp(-2i*pi*delta*(t-1))``,
    periodic in ``delta`` with period 1.  At ``delta = 0`` the centering
    forces an exact zero.
    """
    ts = as_time_series(series)
    centered = center(ts)
    t = np.arange(ts.n)
    phases = np.exp(-2j * np.pi * delta * t)
    return complex(np.sum(centered * phases) / math.sqrt(ts.n))


@dataclass(frozen=True)
class SpectrumAnalysis:
    """DFT vector, intensities, and the MSI statistic for one series.

    ``dft[k]`` is the coefficient at frequency ``k/n`` (``dft[0]`` is
    identically zero after centering).  ``peak_index`` is the index of the
    largest scaled intensity over the non-zero frequencies, in
    ``range(1, n)``; ties break toward the smaller index.
    """

    dft: np.ndarray
    intensity: np.ndarray
    scaled_intensity: np.ndarray
    sample_variance: float
    msi: float
    peak_index: int

    @property
    def n(self) -> int:
        return self.dft.size

    @property
    def peak_frequency(self) -> float:
        return self.peak_index / self.n

    def nyquist_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, scaled intensities) restricted to (0, 1/2].

        The spectrum above 1/2 mirrors this range by conjugation, so these
        bins carry all the information.
        """
        k = np.arange(1, self.n // 2 + 1)
        return k / self.n, self.scaled_intensity[k]


def analyze_spectrum(series) -> SpectrumAnalysis:
    """Full spectrum of one series: DFT, intensities, and MSI.

    The scaled intensities and the MSI are the permutation null's kernel
    arithmetic; the bins above 1/2 are the exact conjugates of those
    below.  Raises DegenerateSeriesError for a constant series, where the
    scaled intensity is 0/0.
    """
    ts = as_time_series(series)
    n = ts.n
    unit, unit_variance, exponent = ts.spread()
    raw = kernels.transform(unit)
    raw[0] = 0.0  # exact: centering kills the zero frequency analytically
    raw = np.concatenate([raw, raw[(n + 1) // 2 - 1 : 0 : -1].conj()])
    scaled = np.abs(raw) * kernels.msi_scale(n, unit_variance)
    with np.errstate(over="ignore"):  # beyond the float range reads inf
        dft = times_power_of_two(raw / math.sqrt(n), exponent)
        sample_variance = float(np.ldexp(unit_variance, 2 * exponent))
    peak_index = 1 + int(np.argmax(scaled[1:]))
    analysis = SpectrumAnalysis(
        dft=dft,
        intensity=np.abs(dft),
        scaled_intensity=scaled,
        sample_variance=sample_variance,
        msi=float(scaled[peak_index]),
        peak_index=peak_index,
    )
    for arr in (analysis.dft, analysis.intensity, analysis.scaled_intensity):
        arr.flags.writeable = False
    return analysis


def fisher_g(series) -> float:
    """Fisher's g of a real series: the largest periodogram ordinate over
    the Fourier frequencies k/n, k = 1 .. m with m = (n-1)//2, divided by
    the sum of those ordinates.

    The zero frequency and, for even n, the Nyquist bin k = n/2 are left
    out, as in Fisher (1929), so g lies in [1/m, 1]: 1 for a pure cosine at
    a Fourier frequency, and ``msi**2 / m`` for odd n.  The ordinates are
    the squared scaled intensities, whose common scale cancels.  Raises
    DegenerateSeriesError when they sum to zero: a constant series, or for
    even n one whose variation is all in the Nyquist bin.
    """
    ts = as_time_series(series)
    ordinates = analyze_spectrum(ts).scaled_intensity[1 : (ts.n - 1) // 2 + 1] ** 2
    total = ordinates.sum()
    if total == 0.0:
        raise DegenerateSeriesError(
            "no variation below the Nyquist frequency: Fisher's g is 0/0"
        )
    return float(ordinates.max() / total)


def autocovariance(series, lag: int) -> float:
    """Sample autocovariance at ``lag``, normalised by ``n - lag - 1``.

    Lag 0 therefore coincides with the sample variance.  The largest usable
    lag is ``n - 2``; beyond it the normaliser is no longer positive.
    """
    profile = autocorrelation_profile(series)
    if not 0 <= lag <= profile.max_lag:
        raise ValueError(f"lag must be in [0, {profile.max_lag}], got {lag}")
    return float(profile.autocovariances[lag])


@dataclass(frozen=True)
class AutocorrelationProfile:
    """Sample autocovariances and autocorrelations for lags 0 .. n-2."""

    autocovariances: np.ndarray
    autocorrelations: np.ndarray

    @property
    def max_lag(self) -> int:
        return self.autocovariances.size - 1


def autocorrelation_profile(series) -> AutocorrelationProfile:
    """Lag products of the unit deviations (:meth:`TimeSeries.spread`): the
    autocorrelations are scale-free and hold at any finite magnitude.
    Raises DegenerateSeriesError for a constant series."""
    unit, _, exponent = as_time_series(series).spread()
    n = unit.size
    gamma = np.array([np.dot(unit[: n - lag], unit[lag:]) / (n - lag - 1) for lag in range(n - 1)])
    with np.errstate(over="ignore"):  # beyond the float range reads inf
        autocovariances = np.ldexp(gamma, 2 * exponent)
    profile = AutocorrelationProfile(autocovariances, autocorrelations=gamma / gamma[0])
    for arr in (profile.autocovariances, profile.autocorrelations):
        arr.flags.writeable = False
    return profile


def _chebyshev_sequence(max_order: int, phi: float) -> np.ndarray:
    """T_0(phi) .. T_max_order(phi) by the three-term recurrence."""
    out = np.empty(max_order + 1)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = phi
    for ell in range(2, max_order + 1):
        out[ell] = 2.0 * phi * out[ell - 1] - out[ell - 2]
    return out


def chebyshev_t(ell: int, phi: float) -> float:
    """Chebyshev polynomial of the first kind, ``T_ell(cos x) = cos(ell*x)``."""
    if ell < 0:
        raise ValueError(f"order must be non-negative, got {ell}")
    if not -1.0 <= phi <= 1.0:
        raise ValueError(f"argument must be in [-1, 1], got {phi}")
    return float(_chebyshev_sequence(ell, phi)[ell])


def spectral_identity(series, delta: float) -> float:
    """Squared scaled intensity at ``delta`` from the autocorrelations.

    Evaluates ``(n-1)/n + 2 * sum_{l=1}^{n-2} ((n-l-1)/n) * rho_l * T_l(phi)``
    with ``phi = cos(2*pi*delta)``, plus the lag-(n-1) boundary term
    ``(2/n) * T_{n-1}(phi) * (y_1 - mean)(y_n - mean) / s^2``.  That last
    lag pairs a single product with a zero normaliser, so it cannot be
    expressed through an autocovariance and enters the quadratic-form
    expansion directly; without it the identity with ``|dft_at|^2 / s^2``
    only holds asymptotically.
    """
    ts = as_time_series(series)
    unit, variance, _ = ts.spread()
    n = ts.n
    rho = autocorrelation_profile(ts).autocorrelations

    phi = min(1.0, max(-1.0, math.cos(2.0 * math.pi * delta)))  # guard rounding
    cheb = _chebyshev_sequence(n - 1, phi)
    lags = np.arange(1, n - 1)
    body = 2.0 * np.sum((n - lags - 1) / n * rho[1:] * cheb[1 : n - 1])
    boundary = 2.0 / n * cheb[n - 1] * unit[0] * unit[-1] / variance
    return float((n - 1) / n + body + boundary)


def unitary_dft_matrix(n: int) -> np.ndarray:
    """The n-by-n unitary DFT matrix U with ``U @ U.conj().T == I``.

    Applying U to a centered series reproduces the ``dft`` vector of
    ``analyze_spectrum``.
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    indices = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(indices, indices) / n) / math.sqrt(n)
