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
from .rng import check_integer
from .series import as_time_series, times_power_of_two


def center(series) -> np.ndarray:
    """Subtract the sample mean; the result sums to zero (up to rounding)."""
    return as_time_series(series).centered()[0]


def check_delta(delta: float) -> None:
    """Reject a frequency ``delta`` that is not finite."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")


def dft_at(series, delta: float) -> complex:
    """Unitary DFT of the centered series at an arbitrary finite frequency.

    ``(1/sqrt(n)) * sum_t (y_t - mean) * exp(-2i*pi*delta*(t-1))``,
    periodic in ``delta`` with period 1.  At ``delta = 0`` the centering
    forces an exact zero.  The sum runs over the unit deviations
    (:meth:`TimeSeries.spread`), so it holds at any finite magnitude.
    """
    check_delta(delta)
    ts = as_time_series(series)
    unit, _, exponent = ts._unit_spread()  # zeros for a constant series
    phases = np.exp(-2j * np.pi * delta * np.arange(ts.n))
    # keepdims: a 0-d complex array has no view as float pairs
    total = np.sum(unit * phases, keepdims=True) / math.sqrt(ts.n)
    return complex(times_power_of_two(total, exponent)[0])


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

    The MSI is the null's: :func:`kernels.peak_moduli` times the scale,
    peaking at the first such bin; the bins above 1/2 are the exact
    conjugates of those below.  Raises DegenerateSeriesError for a
    constant series, where the scaled intensity is 0/0.
    """
    ts = as_time_series(series)
    n = ts.n
    unit, unit_variance, exponent = ts.spread()
    raw = kernels.transform(unit)
    raw[0] = 0.0  # exact: centering kills the zero frequency analytically
    moduli = np.empty(raw.shape)
    scale = kernels.msi_scale(n, unit_variance)
    msi = float(kernels.peak_moduli(raw, moduli) * scale)
    dft = times_power_of_two(raw / math.sqrt(n), exponent)
    sample_variance = float(times_power_of_two(unit_variance, 2 * exponent))
    mirror = slice((n + 1) // 2 - 1, 0, -1)
    dft, intensity, scaled = (
        np.concatenate([half, half[mirror].conj()]) for half in (dft, np.abs(dft), moduli * scale)
    )
    analysis = SpectrumAnalysis(
        dft=dft,
        intensity=intensity,
        scaled_intensity=scaled,
        sample_variance=sample_variance,
        msi=msi,
        peak_index=1 + int(np.argmax(moduli[1:])),
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


def fisher_p_value(g: float, m: int) -> float:
    """P(G >= g) for Fisher's g of m independent exponential ordinates, the
    law of :func:`fisher_g` for Gaussian white noise (Fisher 1929):
    the sum over j = 1 .. floor(1/g) of (-1)**(j-1) C(m, j) (1 - j g)**(m-1).

    A float g is exactly p / 2**e, so each term is the integer
    C(m, j) (2**e - j p)**(m-1) over 2**(e (m-1)).  The terms are summed as
    Python integers and divided once, and integer true division rounds
    correctly: the result is the exact tail rounded to the nearest float,
    with no cancellation however large C(m, j) grows.  The cost grows with
    m and with the number of terms: at most 3 ms at m=119, but at m=2499
    from 0.05 s at g=0.05 to about 9 s near g=1/m.
    """
    check_integer("m", m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"g must be in [0, 1], got {g}")
    m = int(m)  # numpy integers would wrap in the powers below
    p, q = float(g).as_integer_ratio()
    if p * m <= q:  # g <= 1/m, the smallest g can be
        return 1.0
    total = sum(
        (-1) ** (j - 1) * math.comb(m, j) * (q - j * p) ** (m - 1) for j in range(1, q // p + 1)
    )
    return total / q ** (m - 1)


def autocovariance(series, lag: int) -> float:
    """Sample autocovariance at ``lag``, normalised by ``n - lag - 1``.

    Lag 0 therefore coincides with the sample variance.  The largest usable
    lag is ``n - 2``; beyond it the normaliser is no longer positive.
    """
    check_integer("lag", lag)
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
    autocovariances = times_power_of_two(gamma, 2 * exponent)
    profile = AutocorrelationProfile(autocovariances, autocorrelations=gamma / gamma[0])
    for arr in (profile.autocovariances, profile.autocorrelations):
        arr.flags.writeable = False
    return profile


def chebyshev_t(ell: int, phi: float) -> float:
    """Chebyshev polynomial of the first kind, ``T_ell(cos x) = cos(ell*x)``,
    by numpy's three-term recurrence (``chebvander``)."""
    check_integer("ell", ell)
    if ell < 0:
        raise ValueError(f"order must be non-negative, got {ell}")
    if not -1.0 <= phi <= 1.0:
        raise ValueError(f"argument must be in [-1, 1], got {phi}")
    # np.polynomial is reached at call time: importing it slows every CLI start.
    # float(phi): chebvander runs the recurrence in the argument's dtype.
    return float(np.polynomial.chebyshev.chebvander(float(phi), ell)[0, ell])


def spectral_identity(series, delta: float) -> float:
    """Squared scaled intensity at a finite ``delta`` from the autocorrelations.

    Evaluates ``(n-1)/n + 2 * sum_{l=1}^{n-2} ((n-l-1)/n) * rho_l * T_l(phi)``
    with ``phi = cos(2*pi*delta)``, plus the lag-(n-1) boundary term
    ``(2/n) * T_{n-1}(phi) * (y_1 - mean)(y_n - mean) / s^2``.  That last
    lag pairs a single product with a zero normaliser, so it cannot be
    expressed through an autocovariance and enters the quadratic-form
    expansion directly; without it the identity with ``|dft_at|^2 / s^2``
    only holds asymptotically.  The ``T_l(phi)`` are one row of numpy's
    ``chebvander``, as in :func:`chebyshev_t`.
    """
    check_delta(delta)
    ts = as_time_series(series)
    unit, variance, _ = ts.spread()
    n = ts.n
    rho = autocorrelation_profile(ts).autocorrelations

    phi = min(1.0, max(-1.0, math.cos(2.0 * math.pi * delta)))  # guard rounding
    cheb = np.polynomial.chebyshev.chebvander(phi, n - 1)[0]  # T_0 .. T_{n-1}
    lags = np.arange(1, n - 1)
    body = 2.0 * np.sum((n - lags - 1) / n * rho[1:] * cheb[1 : n - 1])
    boundary = 2.0 / n * cheb[n - 1] * unit[0] * unit[-1] / variance
    return float((n - 1) / n + body + boundary)


def unitary_dft_matrix(n: int) -> np.ndarray:
    """The n-by-n unitary DFT matrix U with ``U @ U.conj().T == I``.

    Applying U to a centered series reproduces the ``dft`` vector of
    ``analyze_spectrum``.
    """
    check_integer("n", n)
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    indices = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(indices, indices) / n) / math.sqrt(n)
