"""Deterministic spectral mathematics.

Everything here is a pure function of its inputs.  ``observe_rows`` is the
one observed pass over series: it spreads and scales them and takes one
transform of them.  A series' analysis (its scaled intensities over the
frequencies 0 .. 1/2, the maximum scaled intensity (MSI) test statistic
and its peak) is its one-row case, and the observed MSIs of a group of
power-study tests come from it too.  Fisher's g, with its exact tail under
Gaussian white noise, is read off the same half spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateSeriesError
from .rng import check_integer
from .series import as_time_series, spread_rows


@dataclass(frozen=True)
class SpectrumAnalysis:
    """The scaled intensities and the MSI statistic of one series.

    ``scaled_intensity[k]``, for k = 0 .. n//2, is the modulus of the
    unitary DFT of the centred series at frequency ``k/n`` over the sample
    standard deviation; bin 0 is 0.  The bins above 1/2 are their mirror
    images, as the series is real, so these carry all of the spectrum.
    ``msi`` is the largest of bins 1 .. n//2, and ``peak_index`` the first
    bin of the largest unscaled modulus there, in ``range(1, n//2 + 1)``.
    """

    scaled_intensity: np.ndarray
    msi: float
    peak_index: int
    n: int

    @property
    def peak_frequency(self) -> float:
        return self.peak_index / self.n

    def nyquist_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, scaled intensities) restricted to (0, 1/2]: bins
        1 .. n//2."""
        return np.arange(1, self.n // 2 + 1) / self.n, self.scaled_intensity[1:]


def observe_rows(rows: np.ndarray):
    """The observed pass over the series of a ``(rows, n)`` float array:
    ``(units, scales, moduli, peaks)``.  Each row's unit deviations and
    :func:`kernels.msi_scale` come from :func:`series.spread_rows`, its
    moduli over bins 0 .. n//2 from one :func:`kernels.transform` of the
    units, and its peak modulus from :func:`kernels.peak_moduli`, the
    reduction of the permutation null too.  A row's MSI is its peak times
    its scale, and its scaled intensities are its moduli times its scale.
    :func:`analyze_spectrum` is the one-row case, and
    :func:`permutation.count_rejections` takes its observed MSIs from here.
    """
    units, variances = spread_rows(rows)
    spectra = kernels.transform(units)
    moduli = np.empty(spectra.shape)
    peaks = kernels.peak_moduli(spectra, moduli)
    return units, kernels.msi_scale(rows.shape[1], variances), moduli, peaks


def analyze_spectrum(series) -> SpectrumAnalysis:
    """Scaled intensities over (0, 1/2], the MSI and its peak, of one
    series: the one-row case of :func:`observe_rows`.  Raises
    DegenerateSeriesError for a constant series, where the scaled
    intensity is 0/0.
    """
    ts = as_time_series(series)
    _, scales, moduli, peaks = observe_rows(ts.values[None])
    scaled = moduli[0] * scales[0]
    scaled.flags.writeable = False
    return SpectrumAnalysis(
        scaled_intensity=scaled,
        msi=float(peaks[0] * scales[0]),
        peak_index=1 + int(np.argmax(moduli[0, 1:])),
        n=ts.n,
    )


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
