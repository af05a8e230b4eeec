"""The MSI arithmetic (transform, scale, maximum) of every spectrum.

The observed series and its permuted copies share it, so the identity
permutation reproduces the observed MSI bit for bit.  ``null_msi``, one
batched FFT over the permutation matrix, is the inner loop of a test.
"""

from __future__ import annotations

import math

import numpy as np


def transform(values: np.ndarray) -> np.ndarray:
    """Unnormalised DFT along the last axis: the half spectrum (frequencies
    0 .. n//2) for real input, the full spectrum for complex input."""
    if np.iscomplexobj(values):
        return np.fft.fft(values, axis=-1)
    return np.fft.rfft(values, axis=-1)


def null_msi(centered: np.ndarray, perms: np.ndarray, scale: float) -> np.ndarray:
    """MSI of each permuted copy of a centered series, one per row of ``perms``.

    ``scale`` is :func:`msi_scale` of the series.  For real input the max
    over all non-zero frequencies equals the max over the half spectrum by
    conjugate symmetry.
    """
    # pass the gathered rows as a temporary: they are freed when the
    # transform returns, before the moduli are allocated (peak memory)
    spectrum = transform(centered[perms])
    return np.abs(spectrum[:, 1:]).max(axis=1) * scale


def msi_scale(n: int, sample_variance: float) -> float:
    """The factor turning raw FFT moduli into scaled intensities."""
    return 1.0 / (math.sqrt(n) * math.sqrt(sample_variance))
