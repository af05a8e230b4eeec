"""Hot-loop kernel: the MSI of every permuted copy of a series.

The permutation engine recomputes a spectrum per permutation, so this is
the inner loop of a test and of the power study.  One batched FFT over
the whole permutation matrix serves real and complex series alike.
"""

from __future__ import annotations

import math

import numpy as np


def null_msi(centered: np.ndarray, perms: np.ndarray, scale: float) -> np.ndarray:
    """MSI of each permuted copy of a centered series, one per row of ``perms``.

    ``scale`` is ``1 / (sqrt(n) * s)``.  For real input the max over all
    non-zero frequencies equals the max over the rfft half spectrum by
    conjugate symmetry; complex input needs the full spectrum.
    """
    transform = np.fft.fft if np.iscomplexobj(centered) else np.fft.rfft
    # pass the gathered rows as a temporary: they are freed when the
    # transform returns, before the moduli are allocated (peak memory)
    spectrum = transform(centered[perms], axis=1)
    return np.abs(spectrum[:, 1:]).max(axis=1) * scale


def msi_scale(n: int, sample_variance: float) -> float:
    """The factor turning raw FFT moduli into scaled intensities."""
    return 1.0 / (math.sqrt(n) * math.sqrt(sample_variance))
