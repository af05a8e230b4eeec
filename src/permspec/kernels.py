"""The MSI arithmetic (transform, scale, maximum) of every spectrum.

The observed series and its permuted copies share it, so the identity
permutation reproduces the observed MSI bit for bit.  ``null_msi``, a
batched FFT over the permuted rows, is the inner loop of a test.
"""

from __future__ import annotations

import math

import numpy as np

# Bytes of rows null_msi transforms at once: the rows of a tile, read
# strided out of the shuffled matrix, stay in cache, and no spectrum of
# more than one tile is ever held.
TILE_BYTES = 1 << 20


def transform(values: np.ndarray) -> np.ndarray:
    """Unnormalised DFT of real rows along the last axis: the half spectrum,
    frequencies 0 .. n//2; the rest are its conjugates."""
    return np.fft.rfft(values, axis=-1)


def null_msi(rows: np.ndarray, scale: float) -> np.ndarray:
    """MSI of each row, a permuted copy of a centered series.

    ``scale`` is :func:`msi_scale` of the series.  The max over all
    non-zero frequencies equals the max over the half spectrum by conjugate
    symmetry.  Each row's transform is independent of its tile, so the
    tiling changes no bit.
    """
    tile = max(1, TILE_BYTES // (rows.shape[1] * rows.itemsize))
    peaks = [
        np.abs(transform(rows[low : low + tile])[:, 1:]).max(axis=1)
        for low in range(0, len(rows), tile)
    ]
    return np.concatenate(peaks) * scale


def msi_scale(n: int, sample_variance):
    """The factor turning raw FFT moduli into scaled intensities, for one
    sample variance or elementwise for an array of them."""
    return 1.0 / (math.sqrt(n) * np.sqrt(sample_variance))
