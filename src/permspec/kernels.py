"""The MSI arithmetic (transform, scale, maximum) of every spectrum.

The observed series and its permuted copies share it, so the identity
permutation reproduces the observed MSI bit for bit.  ``null_msi``, a
batched FFT over rows gathered from shuffled positions, is the inner
loop of a test.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import ShuffleBuffers

# Bytes of float rows null_msi gathers and transforms at once: a tile stays
# in cache, and no spectrum of more than one tile is ever held.
TILE_BYTES = 1 << 20


def transform(values: np.ndarray) -> np.ndarray:
    """Unnormalised DFT of real rows along the last axis: the half spectrum,
    frequencies 0 .. n//2; the rest are its conjugates."""
    return np.fft.rfft(values, axis=-1)


def null_msi(units: np.ndarray, positions: np.ndarray, scales, buffers: ShuffleBuffers | None = None):
    """MSIs of permuted copies of centred series, as a ``(tests, size)`` array.

    ``units`` holds one centred series of length n per row.  ``positions``
    has ``tests * size`` integer rows of length n: rows ``t*size ..
    (t+1)*size - 1`` are permutations of positions 0 .. n-1 of ``units[t]``
    (not checked), which ``scales[t]``, its :func:`msi_scale`, scores (one
    scale for all tests may be a scalar).  Identity positions give the
    observed MSIs.

    A tile of rows at a time is gathered into held float rows, each row's
    positions offset by ``t*n`` into the flattened units, and transformed
    like an observed series.  The max over all non-zero frequencies equals
    the max over the half spectrum by conjugate symmetry.  Each row's
    transform is independent of its tile, so the tiling changes no bit.
    The tile arrays are taken from ``buffers`` (fresh ones without).
    """
    tests, n = units.shape
    rows = len(positions)
    size = rows // tests
    per_tile = min(rows, max(1, TILE_BYTES // (8 * n)))
    if buffers is None:
        buffers = ShuffleBuffers()
    index = buffers.take("tile positions", (per_tile, n), np.intp)
    gathered = buffers.take("tile", (per_tile, n), np.float64)
    flat = units.reshape(-1)
    offsets = (np.arange(rows) // size * n)[:, None]  # row r permutes units[r // size]
    peaks = np.empty(rows)
    for low in range(0, rows, per_tile):
        high = min(low + per_tile, rows)
        at, tile = index[: high - low], gathered[: high - low]
        at[...] = positions[low:high]
        at += offsets[low:high]
        # "clip" skips take's buffered bounds check: positions are in range
        flat.take(at, out=tile, mode="clip")
        spectrum = transform(tile)
        # the moduli take the place of the gathered rows, which the transform
        # no longer needs: a contiguous output, which numpy fills unbuffered
        moduli = tile.reshape(-1)[: spectrum.size].reshape(spectrum.shape)
        np.abs(spectrum, out=moduli)[:, 1:].max(axis=1, out=peaks[low:high])
    return peaks.reshape(tests, size) * np.reshape(scales, (-1, 1))


def msi_scale(n: int, sample_variance):
    """The factor turning raw FFT moduli into scaled intensities, for one
    sample variance or elementwise for an array of them."""
    return 1.0 / (math.sqrt(n) * np.sqrt(sample_variance))
