"""The MSI arithmetic (transform, peak modulus, scale) of every spectrum.

``peak_moduli``, the one reduction of spectra to their peak moduli, and
``msi_scale`` serve observed series and permuted copies alike, bit for
bit.  ``null_msi``, a batched FFT over rows gathered from shuffled
positions, is the inner loop of a test.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import ShuffleBuffers

# The most bytes of float rows null_msi gathers and transforms at once: a
# tile stays in cache, and no spectrum of more than one tile is ever held.
# A tile also takes no more float bytes than the call has positions, so the
# held tile and its spectrum take about twice a power-study round's 128 KiB
# of positions.  Tiles of twice the positions, or of TILE_BYTES, held up to
# 0.7 and 2 MiB more at the desk grid's peak (2% and 5% of the process) for
# a gather 7-9% and 11-18% faster.
TILE_BYTES = 1 << 20


def transform(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised DFT of real rows along the last axis: the half spectrum,
    frequencies 0 .. n//2; the rest are its conjugates.  ``out``, a complex
    array of the spectrum's shape, receives it in place of a fresh one."""
    return np.fft.rfft(values, axis=-1, out=out)


def peak_moduli(spectra: np.ndarray, moduli: np.ndarray | None = None, out=None):
    """Each row's largest modulus over bins 1 .. n//2 of half spectra
    (:func:`transform`): by conjugate symmetry, over every non-zero
    frequency.  ``moduli``, a float array of the spectra's shape, receives
    the moduli |X_k| of bins k >= 1 and 0.0 at bin 0, which no modulus
    falls below, so one ``np.maximum.reduceat`` over the flat moduli takes
    every row's peak; ``out``, a 1-d float array of one element per row,
    receives the peaks."""
    moduli = np.abs(spectra, out=moduli)
    moduli[..., 0] = 0.0
    flat = moduli.reshape(-1)
    peaks = np.maximum.reduceat(flat, np.arange(0, flat.size, moduli.shape[-1]), out=out)
    return peaks.reshape(moduli.shape[:-1])[()]


def null_msi(units: np.ndarray, positions: np.ndarray, scales, buffers: ShuffleBuffers):
    """MSIs of permuted copies of centred series, as a ``(tests, size)`` array.

    ``units`` holds one centred series of length n per row.  ``positions``
    has ``tests * size`` integer rows of length n: rows ``t*size ..
    (t+1)*size - 1`` are permutations of positions 0 .. n-1 of ``units[t]``
    (not checked), which ``scales[t]``, its :func:`msi_scale`, scores (one
    scale for all tests may be a scalar).

    A tile of rows at a time is gathered into held float rows, each row's
    positions offset by ``t*n`` into the flattened units (the offsets of
    all rows are computed once per call, not once per tile), and
    transformed like an observed series.  A tile takes at most
    ``TILE_BYTES`` of float rows, and at most as many bytes as all of
    ``positions``: 26 rows (1 MiB) at n=5000, M=1000, but 543 rows
    (128 KiB) of a first power-study round of 4,350 rows at n=30.  Each
    tile's peaks are :func:`peak_moduli` of its spectrum.  Each row's
    transform is independent of its tile, so the tiling changes no bit.  The tile and its spectrum are taken from
    ``buffers``, and the index lives in the spectrum's memory, as ``take``
    has consumed it before the transform writes there.
    """
    tests, n = units.shape
    rows = len(positions)
    size = rows // tests
    per_tile = min(rows, max(1, min(TILE_BYTES, positions.nbytes) // (8 * n)))
    gathered = buffers.take("tile", (per_tile, n), np.float64)
    # a fresh spectrum per tile would be handed back to the OS and faulted
    # in again whenever the allocator trims its heap
    spectra = buffers.take("tile spectrum", (per_tile, n // 2 + 1), np.complex128)
    # 8n bytes a row, within the spectrum's 16 * (n//2 + 1)
    index = spectra.reshape(-1).view(np.intp)[: per_tile * n].reshape(per_tile, n)
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
        spectrum = transform(tile, spectra[: high - low])
        # the moduli take the place of the gathered rows, which the transform
        # no longer needs: a contiguous output, which numpy fills unbuffered
        moduli = tile.reshape(-1)[: spectrum.size].reshape(spectrum.shape)
        peak_moduli(spectrum, moduli, out=peaks[low:high])
    return peaks.reshape(tests, size) * np.reshape(scales, (-1, 1))


def msi_scale(n: int, sample_variance):
    """The factor turning raw FFT moduli into scaled intensities, for one
    sample variance or elementwise for an array of them."""
    return 1.0 / (math.sqrt(n) * np.sqrt(sample_variance))
