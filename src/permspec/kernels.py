"""The MSI arithmetic (transform, peak modulus, scale) of every spectrum.

``peak_moduli``, the one reduction of spectra to their peak moduli, and
``msi_scale`` serve observed series and permuted copies alike, bit for
bit.  ``null_msi``, a batched FFT over rows gathered from shuffled
positions, is the inner loop of a test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .rng import ShuffleBuffers

# The most bytes of float rows null_msi gathers and transforms at once: a
# tile stays in cache, and no spectrum of more than one tile is ever held.
# A tile also takes no more float bytes than the positions of all the rows
# its call gathers, or SMALL_TILE_BYTES where that is more, so the held tile
# and its spectrum take about twice a power-study round's 128 KiB of
# gathered positions.  Tiles of twice those positions, or of TILE_BYTES,
# held up to 0.7 and 2 MiB more at the desk grid's peak (2% and 5% of the
# process) for a gather 7-9% and 11-18% faster.
TILE_BYTES = 1 << 20

# The float bytes a tile may take however few rows its call gathers.  The
# later rounds of a power-study group score few tests, and tiles capped by
# their positions alone, an eighth of the rows at n <= 256, cost the desk
# grid 11% more CPU in per-tile calls, at the same peak memory.
SMALL_TILE_BYTES = 128 << 10

# The bytes of a cache line.  The shuffle's matrix holds the lanes (rows
# of positions) side by side, so a tile narrower than a line reads part of
# every line it fetches, 52 bytes of uint16 at n=5,000, and null_msi widens
# its index from a block of whole tiles spanning a line: 36 ms a call at
# n=5,000, M=1,000, against 44-47 ms tile by tile.  Blocks of two lines
# were about as fast there, but slower than tile by tile, by up to 1.8x,
# at n=30,000-50,000; with one-lane tiles (uint32 positions) a block was
# up to 1.5x slower and took 8-15 MiB more.
CACHE_LINE = 64


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


def stages_index(n: int, dtype) -> bool:
    """Whether :func:`null_msi` widens the index of positions of ``dtype``
    at length n through a block of lanes: when a full tile, ``TILE_BYTES``
    of float rows, has more than one lane but spans less than a cache line
    of each row of positions.  With uint16 positions that is n > 4,096;
    with uint8 (n <= 256) and uint32 (one-lane tiles) no n."""
    lanes = TILE_BYTES // (8 * n)
    return 1 < lanes and lanes * np.dtype(dtype).itemsize < CACHE_LINE


def null_msi(units: np.ndarray, positions: np.ndarray, scales, buffers: ShuffleBuffers):
    """MSIs of permuted copies of centred series, as a ``(tests, size)`` array.

    ``units`` holds one centred series of length n per row.  ``positions``
    has ``size`` integer rows of length n, permutations of the positions 0
    .. n-1 (not checked) that every test shares: entry ``[t, j]`` is the
    MSI of ``units[t]`` permuted by ``positions[j]``, scored by
    ``scales[t]``, its :func:`msi_scale` (one scale for all tests may be a
    scalar).  :func:`permspec.permutation.simulate_null` is the one-test
    case.

    The ``tests * size`` gathered rows are taken a tile at a time into
    held float rows, and transformed like an observed series.  A tile
    takes at most ``TILE_BYTES`` of float rows, and no more bytes than the
    positions of all the gathered rows, or ``SMALL_TILE_BYTES`` where that
    is more: 26 rows (1 MiB) at n=5000, M=1000, but 546 rows (128 KiB) of
    a power-study round at n=30.  It holds whole tests where one test's
    rows fit (21 tests of 25 rows there), and a run of one test's rows
    where they do not.  Its index is the tile's rows of positions, one row
    of n per lane, widened to intp by one copy; each of its tests gathers
    its values from its own series by that one index, with ``take`` along
    the series' axis.  Each tile's peaks are :func:`peak_moduli` of its
    spectrum.  Each row's transform is independent of its tile, so the
    tiling changes no bit.  The tile and its spectrum are taken from
    ``buffers``, and the index lives in the spectrum's memory, as ``take``
    has consumed it before the transform writes there.  Where a tile holds
    part of one test's rows and :func:`stages_index` holds (n > 4,096 with
    uint16 positions), the positions of a block of lanes, the fewest whole
    tiles spanning a cache line of each row of the shuffle's matrix (52
    rows, 0.5 MiB, at n=5000), are first copied into a ``"stage"`` array
    from ``buffers``, laid out like that matrix, and each tile's index is
    widened from it; the index holds the same numbers either way.
    """
    tests, n = units.shape
    size = len(positions)
    rows = tests * size
    tile_bytes = min(TILE_BYTES, max(SMALL_TILE_BYTES, rows * n * positions.itemsize))
    per_tile = min(rows, max(1, tile_bytes // (8 * n)))
    lanes, tile_tests = min(size, per_tile), max(1, per_tile // size)  # a tile's rows and tests
    gathered = buffers.take("tile", (per_tile, n), np.float64)
    # a fresh spectrum per tile would be handed back to the OS and faulted
    # in again whenever the allocator trims its heap
    spectra = buffers.take("tile spectrum", (per_tile, n // 2 + 1), np.complex128)
    # a lane's n positions, 8n bytes, within its row of the spectrum's 16 * (n//2 + 1)
    index = spectra.reshape(-1).view(np.intp)[: lanes * n]
    peaks = np.empty(rows)
    stage = None
    if lanes < size and stages_index(n, positions.dtype):
        # whole tiles, spanning a cache line or more of each row
        block = min(size, lanes * -(-CACHE_LINE // (lanes * positions.itemsize)))
        stage = buffers.take("stage", (n, block), positions.dtype)
    for first_test, low in itertools.product(range(0, tests, tile_tests), range(0, size, lanes)):
        high, last_test = min(low + lanes, size), min(first_test + tile_tests, tests)
        start, stop = first_test * size + low, (last_test - 1) * size + high
        tile = gathered[: stop - start]
        if stage is None:
            order = positions[low:high]
        else:
            lane = low % block  # the tile's first lane in the block
            if lane == 0:
                stage[:, : min(block, size - low)] = positions[low : low + block].T
            order = stage[:, lane : lane + high - low].T
        # widened here: take would convert narrow positions into a fresh
        # intp array every tile
        at = index[: order.size].reshape(order.shape)
        np.copyto(at, order)
        # "clip" skips take's buffered bounds check: positions are in range
        units[first_test:last_test].take(
            at, axis=1, out=tile.reshape(last_test - first_test, *at.shape), mode="clip"
        )
        spectrum = transform(tile, spectra[: stop - start])
        # the moduli take the place of the gathered rows, which the transform
        # no longer needs: a contiguous output, which numpy fills unbuffered
        moduli = tile.reshape(-1)[: spectrum.size].reshape(spectrum.shape)
        peak_moduli(spectrum, moduli, out=peaks[start:stop])
    return peaks.reshape(tests, size) * np.reshape(scales, (-1, 1))


def msi_scale(n: int, sample_variance):
    """The factor turning raw FFT moduli into scaled intensities, for one
    sample variance or elementwise for an array of them."""
    return 1.0 / (math.sqrt(n) * np.sqrt(sample_variance))
