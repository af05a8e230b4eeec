"""Deterministic randomness plumbing.

Two kinds of streams are used:

* splitmix64 counter streams for permutations.  Each stream is identified
  by a 64-bit seed; draw ``k`` of a stream is ``mix64(seed + k * GOLDEN)``,
  a pure function of (seed, k).  This makes batches of Fisher-Yates
  shuffles cheap to vectorise and lets simulations run in any order (or in
  parallel) with identical results.
* numpy ``Philox`` generators, keyed through the same mixing, for noise
  and signal-frequency draws where we want the library distributions.

Seeds for substreams are always derived by hashing the identifying
integers (master seed, simulation index, replicate index, ...), never by
drawing from a shared stateful generator.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the splitmix64 increment
_CHAIN_SALT = 0x8E2A1BB1D3D7F5A3

_U64 = np.uint64
_GOLDEN_U64 = _U64(GOLDEN)
_MIX_A = _U64(0xBF58476D1CE4E5B9)
_MIX_B = _U64(0x94D049BB133111EB)

# Bytes of splitmix64 draws generated at once by permutation_rows: a block
# of Fisher-Yates steps stays in cache whatever the number of rows.
DRAW_BLOCK_BYTES = 1 << 20


def check_seed(seed: int) -> None:
    """Reject a master seed outside the 64-bit unsigned range."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"master_seed must fit in 64 unsigned bits, got {seed}")


def mix64(value: int) -> int:
    """splitmix64 finalizer on a Python int, reduced mod 2**64."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer (uint64 in, uint64 out)."""
    z = values.astype(_U64, copy=True)
    return _mix64_inplace(z, np.empty_like(z))


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of uint64 ``z`` in place; ``scratch`` is a work
    buffer of the same shape."""
    z ^= np.right_shift(z, _U64(30), out=scratch)
    z *= _MIX_A
    z ^= np.right_shift(z, _U64(27), out=scratch)
    z *= _MIX_B
    z ^= np.right_shift(z, _U64(31), out=scratch)
    return z


def seed_chain(*components: int) -> int:
    """Fold integer identifiers into one 64-bit seed.

    Order-sensitive, so (a, b) and (b, a) land in unrelated streams.
    """
    h = _CHAIN_SALT
    for c in components:
        h = mix64((h + GOLDEN) ^ mix64(int(c) & _MASK64))
    return h


def philox_key(*components: int) -> int:
    """128-bit Philox key derived from integer identifiers."""
    k0 = seed_chain(*components)
    k1 = mix64(k0 + GOLDEN)
    return k0 | (k1 << 64)


def philox_generator(*components: int) -> np.random.Generator:
    """Independent numpy Generator keyed by integer identifiers."""
    return np.random.Generator(np.random.Philox(key=philox_key(*components)))


def substream_seeds(base_seed: int, count: int) -> np.ndarray:
    """Seeds of ``count`` substreams of ``base_seed`` (uint64 array).

    Seed ``i`` is ``mix64(base_seed + (i + 1) * GOLDEN)``: a pure function
    of (base_seed, i), independent of how many substreams are requested.
    """
    offsets = (np.arange(1, count + 1, dtype=_U64)) * _GOLDEN_U64
    return mix64_array(_U64(base_seed & _MASK64) + offsets)


def permutation_rows(values: np.ndarray, row_seeds: np.ndarray) -> np.ndarray:
    """One uniformly shuffled copy of ``values`` per row seed.

    Fisher-Yates: step i = n-1 .. 1 of row ``m`` swaps elements i and
    ``draw % (i+1)``, where the draws are the splitmix64 counter stream of
    ``row_seeds[m]`` (draw ``k`` drives step ``n - k``).  All rows are
    shuffled in lockstep, one swap position per vectorised step.  The modulo
    draw carries a bias below ``n / 2**64``, many orders of magnitude under
    anything observable.  An index permutation is
    ``permutation_rows(np.arange(n), seeds)``.

    Returns an ``(len(row_seeds), n)`` array of ``values``' dtype: the
    transposed view of the shuffled ``(n, len(row_seeds))`` working matrix,
    so row m is column m of one C-ordered array.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size < 1:
        raise ValueError(f"permutation length must be >= 1, got shape {values.shape}")
    seeds = np.asarray(row_seeds, dtype=_U64)
    n, rows = values.size, seeds.size
    # column m is row m of the result, so step i swaps the contiguous row
    # work[i] with the elements at flat indices j*rows + m
    work = np.empty((n, rows), dtype=values.dtype)
    work[...] = values[:, None]
    flat = work.reshape(-1)
    held = np.empty(rows, dtype=values.dtype)
    for top, targets in _swap_targets(seeds, n):
        for i, target in zip(range(top, 0, -1), targets):
            # the method skips np.take's dispatch, and "clip" its buffered
            # bounds check: every index is in range by construction
            flat.take(target, out=held, mode="clip")
            flat[target] = work[i]
            work[i] = held
    return work.T


def _swap_targets(seeds: np.ndarray, n: int):
    """``(i, targets)`` per block of Fisher-Yates steps i, i-1, ...: at step
    ``i - s``, column m swaps its element ``i - s`` with the one at flat
    index ``targets[s, m] = j*rows + m``.  ``targets`` is overwritten by the
    next block."""
    rows = seeds.size
    lanes = np.arange(rows, dtype=_U64)
    steps_per_block = max(1, min(n - 1, DRAW_BLOCK_BYTES // (8 * max(rows, 1))))
    # two buffers for all blocks: fresh large arrays would page-fault per block
    block = np.empty((steps_per_block, rows), dtype=_U64)
    scratch = np.empty_like(block)
    for first in range(1, n, steps_per_block):
        draw = np.arange(first, min(first + steps_per_block, n), dtype=_U64)[:, None]
        targets = block[: draw.size]
        np.add(seeds, _GOLDEN_U64 * draw, out=targets)  # stream counters
        _mix64_inplace(targets, scratch[: draw.size])
        targets %= _U64(n + 1) - draw  # i + 1, for step i = n - draw
        targets *= _U64(rows)
        targets += lanes
        yield n - first, targets.view(np.intp)

