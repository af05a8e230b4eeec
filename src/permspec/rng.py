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


def check_seed(seed: int) -> None:
    """Reject a master seed outside the 64-bit unsigned range."""
    if not 0 <= seed < 2**64:
        raise ValueError("master_seed must fit in 64 unsigned bits")


def mix64(value: int) -> int:
    """splitmix64 finalizer on a Python int, reduced mod 2**64."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer (uint64 in, uint64 out)."""
    z = values.astype(_U64, copy=True)
    z ^= z >> _U64(30)
    z *= _MIX_A
    z ^= z >> _U64(27)
    z *= _MIX_B
    z ^= z >> _U64(31)
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


def permutation_rows(n: int, row_seeds: np.ndarray) -> np.ndarray:
    """One uniform random permutation of ``range(n)`` per row seed.

    Fisher-Yates, with row ``m`` driven by the splitmix64 counter stream of
    ``row_seeds[m]``.  All rows are shuffled in lockstep, one swap position
    per vectorised step.  The modulo draw carries a bias below
    ``n / 2**64``, many orders of magnitude under anything observable.

    Returns an ``(len(row_seeds), n)`` int64 array.
    """
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n}")
    seeds = np.asarray(row_seeds, dtype=_U64)
    rows = seeds.shape[0]
    counters = seeds[:, None] + _GOLDEN_U64 * np.arange(1, n, dtype=_U64)[None, :]
    draws = mix64_array(counters)  # (rows, n-1): draw for steps i = n-1 .. 1
    perm = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    row_index = np.arange(rows)
    for step, i in enumerate(range(n - 1, 0, -1)):
        j = (draws[:, step] % _U64(i + 1)).astype(np.intp)
        swapped = perm[row_index, i].copy()
        perm[row_index, i] = perm[row_index, j]
        perm[row_index, j] = swapped
    return perm


def random_permutation(n: int, seed: int) -> np.ndarray:
    """Uniform random permutation of ``range(n)`` for one stream seed."""
    return permutation_rows(n, np.array([seed & _MASK64], dtype=_U64))[0]
