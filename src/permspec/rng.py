"""Deterministic randomness plumbing.

Two kinds of streams are used:

* splitmix64 counter streams for permutations.  Each stream is identified
  by a 64-bit seed; draw ``k`` of a stream is the splitmix64 finalizer of
  ``seed + k * GOLDEN``, a pure function of (seed, k).  This makes batches
  of Fisher-Yates shuffles cheap to vectorise and lets simulations run in
  any order (or in parallel) with identical results.
* numpy ``Philox`` generators, keyed through the same mixing, for noise
  and signal-frequency draws where we want the library distributions.

Seeds for substreams are always derived by hashing the identifying
integers (master seed, simulation index, replicate index, ...), never by
drawing from a shared stateful generator.
"""

from __future__ import annotations

import math

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
DRAW_BLOCK_BYTES = 256 << 10


def check_integer(name: str, value) -> None:
    """Reject a seed or count ``name`` that is not a Python or numpy integer
    (``3.0`` too: it would be written to a report as a float, and ``True``:
    as a boolean)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def check_seed(seed: int) -> None:
    """Reject a master seed that is not an integer in the 64-bit unsigned range."""
    check_integer("master_seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"master_seed must fit in 64 unsigned bits, got {seed}")


def mix64_array(values) -> np.ndarray:
    """splitmix64 finalizer of uint64 values: a new uint64 array of their
    shape, 0-d included, with every product wrapping mod 2**64."""
    z = np.array(values, dtype=_U64)  # an array even for one value: ufuncs wrap silently
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


def seed_chain(*components):
    """Fold integer identifiers into one 64-bit seed.

    Order-sensitive, so (a, b) and (b, a) land in unrelated streams.  Each
    component is reduced mod 2**64.  A component may be an integer array,
    such as a block of replicate indices: the components then broadcast,
    and the result is a uint64 array with the seed of each element.
    """
    h = np.array(_CHAIN_SALT, dtype=_U64)
    for c in components:
        c = int(c) & _MASK64 if np.ndim(c) == 0 else np.asarray(c).astype(_U64)
        h = mix64_array((h + _GOLDEN_U64) ^ mix64_array(c))
    return int(h) if h.ndim == 0 else h


def philox_key(*components) -> np.ndarray:
    """The two 64-bit words (low, high) of a Philox key derived from
    integer identifiers; for array components (see :func:`seed_chain`) a
    last axis of length 2 follows their broadcast shape."""
    k0 = np.asarray(seed_chain(*components), dtype=_U64)
    return np.stack([k0, mix64_array(k0 + _GOLDEN_U64)], axis=-1)


def philox_generator(*components: int) -> np.random.Generator:
    """Independent numpy Generator keyed by integer identifiers."""
    return np.random.Generator(np.random.Philox(key=philox_key(*components)))


def philox_generators(*components):
    """The Generator of :func:`philox_generator` for each element of the
    broadcast components, in order.

    One Philox object serves them all: before each is yielded it is
    re-keyed, with its counter and buffers reset to those of a new one, so
    a yielded Generator is valid until the next is taken.
    """
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state  # counter 0 and empty buffers
    for key in philox_key(*components).reshape(-1, 2).tolist():
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        yield generator


def substream_seeds(base_seed, count: int, first: int = 0) -> np.ndarray:
    """Seeds of substreams ``first .. first + count - 1`` of ``base_seed``.

    Seed ``i`` is ``mix64_array(base_seed + (i + 1) * GOLDEN)``: a pure function
    of (base_seed, i), independent of which substreams are requested.  For a
    uint64 array of base seeds the result has one row of seeds per base.
    """
    offsets = np.arange(first + 1, first + count + 1, dtype=_U64) * _GOLDEN_U64
    # int() first: a signed numpy scalar & _MASK64 overflows
    base = int(base_seed) & _MASK64 if np.ndim(base_seed) == 0 else base_seed
    return mix64_array(np.add.outer(np.asarray(base, dtype=_U64), offsets))


class ShuffleBuffers:
    """The large work arrays of a null round, held across calls: the
    working matrix and draw blocks of :func:`permutation_rows`, and the
    gather tile, its spectrum and, for long series, the ``"stage"`` lane
    block of :func:`permspec.kernels.null_msi`.  ``window`` records the
    rows of a plan last shuffled into the working matrix, which
    ``permutation._plan_rows`` serves again while they stay there.

    A caller that shuffles and scores block after block of rows passes
    one of these to every call: each array is then allocated at the
    largest size asked for and reused, where fresh ones would be handed
    back to the OS when freed and page-fault again on the next call.
    Every call takes a prefix of each array, so the rows one call returns
    are a view that stays valid until the next call with the same buffers.
    """

    def __init__(self):
        self._held = {}  # (name, dtype) -> 1-d array, grown as needed
        # (key, first row, rows) of the plan rows that permutation._plan_rows
        # last shuffled into "work", or None; permutation_rows clears it, as
        # every shuffle overwrites "work"
        self.window = None

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Uninitialised array ``name`` of ``shape`` and ``dtype``: a
        C-ordered view of the first elements of the held one, which is
        replaced by a larger one when it is too small."""
        key, size = (name, np.dtype(dtype)), math.prod(shape)
        held = self._held.get(key)
        if held is None or held.size < size:
            held = self._held[key] = np.empty(size, dtype)
        return held[:size].reshape(shape)


def position_type(n: int) -> np.dtype:
    """The narrowest unsigned type of the positions 0 .. n-1 that
    :func:`permutation_rows` shuffles: uint8 up to n=256, uint16 up to
    65,536, uint32 beyond."""
    return np.min_scalar_type(int(n) - 1)


def permutation_rows(n: int, row_seeds: np.ndarray, buffers: ShuffleBuffers) -> np.ndarray:
    """One uniformly shuffled copy of the positions 0 .. n-1 per row seed.

    Fisher-Yates: step i = n-1 .. 1 of row ``m`` swaps elements i and
    ``draw % (i+1)``, where the draws are the splitmix64 counter stream of
    ``row_seeds[m]`` (draw ``k`` drives step ``n - k``).  All rows are
    shuffled in lockstep, one swap position per vectorised step, so a row
    depends on its seed alone.  The modulo draw carries a bias below
    ``n / 2**64``, many orders of magnitude under anything observable.
    The draws are made a block of steps at a time, DRAW_BLOCK_BYTES of
    them, and each block is swapped before the next is drawn.  A block's
    draws are reduced by exact integer floor division, ``draw - (draw //
    (i+1)) * (i+1)``.  Its arithmetic runs with numpy's ufunc buffer set
    to 16 elements, so numpy does not buffer several steps of more rows
    together, and each step's bound i+1 stays a scalar in its inner loop,
    which divides by multiply and shift; the caller's buffer size is
    restored on return.
    The positions are of :func:`position_type`, so each step's random
    reads and writes span a quarter (n <= 65,536) or an eighth (n <= 256)
    of the bytes of float values; a caller gathers its values from them.

    Returns a ``(len(row_seeds), n)`` array: the transposed view of the
    shuffled ``(n, len(row_seeds))`` working matrix, so row m is column m
    of one C-ordered array.  The matrix and the draw blocks are taken from
    ``buffers``, so the result is a view into them that the next call with
    the same buffers overwrites.
    """
    seeds = np.asarray(row_seeds, dtype=_U64)
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n}")
    n, rows, dtype = int(n), seeds.size, position_type(n)
    buffers.window = None
    # column m is row m of the result, so step i swaps the contiguous row
    # work[i] with the elements at flat indices j*rows + m
    work = buffers.take("work", (n, rows), dtype)
    work[...] = np.arange(n, dtype=dtype)[:, None]
    flat = work.reshape(-1)
    saved = np.empty(rows, dtype=dtype)
    lanes = np.arange(rows, dtype=_U64)
    steps_per_block = max(1, min(n - 1, DRAW_BLOCK_BYTES // (8 * max(rows, 1))))
    # the draws of every block, and of every call with the same buffers,
    # are computed in the same two arrays.  They are held at the most any
    # call takes, DRAW_BLOCK_BYTES or one step of rows: a call with fewer
    # rows takes more steps, and would otherwise grow them by a few bytes.
    held = max(rows, DRAW_BLOCK_BYTES // 8)
    block, scratch = (
        buffers.take(name, (held,), _U64)[: steps_per_block * rows].reshape(steps_per_block, rows)
        for name in ("draws", "draw scratch")
    )
    for first in range(1, n, steps_per_block):
        draw = np.arange(first, min(first + steps_per_block, n), dtype=_U64)[:, None]
        targets, quotients = block[: draw.size], scratch[: draw.size]
        bounds = _U64(n + 1) - draw  # i + 1, for step i = n - draw
        # a 16-element buffer keeps each step's bound a scalar in numpy's
        # inner loop; errstate restores the caller's buffer size on exit
        with np.errstate():
            np.setbufsize(16)
            np.add(seeds, _GOLDEN_U64 * draw, out=targets)  # stream counters
            _mix64_inplace(targets, quotients)
            np.floor_divide(targets, bounds, out=quotients)
            quotients *= bounds
            targets -= quotients  # the draw mod i + 1
            targets *= _U64(rows)
            targets += lanes  # the flat index j*rows + m of column m's swap
        for i, target in zip(range(n - first, 0, -1), targets.view(np.intp)):
            # the method skips np.take's dispatch, and "clip" its buffered
            # bounds check: every index is in range by construction
            flat.take(target, out=saved, mode="clip")
            flat[target] = work[i]
            work[i] = saved
    return work.T
