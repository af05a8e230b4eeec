import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fisher_yates, seed_chain, splitmix64
from permspec import rng

# stream seeds of the oracle tests: both ends of the 64-bit range and a
# count of rows that no draw block below is a multiple of
ORACLE_SEEDS = np.concatenate(
    [np.array([0, 2**64 - 1, 2**63], dtype=np.uint64), rng.substream_seeds(4, 10)]
)


def test_mix64_scalar_and_array_agree():
    values = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    mixed = rng.mix64_array(values)
    for raw, out in zip(values.tolist(), mixed.tolist()):
        assert splitmix64(raw) == out


@pytest.mark.parametrize(
    "values",
    [np.uint64(5), np.array(2**64 - 1, dtype=np.uint64), np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
     np.arange(6, dtype=np.uint64).reshape(2, 3) * np.uint64(rng.GOLDEN)],
    ids=["numpy-scalar", "0-d", "1-d", "2-d"],
)
def test_mix64_array_wraps_silently_for_every_shape(values):
    """Every product wraps mod 2**64 without an overflow warning, and each
    element is the Python-int finalizer of the oracle."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = rng.mix64_array(values)
    assert mixed.shape == np.shape(values) and mixed.dtype == np.uint64
    for raw, out in zip(np.ravel(values).tolist(), np.ravel(mixed).tolist()):
        assert out == splitmix64(raw)


def test_seed_chain_is_order_sensitive():
    assert rng.seed_chain(1, 2) != rng.seed_chain(2, 1)
    assert rng.seed_chain(1) != rng.seed_chain(1, 0)
    assert 0 <= rng.seed_chain(123, 456) < 2**64


@pytest.mark.parametrize(
    "components", [(0,), (5, 1), (123, 456, 7), (2**64 - 1, 2**63, 0), (-1, 3), (2**64 + 9, 2)]
)
def test_seed_chain_matches_the_oracle(components):
    """Python ints, reduced mod 2**64, give the oracle's int."""
    seed = rng.seed_chain(*components)
    assert type(seed) is int and seed == seed_chain(*components)


def test_seed_chain_of_arrays_gives_each_elements_seed():
    """Array components broadcast: a block of replicate indices, with a row
    per role, gives the seed of every (index, role) pair."""
    index = np.arange(7, dtype=np.uint64) + np.uint64(2**63 - 3)
    roles = np.array([[0], [1]])
    seeds = rng.seed_chain(2**64 - 5, index, roles)
    assert seeds.shape == (2, 7) and seeds.dtype == np.uint64
    for role in (0, 1):
        assert seeds[role].tolist() == [seed_chain(2**64 - 5, i, role) for i in index.tolist()]


def test_philox_generators_are_reproducible_and_distinct():
    a1 = rng.philox_generator(5, 1).standard_normal(4)
    a2 = rng.philox_generator(5, 1).standard_normal(4)
    b = rng.philox_generator(5, 2).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_philox_generators_rekey_one_generator_as_fresh_ones():
    """Each yielded Generator draws what a new philox_generator of its seed
    draws, though the previous one left half of a 64-bit word and part of a
    Philox block unused."""

    def draws(generator):
        return [
            generator.integers(0, 2**32, dtype=np.uint32),
            *generator.standard_normal(3),
            generator.uniform(0.0, 0.5),
            *generator.standard_t(2, 5),
            generator.integers(0, 2**32, dtype=np.uint32),
        ]

    seeds = np.array([0, 7, 2**64 - 1, 7], dtype=np.uint64)
    for seed, generator in zip(seeds.tolist(), rng.philox_generators(seeds)):
        assert draws(generator) == draws(rng.philox_generator(seed))


def test_substream_seeds_are_pure_functions_of_index():
    long = rng.substream_seeds(99, 10)
    short = rng.substream_seeds(99, 4)
    np.testing.assert_array_equal(long[:4], short)


def test_substream_seeds_of_many_bases_from_any_offset():
    bases = np.array([0, 2**64 - 1, 12345], dtype=np.uint64)
    block = rng.substream_seeds(bases, 4, first=6)
    assert block.shape == (3, 4)
    for base, row in zip(bases.tolist(), block):
        np.testing.assert_array_equal(row, rng.substream_seeds(base, 10)[6:])


def shuffle(n, seeds):
    """``permutation_rows`` in buffers of its own, so the result outlives
    later calls."""
    return rng.permutation_rows(n, seeds, rng.ShuffleBuffers())


def test_permutation_rows_matches_single_permutation():
    seeds = rng.substream_seeds(7, 5)
    matrix = shuffle(8, seeds)
    for m, seed in enumerate(seeds.tolist()):
        single = shuffle(8, seeds[m : m + 1])[0]
        np.testing.assert_array_equal(matrix[m], single)
        np.testing.assert_array_equal(single, fisher_yates(8, seed))


def test_permutations_are_valid():
    seeds = rng.substream_seeds(11, 100)
    matrix = shuffle(13, seeds)
    expected = np.arange(13)
    for row in matrix:
        np.testing.assert_array_equal(np.sort(row), expected)


def test_length_one_permutation():
    np.testing.assert_array_equal(shuffle(1, [5]), [[0]])


def test_invalid_length():
    with pytest.raises(ValueError):
        shuffle(0, [5])


@pytest.mark.parametrize(
    "n,dtype", [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]
)
def test_position_type_is_the_narrowest_unsigned_type(n, dtype):
    assert rng.position_type(n) == dtype


def test_uniformity_n3_chi_square():
    """60,000 draws over the 6 orders of n=3: each lands within 1/6 +- 0.01."""
    draws = 60_000
    matrix = shuffle(3, rng.substream_seeds(2024, draws))
    counts = Counter(map(tuple, matrix.tolist()))
    assert len(counts) == 6
    expected = draws / 6
    for order, count in counts.items():
        assert abs(count / draws - 1 / 6) < 0.01, f"order {order}: {count / draws:.4f}"
    chi_square = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi_square < 20.5, f"chi-square {chi_square:.1f} too large for 5 dof"


@pytest.mark.parametrize("n", [1, 2, 3, 17, 240])
@pytest.mark.parametrize(
    "draw_block_bytes",
    [rng.DRAW_BLOCK_BYTES, 8 * len(ORACLE_SEEDS) * 5, 1],
    ids=["default-block", "5-step-blocks", "1-step-blocks"],
)
def test_permutation_rows_follow_the_fisher_yates_oracle(n, draw_block_bytes, monkeypatch):
    """Row m is ``fisher_yates(n, seeds[m])`` in the narrowest position type,
    however the draws are blocked, and float, complex and integer values
    gathered from it are the oracle's permutations of them."""
    monkeypatch.setattr(rng, "DRAW_BLOCK_BYTES", draw_block_bytes)
    orders = np.array([fisher_yates(n, seed) for seed in ORACLE_SEEDS.tolist()])
    rows = shuffle(n, ORACLE_SEEDS)
    assert rows.dtype == rng.position_type(n) and rows.T.flags.c_contiguous
    np.testing.assert_array_equal(rows, orders)
    generator = np.random.default_rng(n)
    real = generator.standard_normal(n)
    cases = [real, real + 1j * generator.standard_normal(n), generator.integers(-(2**62), 2**62, n)]
    for values in cases:
        np.testing.assert_array_equal(values[rows], values[orders])


def test_permutation_rows_follow_the_oracle_across_default_draw_blocks():
    """1003 rows of n=240: the default block holds 32 of the 239 steps, so
    the last block is partial."""
    seeds = np.concatenate([ORACLE_SEEDS[:2], rng.substream_seeds(5, 1001)])
    assert (240 - 1) % (rng.DRAW_BLOCK_BYTES // (8 * seeds.size)) != 0
    rows = shuffle(240, seeds)
    for row, seed in zip(rows, seeds.tolist()):
        np.testing.assert_array_equal(row, fisher_yates(240, seed))


# (n, rows) of one call: lengths on both sides of 256, where the positions
# widen from uint8 to uint16
shuffle_calls = st.lists(
    st.tuples(st.one_of(st.integers(1, 40), st.sampled_from([256, 257])), st.integers(1, 30)),
    min_size=2,
    max_size=6,
)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(shuffle_calls, st.sampled_from([rng.DRAW_BLOCK_BYTES, 64, 1]), st.integers(0, 2**64 - 1))
def test_held_buffers_carry_nothing_between_calls(calls, draw_block_bytes, seed):
    """One ShuffleBuffers through calls whose n and row count grow and
    shrink, its arrays poisoned first (all-ones positions and draws):
    every call shuffles in the held arrays, and its rows equal a call in
    fresh buffers bit for bit and follow the Fisher-Yates oracle."""
    buffers = rng.ShuffleBuffers()
    largest = max(n * rows for n, rows in calls)
    held = {dtype: buffers.take("work", (largest,), dtype) for dtype in (np.uint8, np.uint16)}
    for array in held.values():
        array.fill(np.iinfo(array.dtype).max)
    for name in ("draws", "draw scratch"):
        buffers.take(name, (largest,), np.uint64).fill(2**64 - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "DRAW_BLOCK_BYTES", draw_block_bytes)
        for call, (n, rows) in enumerate(calls):
            seeds = rng.substream_seeds(seed, rows, first=call)
            shuffled = rng.permutation_rows(n, seeds, buffers)
            assert np.shares_memory(shuffled, held[rng.position_type(n).type])
            fresh = shuffle(n, seeds)
            assert shuffled.dtype == fresh.dtype and shuffled.tobytes() == fresh.tobytes()
            orders = np.array([fisher_yates(n, s) for s in seeds.tolist()])
            np.testing.assert_array_equal(shuffled, orders)
