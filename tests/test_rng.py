from collections import Counter

import numpy as np
import pytest

from oracles import fisher_yates
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
        assert rng.mix64(raw) == out


def test_seed_chain_is_order_sensitive():
    assert rng.seed_chain(1, 2) != rng.seed_chain(2, 1)
    assert rng.seed_chain(1) != rng.seed_chain(1, 0)
    assert 0 <= rng.seed_chain(123, 456) < 2**64


def test_philox_generators_are_reproducible_and_distinct():
    a1 = rng.philox_generator(5, 1).standard_normal(4)
    a2 = rng.philox_generator(5, 1).standard_normal(4)
    b = rng.philox_generator(5, 2).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_substream_seeds_are_pure_functions_of_index():
    long = rng.substream_seeds(99, 10)
    short = rng.substream_seeds(99, 4)
    np.testing.assert_array_equal(long[:4], short)


def test_permutation_rows_matches_single_permutation():
    seeds = rng.substream_seeds(7, 5)
    matrix = rng.permutation_rows(np.arange(8), seeds)
    for m, seed in enumerate(seeds.tolist()):
        single = rng.permutation_rows(np.arange(8), seeds[m : m + 1])[0]
        np.testing.assert_array_equal(matrix[m], single)
        np.testing.assert_array_equal(single, fisher_yates(8, seed))


def test_permutations_are_valid():
    seeds = rng.substream_seeds(11, 100)
    matrix = rng.permutation_rows(np.arange(13), seeds)
    expected = np.arange(13)
    for row in matrix:
        np.testing.assert_array_equal(np.sort(row), expected)


def test_length_one_permutation():
    np.testing.assert_array_equal(rng.permutation_rows(np.arange(1), [5]), [[0]])


def test_invalid_length():
    with pytest.raises(ValueError):
        rng.permutation_rows(np.arange(0), [5])


def test_uniformity_n3_chi_square():
    """60,000 draws over the 6 orders of n=3: each lands within 1/6 +- 0.01."""
    draws = 60_000
    matrix = rng.permutation_rows(np.arange(3), rng.substream_seeds(2024, draws))
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
    """Row m is ``values[fisher_yates(n, seeds[m])]`` for float, complex and
    integer values, however the draws are blocked."""
    monkeypatch.setattr(rng, "DRAW_BLOCK_BYTES", draw_block_bytes)
    orders = np.array([fisher_yates(n, seed) for seed in ORACLE_SEEDS.tolist()])
    generator = np.random.default_rng(n)
    real = generator.standard_normal(n)
    cases = [real, real + 1j * generator.standard_normal(n), generator.integers(-(2**62), 2**62, n)]
    for values in cases:
        rows = rng.permutation_rows(values, ORACLE_SEEDS)
        assert rows.dtype == values.dtype and rows.T.flags.c_contiguous
        np.testing.assert_array_equal(rows, values[orders])
    np.testing.assert_array_equal(rng.permutation_rows(np.arange(n), ORACLE_SEEDS), orders)


def test_permutation_rows_follow_the_oracle_across_default_draw_blocks():
    """1003 rows of n=240: the default block holds 130 of the 239 steps, so
    the second block is partial."""
    seeds = np.concatenate([ORACLE_SEEDS[:2], rng.substream_seeds(5, 1001)])
    assert (240 - 1) % (rng.DRAW_BLOCK_BYTES // (8 * seeds.size)) != 0
    values = np.round(np.random.default_rng(3).standard_normal(240), 2)
    rows = rng.permutation_rows(values, seeds)
    for row, seed in zip(rows, seeds.tolist()):
        np.testing.assert_array_equal(row, values[fisher_yates(240, seed)])
