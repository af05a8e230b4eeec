import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permspec import (
    DegenerateSeriesError,
    NullDistribution,
    PermutationPlan,
    TimeSeries,
    exceedance_count,
    gen_sinusoid,
    p_value,
    run_test,
    simulate_null,
    summarize_test,
    wilson_interval,
)
from permspec import kernels, permutation, rng
from permspec.rng import philox_generator
from permspec.spectral import analyze_spectrum, observe_rows

from oracles import exhaustive_null_msi, fisher_yates, wilson_interval_mp

ALTERNATING = [1.0, -1.0, 1.0, -1.0]


def small_null(values, seed=0):
    plan = PermutationPlan(master_seed=seed, n_permutations=len(values))
    return NullDistribution(msi_values=np.asarray(values, dtype=float), plan=plan)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationPlan(master_seed=0, n_permutations=0)
        with pytest.raises(ValueError):
            PermutationPlan(master_seed=-1, n_permutations=10)

    def test_permutation_rows_shape_and_determinism(self):
        first = rng.permutation_rows(9, rng.substream_seeds(3, 25), rng.ShuffleBuffers())
        second = rng.permutation_rows(9, rng.substream_seeds(3, 25), rng.ShuffleBuffers())
        assert first.shape == (25, 9)
        np.testing.assert_array_equal(first, second)

    def test_same_seed_same_permutation(self):
        first = rng.permutation_rows(12, [77], rng.ShuffleBuffers())[0]
        second = rng.permutation_rows(12, [77], rng.ShuffleBuffers())[0]
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, fisher_yates(12, 77))


class TestSimulateNull:
    def test_values_live_in_the_exhaustive_support_n4(self):
        support = np.sort(exhaustive_null_msi(tuple(ALTERNATING)))
        null = simulate_null(ALTERNATING, PermutationPlan(master_seed=5, n_permutations=400))
        for value in null.msi_values:
            assert np.abs(support - value).min() < 1e-9, f"{value} not in exact support"

    def test_values_live_in_the_exhaustive_support_n3(self):
        series = [0.3, -1.2, 2.5]
        support = np.sort(exhaustive_null_msi(tuple(series)))
        null = simulate_null(series, PermutationPlan(master_seed=8, n_permutations=200))
        for value in null.msi_values:
            assert np.abs(support - value).min() < 1e-9

    def test_null_distribution_freezes_a_copy(self):
        """The null's values are read-only; the caller's array stays writeable
        and writing to it moves no null value."""
        values = np.linspace(0.0, 1.0, 5)
        null = NullDistribution(values, PermutationPlan(1, 5))
        assert values.flags.writeable
        assert not null.msi_values.flags.writeable
        assert null.msi_values.tobytes() == values.tobytes()
        values[0] = 9.0
        assert null.msi_values[0] == 0.0

    @pytest.mark.parametrize("count", [4, 6])
    def test_null_distribution_needs_one_value_per_simulation(self, count):
        with pytest.raises(ValueError, match="one MSI value per planned simulation"):
            NullDistribution(np.zeros(count), PermutationPlan(1, 5))

    def test_single_simulation(self):
        null = simulate_null(ALTERNATING, PermutationPlan(master_seed=1, n_permutations=1))
        assert null.msi_values.shape == (1,)

    def test_uint32_positions_beyond_65536(self):
        """n=65,537 shuffles uint32 positions and gathers one-row tiles: each
        simulated MSI is ``analyze_spectrum`` of the oracle's permutation of
        the series, bit for bit.  The values are integers summing to 0, so
        the centring of a permuted series is exact."""
        n = 65_537
        assert rng.position_type(n) == np.uint32
        values = np.random.default_rng(n).integers(-40, 41, n).astype(float)
        values[0] -= values.sum()
        null = simulate_null(values, PermutationPlan(master_seed=11, n_permutations=2))
        expected = [analyze_spectrum(values[fisher_yates(n, seed)]).msi
                    for seed in rng.substream_seeds(11, 2).tolist()]
        assert null.msi_values.tolist() == expected

    @pytest.mark.parametrize("kind", ["real", "counts"])
    def test_row_blocks_change_no_bit(self, kind, monkeypatch):
        """A budget of 10 rows of positions splits 103 permutations into ten
        blocks and a last one of 3, all shuffled in one set of buffers; the
        null is bit-identical to one block."""
        generator = np.random.default_rng(8)
        if kind == "real":
            values = np.round(generator.standard_normal(50), 2)
        else:
            values = generator.poisson(3.0, 50)  # int64, stored as floats
        plan = PermutationPlan(master_seed=2**64 - 1, n_permutations=103)
        whole = simulate_null(values, plan).msi_values
        blocks = []
        shuffle = rng.permutation_rows

        def recorded(n, seeds, buffers):
            blocks.append((len(seeds), buffers))
            return shuffle(n, seeds, buffers)

        monkeypatch.setattr(rng, "permutation_rows", recorded)
        monkeypatch.setattr(permutation, "ROW_BLOCK_BYTES", 10 * 50 * np.dtype(np.uint8).itemsize)
        blocked = simulate_null(values, plan).msi_values
        assert [rows for rows, _ in blocks] == [10] * 10 + [3]
        assert len({id(buffers) for _, buffers in blocks}) == 1  # one set of arrays for all blocks
        assert blocked.tobytes() == whole.tobytes()

    def test_peak_memory_is_bounded_by_the_row_budget(self, monkeypatch):
        """A block of shuffled rows is held once: with blocks of 1,048 rows
        of n=1000 uint16 positions (2 MiB), the traced peak stays under
        twice their 8 MiB of float values and does not grow with M."""
        monkeypatch.setattr(permutation, "ROW_BLOCK_BYTES", 2 << 20)
        assert permutation._round_rows(1000, 4000) == 1048
        values = np.random.default_rng(4).standard_normal(1000)
        peaks = []
        for m in (1000, 4000):
            tracemalloc.start()
            try:
                simulate_null(values, PermutationPlan(master_seed=6, n_permutations=m))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 << 20, peaks
        assert max(peaks) <= 1.05 * min(peaks), peaks

    def test_long_series_shuffles_positions_not_values(self):
        """n=5000, M=1000 in one block: the shuffled positions are uint16,
        2 bytes each, and the traced peak stays under twice their 10 MB,
        where the float values alone would take 40 MB."""
        ts = TimeSeries(np.random.default_rng(2).standard_t(2, 5000))
        positions_bytes = 5000 * 1000 * np.dtype(np.uint16).itemsize
        tracemalloc.start()
        try:
            simulate_null(ts, PermutationPlan(master_seed=5, n_permutations=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * positions_bytes, peak

    def test_long_series_holds_the_same_arrays(self, monkeypatch):
        """The arrays a test holds at n=5000, M=1000, by name, shape and
        dtype: the (n, M) uint16 working matrix, the shuffle's two 256 KiB
        draw blocks, a 1 MiB tile of 26 float rows, its spectrum, and the
        lane block of 52 rows, two tiles spanning a cache line of uint16
        positions.  Another array, or a larger one, would move the peak
        memory of every long test."""
        made = []

        class Recorded(rng.ShuffleBuffers):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(rng, "ShuffleBuffers", Recorded)
        values = np.random.default_rng(2).standard_t(2, 5000)
        simulate_null(values, PermutationPlan(master_seed=5, n_permutations=1000))
        (buffers,) = made
        held = sorted((name, dtype.name, array.shape) for (name, dtype), array in buffers._held.items())
        assert held == [
            ("draw scratch", "uint64", (32_768,)),
            ("draws", "uint64", (32_768,)),
            ("stage", "uint16", (5000 * 52,)),
            ("tile", "float64", (26 * 5000,)),
            ("tile spectrum", "complex128", (26 * 2501,)),
            ("work", "uint16", (5000 * 1000,)),
        ]

    def test_degenerate_series_propagates(self):
        with pytest.raises(DegenerateSeriesError):
            simulate_null([2.0, 2.0, 2.0], PermutationPlan(master_seed=0, n_permutations=5))

    def test_null_support_invariant_under_permuting_the_input(self):
        """Exchangeability closure: permuting y permutes nothing observable."""
        rng = np.random.default_rng(42)
        series = rng.standard_normal(5)
        shuffled = series[rng.permutation(5)]
        support_a = np.unique(np.round(exhaustive_null_msi(tuple(series)), 9))
        support_b = np.unique(np.round(exhaustive_null_msi(tuple(shuffled)), 9))
        np.testing.assert_allclose(support_a, support_b, atol=1e-8)
        plan = PermutationPlan(master_seed=11, n_permutations=300)
        for value in simulate_null(shuffled, plan).msi_values:
            assert np.abs(support_a - value).min() < 1e-8


@st.composite
def split_null_rounds(draw):
    """A group of 1-5 tests of one length n with tied values (rounded to
    0 or 1 decimals), the master seed they share, M, and a split of [0, M)
    into rounds, as the bounds 0 < ... < M."""
    tests, n, m = draw(st.integers(1, 5)), draw(st.integers(3, 40)), draw(st.integers(1, 60))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((tests, n))
    values = np.round(2 * values, draw(st.integers(0, 1)))
    values[:, 0] = np.abs(values).max() + 1  # never constant
    seed = draw(st.integers(0, 2**64 - 1))
    cuts = draw(st.sets(st.integers(1, m - 1), max_size=8)) if m > 1 else set()
    return values, seed, m, [0, *sorted(cuts), m]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(split_null_rounds())
def test_any_split_into_rounds_gives_simulate_nulls_values(case):
    """count_rejections' rounds, on the units and scales of the observed
    pass, and simulate_null's blocks share one function: however
    simulations 0..M-1 of a group of tests sharing one master seed are
    split into rounds, all in one set of buffers, each test's concatenated
    round MSIs are its simulate_null values bit for bit."""
    values, seed, m, bounds = case
    units, scales, _, _ = observe_rows(values)
    buffers = rng.ShuffleBuffers()
    rounds = [
        permutation._null_round(units, scales, PermutationPlan(seed, m), first, stop - first, buffers)
        for first, stop in zip(bounds, bounds[1:])
    ]
    null = np.concatenate(rounds, axis=1)
    assert null.shape == (len(values), m)
    for row, series in zip(null, values):
        expected = simulate_null(series, PermutationPlan(master_seed=seed, n_permutations=m)).msi_values
        assert row.tobytes() == expected.tobytes()


class TestPValue:
    def test_observed_above_all(self):
        assert p_value(9.0, small_null([1.0, 2.0, 3.0, 4.0])) == 0.0

    def test_observed_at_or_below_all(self):
        assert p_value(1.0, small_null([1.0, 2.0, 3.0, 4.0])) == 1.0

    def test_ties_count_as_extreme(self):
        assert p_value(2.0, small_null([1.0, 2.0, 3.0, 4.0])) == 0.75

    def test_monotone_in_observed_msi(self):
        null = small_null(list(np.linspace(0.5, 3.0, 16)))
        previous = 1.0
        for observed in np.linspace(0.0, 3.5, 50):
            current = p_value(observed, null)
            assert current <= previous
            previous = current

    def test_values_on_the_grid(self):
        null = small_null([1.0, 2.0, 3.0, 4.0])
        for observed in (0.0, 1.5, 2.5, 3.5, 9.0):
            assert p_value(observed, null) in {0.0, 0.25, 0.5, 0.75, 1.0}


def affine_map(n: int) -> np.ndarray:
    """t -> a*t + b mod n for t = 0 .. n-1, with the smallest a >= 2
    coprime to n and b = n // 3: an exact symmetry of the MSI, which
    permutes the non-zero frequencies and turns each bin's phase."""
    a = next(a for a in range(2, n + 1) if math.gcd(a, n) == 1)
    return (a * np.arange(n) + n // 3) % n


class TestTies:
    """Rearrangements that leave the MSI mathematically unchanged count as
    exceedances of the observed value, whatever their rounding."""

    @pytest.mark.parametrize(
        "rearrange",
        [
            lambda order: order,
            lambda order: order[::-1],
            lambda order: np.roll(order, 1),
            lambda order: np.roll(order, len(order) // 3),
            lambda order: order[affine_map(len(order))],
        ],
        ids=["identity", "reversal", "shift-1", "shift-third", "affine"],
    )
    def test_tied_rearrangement_is_an_exceedance(self, rearrange):
        generator = np.random.default_rng(31)
        for n in range(3, 80):
            values = np.round(generator.standard_normal(n), 1)
            unit, variance = TimeSeries(values).spread()
            perms = rearrange(np.arange(n))[None]
            scale = kernels.msi_scale(n, variance)
            tied = kernels.null_msi(unit[None], perms, scale, rng.ShuffleBuffers())[0]
            null = NullDistribution(msi_values=tied, plan=PermutationPlan(0, 1))
            assert exceedance_count(analyze_spectrum(values).msi, null) == 1, n

    FAMILIES = {
        "rounded": lambda generator, shape: np.round(generator.standard_normal(shape), 1),
        "poisson": lambda generator, shape: generator.poisson(1.0, shape).astype(float),
        "binary": lambda generator, shape: generator.integers(0, 2, shape).astype(float),
        "continuous": lambda generator, shape: generator.standard_normal(shape),
    }

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_early_decisions_on_tied_data(self, kind):
        """count_rejections scores its observed MSIs by the observed pass
        over its rows, not through the null's gather.  On tied data, where
        the tie threshold decides each exceedance, and on continuous data,
        its count is still that of run_test on each series at the group's
        one plan, at a strict and a loose level, and at M=7, below
        ``DECISION_BLOCK``, at alpha = 2/7, a point of the b/M grid."""
        assert 7 < permutation.DECISION_BLOCK
        generator = np.random.default_rng(17)
        counts, tests = [], 0
        for n in (12, 30, 61):
            values = self.FAMILIES[kind](generator, (40, n))
            values = values[values.min(axis=1) < values.max(axis=1)]  # a constant row has no test
            for m, alpha in ((60, 0.05), (99, 0.3), (7, 2 / 7)):
                plan = PermutationPlan(1000 * n, m)
                count = permutation.count_rejections(values, plan, alpha, rng.ShuffleBuffers())
                expected = sum(run_test(row, plan).p_value <= alpha for row in values)
                assert count == expected, (n, m, alpha)
                counts.append(count)
                tests += len(values)
        assert 0 < sum(counts) < tests  # decisions both ways

    def test_binary_series_null_size(self):
        """On exchangeable 0/1 data, where exact ties are everywhere, the
        rejection rate at alpha = 0.05 is not significantly above alpha."""
        alpha, count, rejections = 0.05, 2000, 0
        for index in range(count):
            values = philox_generator(2024, index).integers(0, 2, 20).astype(float)
            if values.min() == values.max():
                continue  # constant: no test
            plan = PermutationPlan(master_seed=index, n_permutations=500)
            rejections += run_test(values, plan).p_value <= alpha
        low, _ = wilson_interval(rejections, count, 0.95)
        assert low <= alpha, rejections / count


class TestWilsonInterval:
    def test_zero_successes_reference_value(self):
        low, high = wilson_interval(0, 10, 0.95)
        assert low == 0.0
        assert high == pytest.approx(0.2775, abs=2e-4)

    def test_matches_high_precision_oracle(self):
        for successes, trials, confidence in [
            (0, 10, 0.95),
            (3, 17, 0.9),
            (200, 400, 0.99),
            (399, 400, 0.95),
        ]:
            expected = wilson_interval_mp(successes, trials, confidence)
            got = wilson_interval(successes, trials, confidence)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetry_under_success_failure_swap(self):
        low, high = wilson_interval(0, 10, 0.95)
        mirror_low, mirror_high = wilson_interval(10, 10, 0.95)
        assert mirror_low == pytest.approx(1.0 - high, abs=1e-12)
        assert mirror_high == pytest.approx(1.0 - low, abs=1e-12)

    def test_interval_shrinks_with_trials(self):
        widths = []
        for trials in (10, 100, 10_000):
            low, high = wilson_interval(trials // 2, trials, 0.95)
            assert low <= 0.5 <= high
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < 0.03

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16])
    def test_narrow_numpy_counts_give_the_python_interval(self, dtype):
        """Counts of a narrow numpy type, which the checks accept, give the
        bits of the same Python ints: 4 * trials**2 must not wrap."""
        trials = np.iinfo(dtype).max // 2
        for successes in (0, 3, trials // 3, trials):
            got = wilson_interval(dtype(successes), dtype(trials), 0.95)
            assert got == wilson_interval(successes, trials, 0.95)
            assert all(type(bound) is float for bound in got)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(1, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, 1.0)


class TestRunTest:
    def test_strong_fundamental_sinusoid_is_detected(self):
        noise = np.random.default_rng(123).standard_normal(60) * 0.05
        series = gen_sinusoid(60, 6 / 60, amplitude=1.0) + noise
        plan = PermutationPlan(master_seed=9, n_permutations=1000)
        result = run_test(series, plan)
        assert result.p_value <= 0.01
        assert result.peak_frequency == pytest.approx(0.1, abs=1 / 60)

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(55)
        series = rng.standard_normal(40)
        plan = PermutationPlan(master_seed=4, n_permutations=300)
        first = run_test(series, plan)
        second = run_test(series, plan)
        assert first == second  # dataclass equality covers every field

    def test_result_fields_are_consistent(self):
        rng = np.random.default_rng(77)
        series = rng.standard_normal(30)
        plan = PermutationPlan(master_seed=21, n_permutations=250)
        result = run_test(series, plan, confidence=0.9)
        analysis = analyze_spectrum(series)
        null = simulate_null(series, plan)
        assert result == summarize_test(analysis, null, 0.9)
        assert result.p_value == result.exceedances / result.n_permutations
        assert 0.0 < result.peak_frequency < 1.0
        assert result.wilson_low <= result.p_value <= result.wilson_high
        assert result.n == 30
        assert result.master_seed == 21

    def test_estimator_stabilises_as_simulations_grow(self):
        rng = np.random.default_rng(31)
        series = rng.standard_normal(40)
        estimates = {}
        for m in (200, 2000, 20_000):
            plan = PermutationPlan(master_seed=17, n_permutations=m)
            estimates[m] = run_test(series, plan).p_value
        for small, large in [(200, 2000), (2000, 20_000)]:
            p = estimates[large]
            spread = math.sqrt(max(p * (1 - p), 0.25 / large) * (1 / small + 1 / large))
            assert abs(estimates[small] - p) < 3 * spread, (
                f"p at M={small} is {estimates[small]:.4f}, "
                f"at M={large} is {p:.4f}, allowed 3*{spread:.4f}"
            )

    def test_dataclasses_are_frozen(self):
        plan = PermutationPlan(master_seed=0, n_permutations=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.master_seed = 1
