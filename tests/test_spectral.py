import math

import numpy as np
import pytest

from permspec import DegenerateSeriesError, TimeSeries, analyze_spectrum, fisher_g, fisher_p_value

from oracles import (
    fisher_tail_mp,
    naive_dft_at,
    naive_fisher_g,
    naive_sample_variance,
    naive_spectral_identity,
    naive_unitary_dft_matrix,
)

ALTERNATING = [1.0, -1.0, 1.0, -1.0]


def random_series(rng, n=None):
    n = n or int(rng.integers(3, 40))
    return rng.standard_normal(n)


def deviations(values) -> np.ndarray:
    """The deviations from the mean that analyze_spectrum and simulate_null
    transform: ``TimeSeries.spread()``'s units times 2**e, with e the
    ``np.frexp`` exponent of the largest |value|."""
    unit, _ = TimeSeries(values).spread()
    return np.ldexp(unit, np.frexp(np.abs(values).max())[1])


def mirror_weights(n: int) -> np.ndarray:
    """How many bins of the full spectrum each bin k = 0 .. n//2 of the
    half spectrum stands for: 1 for bin 0 and, at even n, for bin n/2,
    which are their own mirrors; 2 for the rest."""
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0)


def scaled_oracle(values, k: int) -> float:
    """The scaled intensity at k/n by direct summation: |DFT| over the
    sample standard deviation."""
    readings = list(values)
    return abs(naive_dft_at(readings, k / len(readings))) / math.sqrt(naive_sample_variance(readings))


class TestCenter:
    def test_zero_mean_vector_is_fixed_point(self):
        np.testing.assert_array_equal(deviations(ALTERNATING), ALTERNATING)

    def test_hand_example(self):
        np.testing.assert_allclose(deviations([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = random_series(rng) * rng.uniform(0.1, 1e6)
            residual = abs(deviations(values).sum())
            assert residual <= 1e-12 * len(values) * np.abs(values).max()


class TestDftAt:
    """``analyze_spectrum(...).scaled_intensity[k]``, k = 0 .. n//2, against
    the direct-summation DFT at frequency k/n."""

    def test_alternating_series_at_half(self):
        assert naive_dft_at(ALTERNATING, 0.5) == pytest.approx(2 + 0j)
        expected = scaled_oracle(ALTERNATING, 2)
        assert analyze_spectrum(ALTERNATING).scaled_intensity[2] == pytest.approx(expected)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            values = random_series(rng)
            expected = [scaled_oracle(values, k) for k in range(len(values) // 2 + 1)]
            scaled = analyze_spectrum(values).scaled_intensity
            np.testing.assert_allclose(scaled, expected, rtol=1e-10, atol=1e-12)


class TestAnalyzeSpectrum:
    def test_alternating_series_exact_values(self):
        analysis = analyze_spectrum(ALTERNATING)
        assert analysis.n == 4
        np.testing.assert_allclose(analysis.scaled_intensity, [0.0, 0.0, math.sqrt(3.0)], atol=1e-12)
        assert analysis.msi == pytest.approx(math.sqrt(3.0))
        assert analysis.peak_index == 2
        assert analysis.peak_frequency == pytest.approx(0.5)

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            analyze_spectrum([7.0, 7.0, 7.0, 7.0])

    @pytest.mark.parametrize("n,k", [(8, 1), (8, 3), (12, 5), (31, 7)])
    def test_fundamental_cosine_splits_energy_into_two_equal_spikes(self, n, k):
        """Bin k holds half of the n - 1 of energy, and its mirror n - k,
        which the half spectrum does not store, the other half."""
        t = np.arange(n)
        analysis = analyze_spectrum(np.cos(2 * np.pi * k * t / n))
        assert analysis.scaled_intensity.shape == (n // 2 + 1,)
        assert analysis.scaled_intensity[k] == pytest.approx(math.sqrt((n - 1) / 2.0), rel=1e-10)
        others = np.delete(analysis.scaled_intensity, k)
        assert np.abs(others).max() < 1e-8

    def test_zero_frequency_bin_is_exactly_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            analysis = analyze_spectrum(random_series(rng))
            assert analysis.scaled_intensity[0] == 0.0

    def test_parseval(self):
        """The squared intensities in the series' own units, each bin
        counted with its mirror, sum to the squared deviations from the
        mean, summed directly."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = random_series(rng)
            analysis = analyze_spectrum(values)
            weighted = mirror_weights(len(values)) * analysis.scaled_intensity**2
            total = weighted.sum() * naive_sample_variance(list(values))
            mean = sum(values) / len(values)
            target = sum((value - mean) ** 2 for value in values)
            assert abs(total - target) <= 1e-10 * target

    def test_scaled_intensity_norm_is_degrees_of_freedom(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            values = random_series(rng)
            analysis = analyze_spectrum(values)
            norm_sq = (mirror_weights(len(values)) * analysis.scaled_intensity**2).sum()
            assert norm_sq == pytest.approx(len(values) - 1, rel=1e-10)

    def test_affine_invariance_of_scaled_intensity(self):
        rng = np.random.default_rng(8)
        values = random_series(rng, 23)
        base = analyze_spectrum(values)
        for a, b in [(2.0, 0.0), (-0.5, 3.0), (1e3, -7.0)]:
            other = analyze_spectrum(a * values + b)
            np.testing.assert_allclose(
                other.scaled_intensity, base.scaled_intensity, atol=1e-10
            )
            assert other.msi == pytest.approx(base.msi, rel=1e-10)

    def test_msi_is_the_max_over_nonzero_bins(self):
        rng = np.random.default_rng(9)
        analysis = analyze_spectrum(random_series(rng))
        assert analysis.msi == analysis.scaled_intensity[1:].max()
        assert 1 <= analysis.peak_index <= analysis.n // 2

    def test_nyquist_spectrum_covers_zero_to_half(self):
        analysis = analyze_spectrum(ALTERNATING)
        freqs, bars = analysis.nyquist_spectrum()
        np.testing.assert_allclose(freqs, [0.25, 0.5])
        np.testing.assert_allclose(bars, analysis.scaled_intensity[1:3])


class TestFisherStatistic:
    """Fisher's g: the largest periodogram ordinate over k = 1 .. (n-1)//2
    divided by their sum (the zero and Nyquist bins left out)."""

    def test_all_energy_in_one_bin_gives_one(self):
        """A pure cosine at each Fourier frequency k/n, k = 1 .. (n-1)//2."""
        for n in (3, 4, 24, 31):
            for k in range(1, (n - 1) // 2 + 1):
                cosine = np.cos(2 * np.pi * k * np.arange(n) / n)
                assert fisher_g(cosine) == pytest.approx(1.0, rel=1e-12), (n, k)

    def test_lies_in_unit_interval_and_tracks_msi(self):
        """Equal to the direct-DFT oracle for odd and even n, in [1/m, 1],
        and msi**2 / m for odd n (for even n the Nyquist bin is left out)."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            values = random_series(rng)
            n = values.size
            m = (n - 1) // 2
            value = fisher_g(values)
            assert value == pytest.approx(naive_fisher_g(list(values)), rel=1e-10)
            assert 1.0 / m * (1 - 1e-12) <= value <= 1.0 + 1e-12
            if n % 2:
                assert value == pytest.approx(analyze_spectrum(values).msi ** 2 / m, rel=1e-12)

    def test_nyquist_only_series_is_degenerate(self):
        """All of the alternating series' variation is in the left-out
        Nyquist bin, so the ordinates sum to zero."""
        with pytest.raises(DegenerateSeriesError, match="Nyquist"):
            fisher_g(ALTERNATING)
        with pytest.raises(DegenerateSeriesError):
            fisher_g([0.1] * 7)

    def test_rejects_complex_series(self):
        """The series boundary rejects complex input, before any spectrum."""
        with pytest.raises(TypeError, match="series values must be real numbers"):
            fisher_g(np.array([1.0, 2.0j, 3.0, -1.0]))


class TestFisherPValue:
    """Fisher's exact tail of g, summed in integers, against mpmath."""

    @pytest.mark.parametrize("m", [1, 2, 15, 30, 119])
    def test_equals_the_80_digit_tail(self, m):
        """The nearest float to the exact tail, on a grid of g that crosses
        1/m and every 1/j at which a term joins the sum."""
        grid = np.linspace(0.0, 1.0, 101).tolist()
        grid += [1 / j for j in range(1, m + 1)] + [1 / j + 1e-9 for j in range(2, m + 1)]
        for g in grid:
            assert fisher_p_value(g, m) == fisher_tail_mp(g, m), g

    @pytest.mark.parametrize("m", [2, 15, 30, 119])
    def test_never_increases_with_g(self, m):
        grid = np.sort(np.random.default_rng(m).uniform(1.0 / m, 1.0, 400))
        tails = [fisher_p_value(g, m) for g in [0.0, 1.0 / m, *grid.tolist(), 1.0]]
        assert tails[:2] == [1.0, 1.0] and tails[-1] == 0.0
        assert all(later <= earlier for earlier, later in zip(tails, tails[1:]))

    def test_numpy_arguments(self):
        assert fisher_p_value(np.float64(0.3), np.int64(15)) == fisher_p_value(0.3, 15)

    @pytest.mark.parametrize(
        "g,m,error",
        [(0.3, 0, ValueError), (0.3, 15.0, TypeError), (0.3, True, TypeError),
         (-0.1, 15, ValueError), (1.5, 15, ValueError), (math.nan, 15, ValueError),
         (math.inf, 15, ValueError)],
    )
    def test_rejects_values_outside_its_rule(self, g, m, error):
        with pytest.raises(error):
            fisher_p_value(g, m)


class TestSpectralIdentity:
    """The autocorrelation/Chebyshev expansion of the squared scaled
    intensity (``naive_spectral_identity``) against the package's spectrum."""

    def test_alternating_example(self):
        assert naive_spectral_identity(ALTERNATING, 0.5) == pytest.approx(3.0)
        assert analyze_spectrum(ALTERNATING).scaled_intensity[2] ** 2 == pytest.approx(3.0)

    def test_equals_direct_squared_scaled_intensity(self):
        """At each k/n against ``analyze_spectrum``, and off the grid
        against the direct sum."""
        rng = np.random.default_rng(15)
        for _ in range(100):
            values = list(random_series(rng))
            n = len(values)
            scaled = analyze_spectrum(values).scaled_intensity
            for k in range(1, n // 2 + 1):
                assert naive_spectral_identity(values, k / n) == pytest.approx(
                    scaled[k] ** 2, rel=1e-8, abs=1e-10
                )
            delta = rng.uniform(0, 1)
            direct = abs(naive_dft_at(values, delta)) ** 2 / naive_sample_variance(values)
            assert naive_spectral_identity(values, delta) == pytest.approx(direct, rel=1e-8, abs=1e-10)

    def test_sum_over_fundamental_frequencies_is_parseval(self):
        rng = np.random.default_rng(16)
        values = list(random_series(rng, 12))
        n = len(values)
        total = sum(naive_spectral_identity(values, k / n) for k in range(n))
        assert total == pytest.approx(n - 1, rel=1e-8)


class TestUnitaryDftMatrix:
    """``naive_unitary_dft_matrix`` U: unitary, and ``|U @ (x - mean)|`` over
    the sample standard deviation is ``analyze_spectrum(x).scaled_intensity``
    at k = 0 .. n//2."""

    def test_n_equals_one(self):
        np.testing.assert_allclose(naive_unitary_dft_matrix(1), [[1.0]])

    def test_n_equals_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(naive_unitary_dft_matrix(2), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 16, 61, 256, 1024])
    def test_unitarity(self, n):
        matrix = np.array(naive_unitary_dft_matrix(n))
        deviation = matrix @ matrix.conj().T - np.eye(n)
        assert np.abs(deviation).max() < 1e-12

    def test_matrix_applied_to_centered_series_matches_analysis(self):
        rng = np.random.default_rng(17)
        values = random_series(rng, 15)
        via_matrix = np.array(naive_unitary_dft_matrix(15)) @ (values - values.mean())
        scaled = np.abs(via_matrix[: 15 // 2 + 1]) / math.sqrt(naive_sample_variance(list(values)))
        np.testing.assert_allclose(scaled, analyze_spectrum(values).scaled_intensity, atol=1e-10)

    def test_alternating_example_through_centering(self):
        product = np.array(naive_unitary_dft_matrix(4)) @ (np.array(ALTERNATING) - np.mean(ALTERNATING))
        np.testing.assert_allclose(product, [0.0, 0.0, 2.0, 0.0], atol=1e-12)
        scaled = np.abs(product[:3]) / math.sqrt(naive_sample_variance(ALTERNATING))
        np.testing.assert_allclose(scaled, analyze_spectrum(ALTERNATING).scaled_intensity, atol=1e-12)
