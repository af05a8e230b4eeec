import math

import numpy as np
import pytest

from permspec import (
    DegenerateSeriesError,
    analyze_spectrum,
    autocorrelation_profile,
    autocovariance,
    center,
    chebyshev_t,
    dft_at,
    fisher_g,
    spectral_identity,
    unitary_dft_matrix,
)

from oracles import naive_dft_at, naive_fisher_g

ALTERNATING = [1.0, -1.0, 1.0, -1.0]


def random_series(rng, n=None):
    n = n or int(rng.integers(3, 40))
    return rng.standard_normal(n)


class TestCenter:
    def test_constant_vector_goes_to_zero(self):
        assert center([1.0, 1.0, 1.0, 1.0]) == pytest.approx([0.0] * 4, abs=0)

    def test_zero_mean_vector_is_fixed_point(self):
        np.testing.assert_array_equal(center(ALTERNATING), ALTERNATING)

    def test_hand_example(self):
        np.testing.assert_allclose(center([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = random_series(rng) * rng.uniform(0.1, 1e6)
            residual = abs(center(values).sum())
            assert residual <= 1e-12 * len(values) * np.abs(values).max()


class TestDftAt:
    def test_zero_frequency_is_exactly_zero_after_centering(self):
        rng = np.random.default_rng(1)
        value = dft_at(random_series(rng), 0.0)
        assert abs(value) < 1e-12

    def test_alternating_series_at_half(self):
        assert dft_at(ALTERNATING, 0.5) == pytest.approx(2 + 0j)

    def test_periodic_in_delta(self):
        rng = np.random.default_rng(2)
        values = random_series(rng)
        for delta in (0.13, 0.49, 0.77):
            assert dft_at(values, delta) == pytest.approx(dft_at(values, delta + 1.0))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            values = random_series(rng)
            delta = rng.uniform(0, 1)
            expected = naive_dft_at(list(values), delta)
            assert dft_at(values, delta) == pytest.approx(expected, rel=1e-10)


class TestAnalyzeSpectrum:
    def test_alternating_series_exact_values(self):
        analysis = analyze_spectrum(ALTERNATING)
        np.testing.assert_allclose(analysis.intensity, [0.0, 0.0, 2.0, 0.0], atol=1e-12)
        assert analysis.sample_variance == pytest.approx(4.0 / 3.0)
        np.testing.assert_allclose(
            analysis.scaled_intensity, [0.0, 0.0, math.sqrt(3.0), 0.0], atol=1e-12
        )
        assert analysis.msi == pytest.approx(math.sqrt(3.0))
        assert analysis.peak_index == 2
        assert analysis.peak_frequency == pytest.approx(0.5)

    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            analyze_spectrum([7.0, 7.0, 7.0, 7.0])

    @pytest.mark.parametrize("n,k", [(8, 1), (8, 3), (12, 5), (31, 7)])
    def test_fundamental_cosine_splits_energy_into_two_equal_spikes(self, n, k):
        t = np.arange(n)
        analysis = analyze_spectrum(np.cos(2 * np.pi * k * t / n))
        expected = math.sqrt((n - 1) / 2.0)
        assert analysis.scaled_intensity[k] == pytest.approx(expected, rel=1e-10)
        assert analysis.scaled_intensity[n - k] == pytest.approx(expected, rel=1e-10)
        others = np.delete(analysis.scaled_intensity, [k, n - k])
        assert np.abs(others).max() < 1e-8

    def test_zero_frequency_bin_is_exactly_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            analysis = analyze_spectrum(random_series(rng))
            assert analysis.dft[0] == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = random_series(rng)
            analysis = analyze_spectrum(values)
            n = len(values)
            total = (analysis.intensity**2).sum()
            target = (n - 1) * analysis.sample_variance
            assert abs(total - target) <= 1e-10 * target

    def test_scaled_intensity_norm_is_degrees_of_freedom(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            values = random_series(rng)
            analysis = analyze_spectrum(values)
            norm_sq = (analysis.scaled_intensity**2).sum()
            assert norm_sq == pytest.approx(len(values) - 1, rel=1e-10)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = random_series(rng)
            n = len(values)
            analysis = analyze_spectrum(values)
            for k in range(1, n):
                mirror = n - k
                assert analysis.dft[k] == pytest.approx(
                    np.conj(analysis.dft[mirror]), abs=1e-12 * analysis.intensity.max()
                )
                assert analysis.intensity[k] == pytest.approx(
                    analysis.intensity[mirror], abs=1e-12
                )

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
        assert 1 <= analysis.peak_index <= analysis.n - 1

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


class TestAutocovariance:
    def test_hand_example_lag_zero(self):
        assert autocovariance([1.0, 2.0, 3.0], 0) == pytest.approx(1.0)

    def test_hand_example_lag_one(self):
        assert autocovariance([1.0, 2.0, 3.0], 1) == pytest.approx(0.0)

    def test_lag_zero_is_sample_variance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            values = random_series(rng)
            assert autocovariance(values, 0) == pytest.approx(
                np.var(values, ddof=1), rel=1e-12
            )

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError, match="lag"):
            autocovariance([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError, match="lag"):
            autocovariance([1.0, 2.0, 3.0], -1)

    def test_profile_normalisation(self):
        rng = np.random.default_rng(13)
        values = random_series(rng)
        profile = autocorrelation_profile(values)
        assert profile.autocorrelations[0] == 1.0
        assert profile.autocovariances[0] == pytest.approx(
            np.var(values, ddof=1), rel=1e-12
        )
        assert profile.max_lag == len(values) - 2


class TestChebyshev:
    def test_order_zero(self):
        assert chebyshev_t(0, 0.3) == 1.0

    def test_order_one_is_identity(self):
        assert chebyshev_t(1, 0.3) == pytest.approx(0.3)

    def test_order_two(self):
        assert chebyshev_t(2, 0.5) == pytest.approx(-0.5)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            chebyshev_t(3, 1.5)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            chebyshev_t(-1, 0.5)

    def test_cosine_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            theta = rng.uniform(0, np.pi)
            ell = int(rng.integers(0, 30))
            assert chebyshev_t(ell, math.cos(theta)) == pytest.approx(
                math.cos(ell * theta), abs=1e-9
            )


class TestSpectralIdentity:
    def test_alternating_example(self):
        assert spectral_identity(ALTERNATING, 0.5) == pytest.approx(3.0)

    def test_equals_direct_squared_scaled_intensity(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            values = random_series(rng)
            delta = rng.uniform(0, 1)
            direct = abs(dft_at(values, delta)) ** 2 / np.var(values, ddof=1)
            assert spectral_identity(values, delta) == pytest.approx(
                direct, rel=1e-8, abs=1e-10
            )

    def test_sum_over_fundamental_frequencies_is_parseval(self):
        rng = np.random.default_rng(16)
        values = random_series(rng, 12)
        n = len(values)
        total = sum(spectral_identity(values, k / n) for k in range(n))
        assert total == pytest.approx(n - 1, rel=1e-8)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeriesError):
            spectral_identity([4.0, 4.0, 4.0], 0.3)


class TestUnitaryDftMatrix:
    def test_n_equals_one(self):
        np.testing.assert_allclose(unitary_dft_matrix(1), [[1.0]])

    def test_n_equals_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(unitary_dft_matrix(2), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 16, 61, 256, 1024])
    def test_unitarity(self, n):
        matrix = unitary_dft_matrix(n)
        deviation = matrix @ matrix.conj().T - np.eye(n)
        assert np.abs(deviation).max() < 1e-12

    def test_matrix_applied_to_centered_series_matches_analysis(self):
        rng = np.random.default_rng(17)
        values = random_series(rng, 15)
        analysis = analyze_spectrum(values)
        via_matrix = unitary_dft_matrix(15) @ center(values)
        np.testing.assert_allclose(via_matrix[1:], analysis.dft[1:], atol=1e-10)

    def test_alternating_example_through_centering(self):
        product = unitary_dft_matrix(4) @ center(ALTERNATING)
        np.testing.assert_allclose(product, [0.0, 0.0, 2.0, 0.0], atol=1e-12)
