import numpy as np
import pytest

from permspec import (
    DISTRIBUTIONS,
    NoiseSpec,
    StudyConfig,
    analyze_spectrum,
    full_scale_config,
    gen_noise,
    gen_sinusoid,
    normalize_magnitude,
    random_composite,
    signals,
)
from permspec.rng import philox_generator

T2_IQR = 1.6329931618554518  # interquartile range of Student t with 2 dof


class TestGenNoise:
    def test_normal_moments(self):
        draws = gen_noise(NoiseSpec("normal", 100_000), philox_generator(1))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var(ddof=1) - 1.0) < 0.03

    def test_t2_median_and_iqr(self):
        draws = gen_noise(NoiseSpec("t2", 100_000), philox_generator(2))
        q1, median, q3 = np.quantile(draws, [0.25, 0.5, 0.75])
        assert abs(median) < 0.02
        assert abs((q3 - q1) - T2_IQR) < 0.05

    def test_t2_has_fatter_tails_than_normal(self):
        normal = gen_noise(NoiseSpec("normal", 100_000), philox_generator(3))
        heavy = gen_noise(NoiseSpec("t2", 100_000), philox_generator(3))
        assert np.abs(heavy).max() > np.abs(normal).max()

    def test_fixed_seed_reproduces(self):
        spec = NoiseSpec("t2", 50)
        np.testing.assert_array_equal(
            gen_noise(spec, philox_generator(9)), gen_noise(spec, philox_generator(9))
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", 10)
        with pytest.raises(ValueError):
            NoiseSpec("normal", 2)

    def test_each_family_is_its_numpy_draw(self):
        """No family falls back to another's draw: each is numpy's own
        sampler, on a generator keyed as gen_noise's."""
        draws = {
            "normal": lambda generator: generator.standard_normal(40),
            "t2": lambda generator: generator.standard_t(2, size=40),
        }
        assert tuple(draws) == DISTRIBUTIONS
        for name in DISTRIBUTIONS:
            np.testing.assert_array_equal(
                gen_noise(NoiseSpec(name, 40), philox_generator(11)),
                draws[name](philox_generator(11)),
            )

    def test_study_grids_name_their_families(self):
        """The desk and full-scale grids keep normal and t2 when a family is
        appended to DISTRIBUTIONS, so their cells and pins stay put."""
        assert StudyConfig().distributions == ("normal", "t2")
        assert full_scale_config(0).distributions == ("normal", "t2")


class TestGenSinusoid:
    def test_quarter_cycle(self):
        np.testing.assert_allclose(
            gen_sinusoid(4, 0.25), [1.0, 0.0, -1.0, 0.0], atol=1e-12
        )

    def test_amplitude_scales_linearly(self):
        base = gen_sinusoid(16, 0.3, amplitude=1.0)
        np.testing.assert_array_equal(gen_sinusoid(16, 0.3, amplitude=2.0), 2.0 * base)

    def test_fundamental_frequency_occupies_two_bins(self):
        signal = gen_sinusoid(24, 5 / 24)
        analysis = analyze_spectrum(signal)
        energy = analysis.intensity**2
        top_two = energy[[5, 24 - 5]].sum()
        assert top_two >= (1 - 1e-10) * energy.sum()

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.75])
    def test_frequency_out_of_range(self, bad):
        with pytest.raises(ValueError, match="frequency"):
            gen_sinusoid(8, bad)

    def test_leakage_bracket_for_non_fundamental_frequency(self):
        """Off-grid signals spill mostly into the two neighbouring bins."""
        n = 60
        rng = np.random.default_rng(8)
        for _ in range(20):
            frequency = rng.uniform(2.5 / n, 0.45)
            analysis = analyze_spectrum(gen_sinusoid(n, frequency))
            below = int(np.floor(frequency * n))
            above = below + 1
            peak = analysis.peak_index
            mirrored = min(peak, n - peak)
            assert mirrored in (below, above), (
                f"frequency {frequency:.4f}: peak bin {mirrored}, "
                f"expected {below} or {above}"
            )


class TestNormalizeMagnitude:
    def test_hand_example(self):
        scale = normalize_magnitude(np.array([1.0, 0.0, -1.0, 0.0]),
                                    np.array([1.0, -1.0, 1.0, -1.0]))
        assert scale == 2.0

    def test_zero_noise_gives_zero_scale(self):
        scale = normalize_magnitude(np.array([1.0, -1.0]), np.zeros(2))
        assert scale == 0.0

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            normalize_magnitude(np.zeros(4), np.ones(4))

    def test_defining_property_on_random_cases(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(3, 50))
            signal = gen_sinusoid(n, rng.uniform(0.01, 0.49))
            noise = rng.standard_t(2, size=n)
            scale = normalize_magnitude(signal, noise)
            lhs = np.abs(scale * signal).sum()
            rhs = np.abs(noise).sum()
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


class TestRandomComposite:
    def test_deterministic_given_seed(self):
        a = random_composite("normal", 40, 0.8, seed=77)
        b = random_composite("normal", 40, 0.8, seed=77)
        np.testing.assert_array_equal(a.series.values, b.series.values)
        assert a.signal == b.signal

    def test_unit_snr_means_equal_magnitudes(self):
        composite = random_composite("t2", 50, 1.0, seed=3)
        noise_part = composite.series.values - composite.snr * gen_sinusoid(
            50, composite.signal.frequency, composite.signal.amplitude
        )
        assert np.abs(noise_part).sum() == pytest.approx(
            np.abs(
                gen_sinusoid(50, composite.signal.frequency, composite.signal.amplitude)
            ).sum(),
            rel=1e-9,
        )

    def test_frequency_inside_open_nyquist_interval(self):
        for seed in range(30):
            composite = random_composite("normal", 20, 0.5, seed=seed)
            assert 0.0 < composite.signal.frequency < 0.5

    def test_zero_snr_is_pure_noise(self):
        composite = random_composite("normal", 30, 0.0, seed=12)
        spec = NoiseSpec("normal", 30)
        generator = philox_generator(12)
        generator.uniform(0.0, 0.5)  # the frequency draw comes first
        np.testing.assert_array_equal(composite.series.values, gen_noise(spec, generator))

    def test_a_zero_frequency_is_drawn_again(self, monkeypatch):
        """The boundary draw 0.0 (probability ~2**-53) is rejected: the
        frequency is the next uniform draw, and the noise follows it."""

        class FirstUniformReadsZero:
            def __init__(self, generator):
                self.generator, self.first = generator, True

            def uniform(self, low, high):
                value = self.generator.uniform(low, high)
                if self.first:
                    self.first = False
                    return 0.0
                return value

            def __getattr__(self, name):
                return getattr(self.generator, name)

        generators = signals.philox_generators
        monkeypatch.setattr(
            signals,
            "philox_generators",
            lambda seeds: (FirstUniformReadsZero(g) for g in generators(seeds)),
        )
        spec = NoiseSpec("normal", 30)
        values, frequencies, _ = signals.composite_block(spec, 0.0, np.array([12], dtype=np.uint64))
        generator = philox_generator(12)
        generator.uniform(0.0, 0.5)  # the draw read as 0.0
        assert frequencies[0] == generator.uniform(0.0, 0.5)
        np.testing.assert_array_equal(values[0], gen_noise(spec, generator))

    @pytest.mark.parametrize("snr", [-1.0, float("nan"), float("inf")])
    def test_rejects_invalid_lambda(self, snr):
        with pytest.raises(ValueError, match="lambda"):
            random_composite("normal", 30, snr, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
    def test_rejects_seed_outside_64_bits(self, seed):
        """-1 and 2**64 would alias 2**64 - 1 and 0 once reduced mod 2**64."""
        with pytest.raises(ValueError, match=f"master_seed .*got {seed}"):
            random_composite("normal", 30, 0.5, seed=seed)
