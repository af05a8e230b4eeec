import xml.etree.ElementTree as ET

import numpy as np
import pytest

from permspec import (
    PermutationPlan,
    analyze_spectrum,
    build_plot_model,
    plotting,
    render_plot,
    simulate_null,
    summarize_test,
)
from permspec.plotting import gaussian_kde, render_plot_svg, silverman_bandwidth

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def test_pieces():
    series = np.random.default_rng(9).standard_normal(40)
    analysis = analyze_spectrum(series)
    null = simulate_null(series, PermutationPlan(master_seed=13, n_permutations=300))
    result = summarize_test(analysis, null)
    return result, null, analysis


def test_bar_heights_equal_scaled_intensities(test_pieces):
    result, null, analysis = test_pieces
    model = build_plot_model(result, null, analysis)
    freqs, bars = analysis.nyquist_spectrum()
    np.testing.assert_allclose(model.bar_heights, bars, atol=1e-9)
    np.testing.assert_allclose(model.frequencies, freqs)
    assert model.frequencies.min() > 0.0
    assert model.frequencies.max() <= 0.5


def test_quartiles_are_the_empirical_quartiles(test_pieces):
    result, null, analysis = test_pieces
    model = build_plot_model(result, null, analysis)
    expected = np.quantile(null.msi_values, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(model.quartiles, expected, atol=1e-12)


def test_kde_integrates_to_one(test_pieces):
    _, null, _ = test_pieces
    bandwidth = silverman_bandwidth(null.msi_values)
    grid = np.linspace(
        null.msi_values.min() - 5 * bandwidth,
        null.msi_values.max() + 5 * bandwidth,
        2000,
    )
    density = gaussian_kde(null.msi_values, grid, bandwidth)
    mass = np.trapezoid(density, grid)
    assert mass == pytest.approx(1.0, abs=1e-3)


def formula_kde(values, grid, bandwidth):
    """The density as one array expression, the reference for the blocked one."""
    z = (grid[:, None] - values[None, :]) / bandwidth
    kernel = np.exp(-0.5 * z * z)
    return kernel.sum(axis=1) / (values.size * bandwidth * np.sqrt(2.0 * np.pi))


@pytest.mark.parametrize("size", [1, 7, 1000, 3001])
@pytest.mark.parametrize("block_bytes", [None, 8 * 3001 * 3, 1], ids=["default", "3-rows", "1-row"])
def test_blocked_kde_is_the_formula_bit_for_bit(size, block_bytes, monkeypatch):
    """In blocks of grid points, partial last blocks included, the density
    equals the one-expression formula bit for bit, for tied values and for
    bandwidths whose kernel underflows to 0 or stays near 1."""
    if block_bytes is not None:
        monkeypatch.setattr(plotting, "KDE_BLOCK_BYTES", block_bytes)
    values = np.round(np.random.default_rng(size).gamma(3.0, 1.0, size), 2)
    grid = np.linspace(0.0, float(values.max()) + 1.0, 200)
    for bandwidth in (silverman_bandwidth(values), 1e-3, 1e3):
        expected = formula_kde(values, grid, bandwidth)
        assert gaussian_kde(values, grid, bandwidth).tobytes() == expected.tobytes()


def test_svg_is_well_formed_with_expected_structure(test_pieces, tmp_path):
    result, null, analysis = test_pieces
    path = tmp_path / "plot.svg"
    render_plot(result, null, analysis, path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"

    bars = [el for el in root.iter(f"{SVG_NS}rect") if el.get("class") == "intensity-bar"]
    assert len(bars) == len(analysis.nyquist_spectrum()[0])

    quartile_lines = [el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "quartile"]
    assert len(quartile_lines) == 3

    markers = [el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "observed-msi"]
    assert len(markers) == 2
    # shared vertical axis: both markers sit at the same height
    assert markers[0].get("cy") == markers[1].get("cy")

    violins = [el for el in root.iter(f"{SVG_NS}polygon") if el.get("class") == "null-density"]
    assert len(violins) == 1


def test_marker_lies_inside_the_density_for_a_null_series(test_pieces):
    result, null, analysis = test_pieces
    model = build_plot_model(result, null, analysis)
    assert model.density_grid.min() <= model.observed_msi <= model.density_grid.max()


def test_rendering_is_byte_stable(test_pieces):
    result, null, analysis = test_pieces
    model = build_plot_model(result, null, analysis)
    assert render_plot_svg(model) == render_plot_svg(model)
