"""The permutation spectrum test plot, rendered as standalone SVG.

Two panels on a shared vertical (scaled intensity) axis:

* left: bars of the scaled intensity at each fundamental frequency in
  the Nyquist range (0, 1/2];
* right: a mirrored kernel-density silhouette of the simulated null MSI
  values, with horizontal lines at its quartiles.

The observed MSI is marked as a dot on both panels.  Output is plain
SVG markup written by this module, so rendering is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutation import NullDistribution, TestResult
from .spectral import SpectrumAnalysis


@dataclass(frozen=True)
class PlotModel:
    """Everything the figure shows, before any pixel mapping."""

    frequencies: np.ndarray
    bar_heights: np.ndarray
    density_grid: np.ndarray
    density_values: np.ndarray
    quartiles: tuple[float, float, float]
    observed_msi: float
    peak_frequency: float
    p_value: float


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * m**(-1/5), with a floor for flat samples."""
    m = values.size
    sd = float(values.std(ddof=1)) if m > 1 else 0.0
    q1, q3 = np.quantile(values, [0.25, 0.75])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0.0:
        spread = max(abs(float(values[0])), 1.0) * 1e-3
    return 0.9 * spread * m ** (-0.2)


# Bytes of kernel values gaussian_kde computes at once, for a block of grid
# points: one buffer, small enough to stay in cache.
KDE_BLOCK_BYTES = 256 << 10


def gaussian_kde(values: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density of ``values`` at each grid point.

    The kernel values of a block of grid points are computed in place in
    one buffer.  ``z * z * -0.5`` gives the density of ``-0.5 * z * z``
    bit for bit: halving is exact, except below the normal range, where
    the exponential is 1 either way.  Each point's sum runs over its own
    row, so the blocking changes no bit.
    """
    rows = min(grid.size, max(1, KDE_BLOCK_BYTES // (8 * values.size)))
    kernel = np.empty((rows, values.size))
    sums = np.empty(grid.size)
    for low in range(0, grid.size, rows):
        z = kernel[: min(rows, grid.size - low)]
        np.subtract(grid[low : low + rows, None], values, out=z)
        z /= bandwidth
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z.sum(axis=1, out=sums[low : low + len(z)])
    return sums / (values.size * bandwidth * np.sqrt(2.0 * np.pi))


def build_plot_model(
    result: TestResult, null: NullDistribution, analysis: SpectrumAnalysis
) -> PlotModel:
    frequencies, bars = analysis.nyquist_spectrum()
    values = null.msi_values
    bandwidth = silverman_bandwidth(values)
    low = max(0.0, float(values.min()) - 3.0 * bandwidth)  # MSI is non-negative
    high = float(values.max()) + 3.0 * bandwidth
    grid = np.linspace(low, high, 200)
    density = gaussian_kde(values, grid, bandwidth)
    return PlotModel(
        frequencies=frequencies,
        bar_heights=bars,
        density_grid=grid,
        density_values=density,
        quartiles=null.quartiles(),
        observed_msi=result.observed_msi,
        peak_frequency=result.peak_frequency,
        p_value=result.p_value,
    )


# ---------------------------------------------------------------- SVG ----

_WIDTH, _HEIGHT = 760, 420
_MARGIN = dict(left=56, right=16, top=40, bottom=46)
_GAP = 42  # between the two panels
_BAR_COLOR = "#4878a8"
_VIOLIN_COLOR = "#b8b8c8"
_QUARTILE_COLOR = "#555566"
_MARKER_COLOR = "#c03028"


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _tag(name: str, body: str | None = None, **attributes) -> str:
    """One SVG element, its attributes in the order given: ``class_``,
    ``text_anchor`` and ``font_size`` are written ``class``, ``text-anchor``
    and ``font-size``, a float with two decimals and any other value with
    ``str``.  Without a body the element is self-closing."""
    written = [name]
    for key, value in attributes.items():
        text = f"{value:.2f}" if isinstance(value, float) else value
        written.append(f'{key.rstrip("_").replace("_", "-")}="{text}"')
    opening = " ".join(written)
    return f"<{opening}/>" if body is None else f"<{opening}>{body}</{name}>"


def _axis_ticks(top: float, count: int = 5) -> list[float]:
    return [top * i / count for i in range(count + 1)]


def render_plot_svg(model: PlotModel) -> str:
    inner_width = _WIDTH - _MARGIN["left"] - _MARGIN["right"] - _GAP
    left_width = round(inner_width * 0.62)
    right_width = inner_width - left_width
    left_x = _MARGIN["left"]
    right_x = left_x + left_width + _GAP
    plot_top = _MARGIN["top"]
    plot_bottom = _HEIGHT - _MARGIN["bottom"]
    plot_height = plot_bottom - plot_top

    y_top = 1.05 * max(
        model.observed_msi,
        float(model.bar_heights.max()),
        float(model.density_grid.max()),
        model.quartiles[2],
    )

    # pixel coordinates of a value or of an array of values, elementwise
    def y_px(value):
        return plot_bottom - (value / y_top) * plot_height

    def fx_px(freq):
        return left_x + (freq / 0.5) * left_width

    middle = (plot_top + plot_bottom) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        _tag("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _tag("text", f"Permutation spectrum test (p = {model.p_value:.4g})",
             x=left_x, y=22, font_size=15),
    ]

    # shared vertical axis with ticks on the left panel
    for tick in _axis_ticks(y_top):
        ty = y_px(tick)
        parts.append(_tag("line", x1=left_x - 4, y1=ty, x2=left_x, y2=ty, stroke="black"))
        parts.append(_tag("text", _fmt(tick), x=left_x - 8, y=ty + 4, text_anchor="end"))
    parts.append(_tag("line", x1=left_x, y1=plot_top, x2=left_x, y2=plot_bottom, stroke="black"))
    parts.append(_tag("text", "scaled intensity", x=14, y=middle,
                      transform=f"rotate(-90 14 {middle:.2f})", text_anchor="middle"))

    # left panel: intensity bars over the Nyquist range
    bar_width = max(1.0, 0.8 * left_width / len(model.frequencies))
    for x, top in zip(fx_px(model.frequencies).tolist(), y_px(model.bar_heights).tolist()):
        parts.append(_tag("rect", class_="intensity-bar", x=x - bar_width / 2, y=top,
                          width=bar_width, height=plot_bottom - top, fill=_BAR_COLOR))
    parts.append(_tag("line", x1=left_x, y1=plot_bottom, x2=left_x + left_width,
                      y2=plot_bottom, stroke="black"))
    for tick in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        tx = fx_px(tick)
        parts.append(_tag("line", x1=tx, y1=plot_bottom, x2=tx, y2=plot_bottom + 4, stroke="black"))
        parts.append(_tag("text", _fmt(tick), x=tx, y=plot_bottom + 18, text_anchor="middle"))
    parts.append(_tag("text", "frequency", x=left_x + left_width / 2, y=_HEIGHT - 8,
                      text_anchor="middle"))

    # right panel: mirrored null density with quartile lines
    centre = right_x + right_width / 2
    half_width = 0.45 * right_width
    peak = float(model.density_values.max())
    scale = half_width / peak if peak > 0 else 0.0
    offsets = model.density_values * scale
    xs = (centre + offsets).tolist() + (centre - offsets)[::-1].tolist()
    ys = y_px(model.density_grid).tolist()
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys + ys[::-1]))
    parts.append(_tag("polygon", class_="null-density", points=points, fill=_VIOLIN_COLOR,
                      stroke="none"))
    for quartile in model.quartiles:
        qy = y_px(quartile)
        parts.append(_tag("line", class_="quartile", x1=centre - half_width, y1=qy,
                          x2=centre + half_width, y2=qy, stroke=_QUARTILE_COLOR))
    parts.append(_tag("text", "null MSI density", x=centre, y=_HEIGHT - 8, text_anchor="middle"))

    # observed MSI marker on both panels
    my = y_px(model.observed_msi)
    for cx in (fx_px(model.peak_frequency), centre):
        parts.append(_tag("circle", class_="observed-msi", cx=cx, cy=my, r=4, fill=_MARKER_COLOR))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plot(
    result: TestResult,
    null: NullDistribution,
    analysis: SpectrumAnalysis,
    path,
) -> None:
    """Write the two-panel test plot for one finished test run."""
    model = build_plot_model(result, null, analysis)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_plot_svg(model))
