import numpy as np
import pytest

from oracles import naive_msi
from permspec import TimeSeries, analyze_spectrum, kernels, random_composite, rng

CASES = [(3, 40), (4, 40), (15, 100), (16, 100), (47, 60), (48, 60), (128, 30)]


def make_case(n, m, seed=0):
    values = np.random.default_rng(seed).standard_normal(n)
    centered = values - values.mean()
    variance = float(np.dot(centered, centered)) / (n - 1)
    scale = kernels.msi_scale(n, variance)
    seeds = rng.substream_seeds(seed, m)
    perms = rng.permutation_rows(np.arange(n), seeds)
    return values, centered, perms, scale


@pytest.mark.parametrize("n,m", [pytest.param(n, m, id=f"{n}-{m}") for n, m in CASES])
def test_numpy_kernel_matches_per_row_analysis(n, m):
    """Each row of the batched kernel equals the direct-summation MSI of
    that permutation of the raw values."""
    values, centered, perms, scale = make_case(n, m, seed=n)
    batch = kernels.null_msi(centered[None], perms, scale)[0]
    assert batch.shape == (m,)
    for row in range(0, m, max(1, m // 7)):
        expected = naive_msi(list(values[perms[row]]))
        assert batch[row] == pytest.approx(expected, rel=1e-11)


def readings(kind, n, generator):
    """Values with ties: rounded real readings, or integer counts (which
    TimeSeries stores as floats)."""
    if kind == "real":
        return np.round(generator.standard_normal(n), 2)
    counts = generator.integers(0, 5, n)
    counts[0] = 5  # above every draw, so never constant
    return counts


@pytest.mark.parametrize("kind", ["real", "counts"])
def test_observed_msi_is_the_identity_row_of_the_null(kind):
    """The observed statistic and its permutation null are one function:
    the identity permutation reproduces the observed MSI bit for bit, and
    the peak lies at a frequency in (0, 1/2]."""
    for n in range(3, 258):
        values = readings(kind, n, np.random.default_rng(n))
        centered, variance = TimeSeries(values).centered()
        identity = np.arange(n)[None]
        analysis = analyze_spectrum(values)
        null = kernels.null_msi(centered[None], identity, kernels.msi_scale(n, variance))[0]
        assert analysis.msi == null[0], n
        assert 0.0 < analysis.peak_frequency <= 0.5, n


@pytest.mark.parametrize("n", [31, 64])
def test_observed_msis_are_the_identity_rows_of_one_batch(n):
    """One null_msi call over the identity positions of 50 different series,
    normal and t2, with one scale per series, gives each series' observed
    MSI bit for bit (the power study scores a group of replicates this way)."""
    series = [
        random_composite(("normal", "t2")[seed % 2], n, 0.25 * (seed % 5), seed).series
        for seed in range(50)
    ]
    spreads = [ts.spread() for ts in series]
    units = np.stack([unit for unit, _, _ in spreads])
    scales = np.array([kernels.msi_scale(n, variance) for _, variance, _ in spreads])
    batch = kernels.null_msi(units, np.broadcast_to(np.arange(n), units.shape), scales)[:, 0]
    assert batch.tolist() == [analyze_spectrum(ts).msi for ts in series]


def record_tiles(monkeypatch) -> list[int]:
    """The number of rows of each tile null_msi transforms, in order."""
    tiles, transform = [], kernels.transform

    def recorded(values, out=None):
        tiles.append(len(values))
        return transform(values, out)

    monkeypatch.setattr(kernels, "transform", recorded)
    return tiles


@pytest.mark.parametrize("kind", ["real", "counts"])
def test_tiles_change_no_bit(kind, monkeypatch):
    """Shuffled positions, a strided view, of a group of three tests give
    the same MSIs bit for bit in one tile, in tiles of 12 rows (the 5,100
    bytes of uint8 positions cap a tile at 5,100 bytes of float rows), of
    7 rows (which split tests, the last one partial) and of one row.
    Positions of intp, as wide as the float rows, make the one tile."""
    generator = np.random.default_rng(9)
    spreads = [TimeSeries(readings(kind, 50, generator)).spread() for _ in range(3)]
    units = np.stack([unit for unit, _, _ in spreads])
    scales = np.array([kernels.msi_scale(50, variance) for _, variance, _ in spreads])
    seeds = rng.substream_seeds(9, 3 * 34)
    positions = rng.permutation_rows(np.arange(50, dtype=np.uint8), seeds)
    wide = rng.permutation_rows(np.arange(50, dtype=np.intp), seeds)
    assert np.array_equal(wide, positions)
    tiles = record_tiles(monkeypatch)
    whole = kernels.null_msi(units, wide, scales)
    assert whole.shape == (3, 34)
    assert tiles == [102]
    for tile_bytes, rows in ((kernels.TILE_BYTES, 12), (7 * 50 * 8, 7), (1, 1)):
        tiles.clear()
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        assert kernels.null_msi(units, positions, scales).tobytes() == whole.tobytes(), rows
        assert tiles == [rows] * (102 // rows) + [102 % rows] * (102 % rows > 0)


@pytest.mark.parametrize("n", [4999, 5003, 7919, 10007, 10000])
def test_gathered_null_is_the_analysis_of_the_permuted_series(n, monkeypatch):
    """At prime lengths and lengths with large prime factors, where the FFT
    takes other paths than at smooth ones, the MSIs gathered from shuffled
    positions equal ``analyze_spectrum`` of each permuted series bit for
    bit, with one row per tile and all rows in one tile (from positions of
    intp, as wide as the float rows, which do not cap the tile).  Two tests
    share the call, so the second reads its values at offset n.  The values
    are integers summing to 0, so the centring and the variance of a
    permuted series are exact and its unit deviations are the permuted ones."""
    generator = np.random.default_rng(n)
    series = generator.integers(-40, 41, (2, n)).astype(float)
    series[:, 0] -= series.sum(axis=1)
    spreads = [TimeSeries(values).spread() for values in series]
    units = np.stack([unit for unit, _, _ in spreads])
    scales = np.array([kernels.msi_scale(n, variance) for _, variance, _ in spreads])
    seeds = rng.substream_seeds(n, 4)
    positions = rng.permutation_rows(np.arange(n, dtype=np.min_scalar_type(n - 1)), seeds)
    wide = rng.permutation_rows(np.arange(n, dtype=np.intp), seeds)
    expected = [[analyze_spectrum(values[order]).msi for order in positions[2 * t : 2 * t + 2]]
                for t, values in enumerate(series)]
    tiles = record_tiles(monkeypatch)
    for order, tile_bytes, rows in ((positions, 1, [1] * 4), (wide, 8 * n * 4, [4])):
        tiles.clear()
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        assert kernels.null_msi(units, order, scales).tolist() == expected
        assert tiles == rows
