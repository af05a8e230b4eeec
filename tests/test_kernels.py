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
    perms = rng.permutation_rows(n, seeds, rng.ShuffleBuffers())
    return values, centered, perms, scale


@pytest.mark.parametrize("n,m", [pytest.param(n, m, id=f"{n}-{m}") for n, m in CASES])
def test_numpy_kernel_matches_per_row_analysis(n, m):
    """Each row of the batched kernel equals the direct-summation MSI of
    that permutation of the raw values."""
    values, centered, perms, scale = make_case(n, m, seed=n)
    batch = kernels.null_msi(centered[None], perms, scale, rng.ShuffleBuffers())[0]
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
        scale = kernels.msi_scale(n, variance)
        null = kernels.null_msi(centered[None], identity, scale, rng.ShuffleBuffers())[0]
        assert analysis.msi == null[0], n
        assert 0.0 < analysis.peak_frequency <= 0.5, n


@pytest.mark.parametrize("n", [31, 64])
def test_observed_msis_are_the_identity_rows_of_one_batch(n):
    """One null_msi call over one row of identity positions, which 50
    different series share, normal and t2, with one scale per series, gives
    each series' observed MSI bit for bit, and so does the peak of one
    transform of all 50 (the power study scores a group of replicates this
    way)."""
    series = [
        random_composite(("normal", "t2")[seed % 2], n, 0.25 * (seed % 5), seed).series
        for seed in range(50)
    ]
    spreads = [ts.spread() for ts in series]
    units = np.stack([unit for unit, _, _ in spreads])
    scales = np.array([kernels.msi_scale(n, variance) for _, variance, _ in spreads])
    identity = np.arange(n)[None]
    batch = kernels.null_msi(units, identity, scales, rng.ShuffleBuffers())[:, 0]
    assert batch.tolist() == [analyze_spectrum(ts).msi for ts in series]
    observed = kernels.peak_moduli(kernels.transform(units)) * scales
    assert observed.tolist() == batch.tolist()


def peak_cases(n):
    """Half spectra of length n, one row per case: a transform, then its
    peak moved to bin 1, to the last (Nyquist for even n) bin, tied across
    bins, and a bin 0 larger than every other modulus."""
    base = kernels.transform(np.random.default_rng(n).standard_normal(n))
    first, last, tied, zero = (base.copy() for _ in range(4))
    first[1] = 1e3 * (0.6 + 0.8j)
    last[-1] = -1e3 if n % 2 == 0 else 1e3j
    tied[:] = 0.5 * base / np.abs(base).max()
    tied[1], tied[-1] = 3 + 4j, -4 + 3j  # modulus 5 both
    zero[0] = 1e6
    return np.stack([base, first, last, tied, zero])


@pytest.mark.parametrize("n", [3, 4, 5, 30, 31])
def test_peak_moduli_match_a_python_max_over_the_non_zero_bins(n):
    """The peak of each row, alone (1-d) or in a batch (2-d), is Python's
    max of |X_k| over k = 1 .. n//2, bin 0's modulus ignored however large;
    the moduli hold |X_k| for k >= 1 and 0.0 at bin 0."""
    spectra = peak_cases(n)
    original = spectra.copy()
    # numpy's complex modulus, one element at a time: Python's abs (hypot)
    # can differ from it in the last bit
    expected_moduli = [[0.0] + [float(np.abs(x)) for x in row[1:]] for row in spectra]
    expected = [max(row[1:]) for row in expected_moduli]
    assert expected[1] == expected[2] == 1e3 and expected[3] == 5.0
    moduli, out = np.full(spectra.shape, np.nan), np.full(len(spectra), np.nan)
    peaks = kernels.peak_moduli(spectra, moduli, out=out)
    assert peaks.tolist() == out.tolist() == expected and moduli.tolist() == expected_moduli
    assert kernels.peak_moduli(spectra).tolist() == expected
    for row, peak, row_moduli in zip(spectra, expected, expected_moduli):
        single = np.full(row.shape, np.nan)
        assert kernels.peak_moduli(row, single) == peak and single.tolist() == row_moduli
    np.testing.assert_array_equal(spectra, original)


def record_tiles(monkeypatch) -> list[int]:
    """The number of rows of each tile null_msi transforms into its held
    spectrum, in order; observed series are transformed into a fresh one."""
    tiles, transform = [], kernels.transform

    def recorded(values, out=None):
        if out is not None:
            tiles.append(len(values))
        return transform(values, out)

    monkeypatch.setattr(kernels, "transform", recorded)
    return tiles


def recorded_buffers():
    """Shuffle buffers, and the list of each (name, shape) taken from them."""
    taken, buffers = [], rng.ShuffleBuffers()
    take = buffers.take

    def recorded(name, shape, dtype):
        taken.append((name, shape))
        return take(name, shape, dtype)

    buffers.take = recorded
    return buffers, taken


@pytest.mark.parametrize("kind", ["real", "counts"])
def test_tiles_change_no_bit(kind, monkeypatch):
    """Three tests sharing 34 shuffled rows, a strided view, give the same
    MSIs bit for bit in one tile of all 102 gathered rows, in tiles of two
    whole tests then one, in runs of 12 rows of each test (once
    ``SMALL_TILE_BYTES`` allows no more, the 5,100 bytes of uint8 positions
    cap a tile at 5,100 bytes of float rows), in runs of 7 rows (the last
    of each test partial) and in one-row tiles.  Positions of intp, as
    wide as the float rows, make the one tile.  Each test's MSIs are those
    of a call that scores it alone."""
    generator = np.random.default_rng(9)
    spreads = [TimeSeries(readings(kind, 50, generator)).spread() for _ in range(3)]
    units = np.stack([unit for unit, _, _ in spreads])
    scales = np.array([kernels.msi_scale(50, variance) for _, variance, _ in spreads])
    positions = rng.permutation_rows(50, rng.substream_seeds(9, 34), rng.ShuffleBuffers())
    assert positions.dtype == np.uint8
    buffers = rng.ShuffleBuffers()
    tiles = record_tiles(monkeypatch)
    whole = kernels.null_msi(units, positions.astype(np.intp), scales, buffers)
    assert whole.shape == (3, 34)
    assert tiles == [102]
    for t in range(3):
        alone = kernels.null_msi(units[t : t + 1], positions, scales[t], buffers)
        assert alone.tobytes() == whole[t].tobytes(), t
    cases = (
        ({}, [102]),
        ({"TILE_BYTES": 2 * 34 * 50 * 8}, [68, 34]),
        ({"SMALL_TILE_BYTES": 1}, [12, 12, 10] * 3),
        ({"TILE_BYTES": 7 * 50 * 8}, [7, 7, 7, 7, 6] * 3),
        ({"TILE_BYTES": 1}, [1] * 102),
    )
    for constants, rows in cases:
        tiles.clear()
        with monkeypatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(kernels, name, value)
            assert kernels.null_msi(units, positions, scales, buffers).tobytes() == whole.tobytes(), constants
        assert tiles == rows, constants


@pytest.mark.parametrize("n", [4999, 5003, 7919, 10007, 10000])
def test_gathered_null_is_the_analysis_of_the_permuted_series(n, monkeypatch):
    """At prime lengths and lengths with large prime factors, where the FFT
    takes other paths than at smooth ones, the MSIs gathered from shuffled
    positions equal ``analyze_spectrum`` of each permuted series bit for
    bit, with one row per tile and all rows in one tile (from positions of
    intp, as wide as the float rows, which do not cap the tile).  Two tests
    share the call's rows, and the second reads its values at offset n.  The values
    are integers summing to 0, so the centring and the variance of a
    permuted series are exact and its unit deviations are the permuted ones.

    At the default ``TILE_BYTES`` the uint16 positions of 140 rows, and a
    C-contiguous copy of them, are widened through lane blocks of several
    full tiles, the last block partial, for each test in turn, and give the
    MSIs of their intp copy, which is widened tile by tile, bit for bit.  Lane blocks serve
    the lengths whose full tile has more than one lane and spans less than
    a cache line of uint16 positions: not the desk and CLI sizes, nor the
    one-lane tiles of uint32 positions.  The rule reads n and the position
    type only; nothing is allocated."""
    lengths = (30, 60, 240, 4096, 4097, 5000, 65536, 70000)
    staged = [m for m in lengths if kernels.stages_index(m, rng.position_type(m))]
    assert staged == [4097, 5000, 65536]
    generator = np.random.default_rng(n)
    series = generator.integers(-40, 41, (2, n)).astype(float)
    series[:, 0] -= series.sum(axis=1)
    spreads = [TimeSeries(values).spread() for values in series]
    units = np.stack([unit for unit, _, _ in spreads])
    scales = np.array([kernels.msi_scale(n, variance) for _, variance, _ in spreads])
    tiles = record_tiles(monkeypatch)
    many = rng.permutation_rows(n, rng.substream_seeds(n + 1, 140), rng.ShuffleBuffers())
    assert many.dtype == np.uint16 and kernels.stages_index(n, many.dtype)
    assert not kernels.stages_index(n, np.intp)
    lanes = kernels.TILE_BYTES // (8 * n)  # a full tile: the positions pass TILE_BYTES
    whole = kernels.null_msi(units, many.astype(np.intp), scales, rng.ShuffleBuffers())
    for order in (many, np.ascontiguousarray(many)):
        tiles.clear()
        buffers, taken = recorded_buffers()
        assert kernels.null_msi(units, order, scales, buffers).tobytes() == whole.tobytes()
        assert tiles == ([lanes] * (140 // lanes) + [140 % lanes]) * 2
        (block,) = {shape[1] for name, shape in taken if name == "stage"}
        assert block % lanes == 0 and block // lanes >= 2 and 140 % block
        assert block * many.itemsize >= kernels.CACHE_LINE > (block - lanes) * many.itemsize
    positions = rng.permutation_rows(n, rng.substream_seeds(n, 2), rng.ShuffleBuffers())
    wide = positions.astype(np.intp)
    expected = [[analyze_spectrum(values[order]).msi for order in positions] for values in series]
    for order, tile_bytes, rows in ((positions, 1, [1] * 4), (wide, 8 * n * 4, [4])):
        tiles.clear()
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        assert kernels.null_msi(units, order, scales, rng.ShuffleBuffers()).tolist() == expected
        assert tiles == rows
