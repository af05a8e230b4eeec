import numpy as np
import pytest

from oracles import naive_msi
from permspec import PermutationPlan, TimeSeries, analyze_spectrum, kernels, rng

CASES = [(3, 40), (4, 40), (15, 100), (16, 100), (47, 60), (48, 60), (128, 30)]


def make_case(n, m, is_complex, seed=0):
    generator = np.random.default_rng(seed)
    values = generator.standard_normal(n)
    if is_complex:
        values = values + 1j * generator.standard_normal(n)
    centered = values - values.mean()
    variance = float(np.real(np.vdot(centered, centered))) / (n - 1)
    scale = kernels.msi_scale(n, variance)
    seeds = PermutationPlan(master_seed=seed, n_permutations=m).simulation_seeds()
    perms = rng.permutation_rows(np.arange(n), seeds)
    return values, centered, perms, scale


@pytest.mark.parametrize(
    "n,m,is_complex",
    [pytest.param(n, m, False, id=f"{n}-{m}") for n, m in CASES]
    + [pytest.param(n, m, True, id=f"{n}-{m}-complex") for n, m in CASES],
)
def test_numpy_kernel_matches_per_row_analysis(n, m, is_complex):
    """Each row of the batched kernel equals the direct-summation MSI of
    that permutation of the raw values."""
    values, centered, perms, scale = make_case(n, m, is_complex, seed=n)
    batch = kernels.null_msi(centered[perms], scale)
    assert batch.shape == (m,)
    for row in range(0, m, max(1, m // 7)):
        expected = naive_msi(list(values[perms[row]]))
        assert batch[row] == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_observed_msi_is_the_identity_row_of_the_null(is_complex):
    """The observed statistic and its permutation null are one function:
    the identity permutation reproduces the observed MSI bit for bit, and a
    real series peaks at a frequency in (0, 1/2]."""
    for n in range(3, 258):
        generator = np.random.default_rng(n)
        values = np.round(generator.standard_normal(n), 2)  # ties, like readings
        if is_complex:
            values = values + 1j * np.round(generator.standard_normal(n), 2)
        centered, variance = TimeSeries(values).centered()
        identity = np.arange(n)[None]
        analysis = analyze_spectrum(values)
        null = kernels.null_msi(centered[identity], kernels.msi_scale(n, variance))
        assert analysis.msi == null[0], n
        if not is_complex:
            assert 0.0 < analysis.peak_frequency <= 0.5, n


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_tiles_change_no_bit(is_complex, monkeypatch):
    """The shuffled rows, a strided view, give the same MSIs bit for bit in
    one tile, in tiles of 3 rows (the last one partial) and of one row."""
    _, centered, _, scale = make_case(50, 103, is_complex, seed=9)
    rows = rng.permutation_rows(centered, rng.substream_seeds(9, 103))
    whole = kernels.null_msi(rows, scale)
    for tile_bytes in (3 * rows[0].nbytes, 1):
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        assert kernels.null_msi(rows, scale).tobytes() == whole.tobytes()
