import numpy as np
import pytest

from oracles import naive_msi
from permspec import PermutationPlan, kernels

CASES = [(3, 40), (4, 40), (15, 100), (16, 100), (47, 60), (48, 60), (128, 30)]


def make_case(n, m, is_complex, seed=0):
    generator = np.random.default_rng(seed)
    values = generator.standard_normal(n)
    if is_complex:
        values = values + 1j * generator.standard_normal(n)
    centered = values - values.mean()
    variance = float(np.real(np.vdot(centered, centered))) / (n - 1)
    scale = kernels.msi_scale(n, variance)
    perms = PermutationPlan(master_seed=seed, n_permutations=m).permutation_matrix(n)
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
    batch = kernels.null_msi(centered, perms, scale)
    assert batch.shape == (m,)
    for row in range(0, m, max(1, m // 7)):
        expected = naive_msi(list(values[perms[row]]))
        assert batch[row] == pytest.approx(expected, rel=1e-11)
