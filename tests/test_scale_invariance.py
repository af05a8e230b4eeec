"""Property tests: the MSI and the test result do not depend on the units,
the origin or the order-preserving symmetries of the data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permspec import PermutationPlan, analyze_spectrum, run_test

PLAN = PermutationPlan(master_seed=7, n_permutations=50)

# integer readings: every scaled, shifted or reordered copy below is exact
readings = (
    st.lists(st.integers(-(2**20), 2**20), min_size=3, max_size=64)
    .filter(lambda values: len(set(values)) > 1)
    .map(lambda values: np.array(values, dtype=float))
)

properties = settings(deadline=None, derandomize=True)


def msi(values) -> float:
    return analyze_spectrum(values).msi


@properties
@given(readings, st.integers(-1000, 1000))
def test_power_of_two_scale_keeps_every_bit(values, k):
    assert run_test(np.ldexp(values, k), PLAN) == run_test(values, PLAN)


@properties
@given(readings, st.integers(-300, 300))
def test_decimal_scale(values, exponent):
    assert msi(values * 10.0**exponent) == pytest.approx(msi(values), rel=1e-12)


@properties
@given(readings, st.integers(-(2**20), 2**20))
def test_shift(values, shift):
    assert msi(values + shift) == pytest.approx(msi(values), rel=1e-12)


@properties
@given(readings, st.integers(0, 63))
def test_reversal_and_cyclic_shift(values, offset):
    assert msi(values[::-1]) == pytest.approx(msi(values), rel=1e-12)
    assert msi(np.roll(values, offset)) == pytest.approx(msi(values), rel=1e-12)


@pytest.mark.parametrize("factor", [1e155, 1e300, 1e-160, 1e-200])
def test_extreme_magnitudes_give_the_unit_result(factor):
    values = np.random.default_rng(12).standard_normal(40)
    plan = PermutationPlan(master_seed=3, n_permutations=400)
    base, scaled = run_test(values, plan), run_test(values * factor, plan)
    assert scaled.observed_msi == pytest.approx(base.observed_msi, rel=1e-12)
    assert (scaled.exceedances, scaled.peak_frequency) == (base.exceedances, base.peak_frequency)
