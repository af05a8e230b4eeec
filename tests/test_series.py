import numpy as np
import pytest

from permspec import DegenerateSeriesError, TimeSeries, analyze_spectrum, as_time_series


def test_accepts_lists_and_arrays():
    ts = TimeSeries([1, 2, 3])
    assert ts.n == 3
    assert ts.values.dtype == np.float64


def test_minimum_length_is_three():
    with pytest.raises(ValueError, match="at least 3"):
        TimeSeries([1.0, 2.0])
    TimeSeries([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        TimeSeries([1.0, bad, 2.0])


def test_rejects_non_1d():
    with pytest.raises(ValueError, match="1-D"):
        TimeSeries(np.ones((2, 3)))


def test_complex_values_allowed():
    ts = TimeSeries(np.array([1 + 1j, 2 - 1j, 0j, 1j]))
    assert ts.is_complex
    assert ts.values.dtype == np.complex128


def test_values_are_read_only():
    ts = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ts.values[0] = 99.0


def test_sample_variance_matches_numpy():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(17)
    ts = TimeSeries(values)
    assert ts.centered()[1] == pytest.approx(values.var(ddof=1), rel=1e-12)


def test_as_time_series_passthrough():
    ts = TimeSeries([1.0, 2.0, 3.0])
    assert as_time_series(ts) is ts
    assert as_time_series([3, 2, 1]).n == 3


def test_value_equality_and_hash():
    a, b = TimeSeries([1.0, 2, 3]), TimeSeries([1.0, 2, 3])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TimeSeries([1.0, 2, 4])
    assert a != TimeSeries([1.0, 2, 3, 4])
    assert a != TimeSeries([1 + 0j, 2, 3])  # same values, other dtype
    assert a != [1.0, 2.0, 3.0]
    zero, negative_zero = TimeSeries([0.0, 1, 2]), TimeSeries([-0.0, 1, 2])
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    c = TimeSeries([1 + 2j, -0.0 - 1j, 3j])
    assert c == TimeSeries([1 + 2j, 0.0 - 1j, 3j]) and hash(c) == hash(TimeSeries([1 + 2j, -1j, 3j]))


@pytest.mark.parametrize(
    "values",
    [[0.1] * 3, [0.3] * 10, [0.1] * 7, [0.1 + 0.7j] * 5, [7.0] * 4],
    ids=["0.1x3", "0.3x10", "0.1x7", "complex", "exact"],
)
def test_constant_series_is_degenerate_whatever_its_mean_rounds_to(values):
    ts = TimeSeries(values)
    assert ts.centered()[1] == 0.0
    with pytest.raises(DegenerateSeriesError):
        ts.spread()
    with pytest.raises(DegenerateSeriesError):
        analyze_spectrum(values)
