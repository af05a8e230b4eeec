"""Time-series container and validation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSeriesError

MIN_LENGTH = 3  # shortest series with a usable non-zero frequency and variance


def check_length(n: int) -> None:
    """Reject a series length below MIN_LENGTH."""
    if n < MIN_LENGTH:
        raise ValueError(
            f"series needs at least {MIN_LENGTH} observations (n >= {MIN_LENGTH}), got {n}"
        )


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered, evenly spaced real observations.

    Values are stored as a read-only 1-D float64 array.  This is the one
    place that checks the input's type: complex values (even with every
    imaginary part zero) and non-numeric values raise TypeError, so every
    computation downstream handles real series only.  Two series are equal
    when their values are equal.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {arr.shape}")
        check_length(arr.size)
        if np.iscomplexobj(arr):
            raise TypeError(f"series values must be real numbers, got dtype {arr.dtype}")
        if not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"series values must be numeric, got dtype {arr.dtype}")
        arr = arr.astype(np.float64)
        check_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.values + 0.0).tobytes())

    @property
    def n(self) -> int:
        return self.values.size

    def centered(self) -> tuple[np.ndarray, float]:
        """Deviations from the sample mean, and their sample variance (n-1
        denominator; 0.0 for a constant series): the arithmetic of
        :meth:`spread`, in data units."""
        unit, variance, exponent = self._unit_spread
        with np.errstate(over="ignore"):  # beyond the float range reads inf
            return times_power_of_two(unit, exponent), float(np.ldexp(variance, 2 * exponent))

    def spread(self) -> tuple[np.ndarray, float, int]:
        """``(unit, variance, exponent)``: the deviations are ``unit *
        2**exponent`` and their variance ``variance * 4**exponent``.

        Every centred quantity in the package starts here.  The exponent is
        that of the largest value, so no sum over- or underflows at any
        finite magnitude, and the exact power-of-two scaling keeps every
        bit of scale-free quantities.  Raises DegenerateSeriesError for a
        constant series, where every scaled intensity is 0/0.
        """
        unit, variance, exponent = self._unit_spread
        check_varies(variance)
        return unit, variance, exponent

    @cached_property
    def _unit_spread(self) -> tuple[np.ndarray, float, int]:
        # once per series: a test needs it for the observed MSI and the null
        units, variances, exponents = _unit_spread_rows(self.values[None])
        unit = units[0]
        unit.flags.writeable = False
        return unit, float(variances[0]), int(exponents[0])


def check_finite(values: np.ndarray) -> None:
    """Reject values that are not all finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("series values must all be finite")


def check_varies(variances) -> None:
    """Reject a sample variance of zero (one, or any of an array): the
    scaled intensities of a constant series are 0/0."""
    if np.any(np.asarray(variances) == 0.0):
        raise DegenerateSeriesError(
            "constant series: sample variance is zero, scaled intensity undefined"
        )


def _unit_spread_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arithmetic of :meth:`TimeSeries.spread` for each row of a finite
    ``(rows, n)`` float64 array, unchecked: the unit deviations, their
    variances (0.0 for a constant row) and the exponents."""
    largest = np.abs(rows).max(axis=1)
    exponents = np.frexp(largest)[1]
    values = times_power_of_two(rows, -exponents[:, None])
    units = values - values.mean(axis=1, keepdims=True)
    # exactly constant, even where the mean rounds (seven 0.1s)
    units[np.all(rows == rows[:, :1], axis=1)] = 0.0
    variances = np.array([np.dot(unit, unit) for unit in units]) / (rows.shape[1] - 1)
    return units, variances, exponents


def spread_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``TimeSeries(row).spread()`` of each row of a ``(rows, n)`` float64
    array, bit for bit and with the same checks, as the arrays
    ``(units, variances, exponents)``: no TimeSeries per row."""
    check_finite(rows)
    units, variances, exponents = _unit_spread_rows(rows)
    check_varies(variances)
    return units, variances, exponents


def times_power_of_two(values: np.ndarray, exponent: int) -> np.ndarray:
    """``values * 2**exponent`` for a real or complex array (a spectrum is
    complex even for a real series): exact unless the result leaves the
    normal float range (inf, or lost low bits)."""
    return np.ldexp(values.view(np.float64), exponent).view(values.dtype)


def as_time_series(values) -> TimeSeries:
    """Coerce array-likes to TimeSeries; pass TimeSeries through unchanged."""
    if isinstance(values, TimeSeries):
        return values
    return TimeSeries(np.asarray(values))
