"""Time-series container and validation."""

from __future__ import annotations

import math
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
    """Ordered, evenly spaced observations.

    Values are stored as a read-only 1-D float64 (or complex128) array.
    Complex series are accepted as a library extension; the CLI and the
    simulation laboratory only produce real series.  Two series are equal
    when they have the same dtype and equal values.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {arr.shape}")
        check_length(arr.size)
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128)
        elif not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"series values must be numeric, got dtype {arr.dtype}")
        else:
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("series values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.values.dtype == other.values.dtype and np.array_equal(self.values, other.values)

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.values.dtype.str, (self.values + 0.0).tobytes()))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def centered(self) -> tuple[np.ndarray, float]:
        """Deviations from the sample mean, and their sample variance (mean
        squared modulus, n-1 denominator; 0.0 for a constant series): the
        arithmetic of :meth:`spread`, in data units."""
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
        if variance == 0.0:
            raise DegenerateSeriesError(
                "constant series: sample variance is zero, scaled intensity undefined"
            )
        return unit, variance, exponent

    @cached_property
    def _unit_spread(self) -> tuple[np.ndarray, float, int]:
        # once per series: a test needs it for the observed MSI and the null
        largest = np.abs(self.values.view(np.float64)).max()  # real and imaginary parts
        exponent = math.frexp(largest)[1]
        values = times_power_of_two(self.values, -exponent)
        if np.all(self.values == self.values[0]):
            # exactly constant, even where the mean rounds (seven 0.1s)
            unit = np.zeros_like(values)
        else:
            unit = values - values.mean()
        unit.flags.writeable = False
        return unit, float(np.real(np.vdot(unit, unit))) / (self.n - 1), exponent


def times_power_of_two(values: np.ndarray, exponent: int) -> np.ndarray:
    """``values * 2**exponent`` for a real or complex array: exact unless the
    result leaves the normal float range (inf, or lost low bits)."""
    return np.ldexp(values.view(np.float64), exponent).view(values.dtype)


def as_time_series(values) -> TimeSeries:
    """Coerce array-likes to TimeSeries; pass TimeSeries through unchanged."""
    if isinstance(values, TimeSeries):
        return values
    return TimeSeries(np.asarray(values))
