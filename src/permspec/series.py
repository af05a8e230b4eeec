"""Time-series container and validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError
from .rng import check_integer

MIN_LENGTH = 3  # shortest series with a usable non-zero frequency and variance


def check_length(n: int) -> None:
    """Reject a series length that is not an integer (TypeError) or is
    below MIN_LENGTH."""
    check_integer("n", n)
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

    def spread(self) -> tuple[np.ndarray, float]:
        """``(unit, variance)``: the deviations from the mean, divided by the
        power of two ``2**e`` just above the largest |value| (``np.frexp``'s
        exponent e), and their sample variance.

        Every centred quantity in the package starts here.  Scaled so, no
        sum over- or underflows at any finite magnitude, and the exact
        power-of-two scaling keeps every bit of the scale-free quantities
        built from the pair, the scaled intensities and the MSI.  Raises
        DegenerateSeriesError for a constant series, where every scaled
        intensity is 0/0.
        """
        units, variances = spread_rows(self.values[None])
        return units[0], float(variances[0])


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


def spread_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``TimeSeries(row).spread()`` of each row of a ``(rows, n)`` float64
    array, with the same checks, as the arrays ``(units, variances)``: no
    TimeSeries per row.  ``np.ldexp`` scales each row so that its largest
    |value| lies in [0.5, 1), which cannot overflow.  Each variance is its
    row's sum of squares by ``np.vecdot``, which is BLAS ``ddot``: the
    bytes of ``np.dot`` on that row."""
    check_finite(rows)
    exponents = np.frexp(np.abs(rows).max(axis=1))[1]
    values = np.ldexp(rows, -exponents[:, None])
    units = values - values.mean(axis=1, keepdims=True)
    # exactly constant, even where the mean rounds (seven 0.1s)
    units[np.all(rows == rows[:, :1], axis=1)] = 0.0
    variances = np.vecdot(units, units) / (rows.shape[1] - 1)
    check_varies(variances)
    return units, variances


def as_time_series(values) -> TimeSeries:
    """Coerce array-likes to TimeSeries; pass TimeSeries through unchanged."""
    if isinstance(values, TimeSeries):
        return values
    return TimeSeries(np.asarray(values))
