"""Time-series container and validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError

MIN_LENGTH = 3  # shortest series with a usable non-zero frequency and variance


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, evenly spaced observations.

    Values are stored as a read-only 1-D float64 (or complex128) array.
    Complex series are accepted as a library extension; the CLI and the
    simulation laboratory only produce real series.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {arr.shape}")
        if arr.size < MIN_LENGTH:
            raise ValueError(
                f"series needs at least {MIN_LENGTH} observations, got {arr.size}"
            )
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

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def mean(self) -> complex | float:
        return self.values.mean()

    def centered(self) -> tuple[np.ndarray, float]:
        """Deviations from the sample mean, and their sample variance.

        Every centred quantity in the package starts here.  The variance is
        the mean squared modulus of the deviations with an n-1 denominator;
        it is 0.0 for a constant series.
        """
        centered = self.values - self.values.mean()
        sum_sq = float(np.real(np.vdot(centered, centered)))
        return centered, sum_sq / (self.n - 1)

    def spread(self) -> tuple[np.ndarray, float]:
        """:meth:`centered`, for quantities scaled by the sample deviation.

        Raises DegenerateSeriesError for a constant series, where every
        scaled intensity is 0/0.
        """
        centered, variance = self.centered()
        if variance == 0.0:
            raise DegenerateSeriesError(
                "constant series: sample variance is zero, scaled intensity undefined"
            )
        return centered, variance

    def sample_variance(self) -> float:
        """Mean squared deviation from the sample mean, n-1 denominator."""
        return self.centered()[1]


def as_time_series(values) -> TimeSeries:
    """Coerce array-likes to TimeSeries; pass TimeSeries through unchanged."""
    if isinstance(values, TimeSeries):
        return values
    return TimeSeries(np.asarray(values))
