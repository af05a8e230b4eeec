"""Permutation-null simulation, p-value, and the assembled test.

The null hypothesis is exchangeability of the observations.  Random
permutations of the observed series simulate the null distribution of
the maximum scaled intensity (MSI); the p-value is the fraction of
simulated MSI values at or above the observed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import kernels, rng
from .series import as_time_series
from .spectral import SpectrumAnalysis, analyze_spectrum

# Relative tie tolerance of the exceedance count, as in scipy.stats.permutation_test.
TIE_TOLERANCE = 100 * np.finfo(np.float64).eps

# Bytes of permuted rows simulate_null holds at once: memory stays flat in
# the number of permutations, and M=1000 rows of n=5000 take one block.
ROW_BLOCK_BYTES = 64 << 20


@dataclass(frozen=True)
class PermutationPlan:
    """How to simulate a null distribution: master seed and batch size.

    Simulation ``m`` draws its permutation from a substream whose seed is
    a pure function of ``(master_seed, m)``, so results do not depend on
    evaluation order.
    """

    master_seed: int
    n_permutations: int

    def __post_init__(self):
        if self.n_permutations < 1:
            raise ValueError(
                f"need at least one permutation, got {self.n_permutations}"
            )
        rng.check_seed(self.master_seed)

    def simulation_seeds(self) -> np.ndarray:
        return rng.substream_seeds(self.master_seed, self.n_permutations)


@dataclass(frozen=True)
class NullDistribution:
    """Simulated MSI values under exchangeability, in simulation order."""

    msi_values: np.ndarray
    plan: PermutationPlan

    def __post_init__(self):
        values = np.asarray(self.msi_values, dtype=np.float64)
        if values.shape != (self.plan.n_permutations,):
            raise ValueError("one MSI value per planned simulation required")
        values.flags.writeable = False
        object.__setattr__(self, "msi_values", values)

    @property
    def n_permutations(self) -> int:
        return self.plan.n_permutations

    def quartiles(self) -> tuple[float, float, float]:
        q1, q2, q3 = np.quantile(self.msi_values, [0.25, 0.5, 0.75])
        return float(q1), float(q2), float(q3)


def simulate_null(series, plan: PermutationPlan) -> NullDistribution:
    """Simulate the null MSI distribution by random permutation.

    Deterministic given (series, plan); permutations never change the
    sample mean or variance, so the centered values and the scale factor
    are computed once and shared across all simulations.  The centred
    values themselves are shuffled, in blocks of at most
    ``ROW_BLOCK_BYTES`` of rows; row m depends on its seed alone, so the
    blocking changes no bit.
    """
    ts = as_time_series(series)
    unit, variance, _ = ts.spread()
    scale = kernels.msi_scale(ts.n, variance)
    seeds = plan.simulation_seeds()
    rows_per_block = max(1, ROW_BLOCK_BYTES // unit.nbytes)
    values = np.concatenate([
        kernels.null_msi(rng.permutation_rows(unit, seeds[first:first + rows_per_block]), scale)
        for first in range(0, seeds.size, rows_per_block)
    ])
    return NullDistribution(msi_values=values, plan=plan)


def empirical_cdf(null: NullDistribution, s: float) -> float:
    """Fraction of simulated MSI values at or below ``s``."""
    return float(np.count_nonzero(null.msi_values <= s)) / null.n_permutations


def exceedance_count(observed_msi: float, null: NullDistribution) -> int:
    """Number of simulated MSI values >= the observed one, ties included.

    Values within ``TIE_TOLERANCE`` below count as tied: rearrangements
    that leave the MSI unchanged (reversal, cyclic shifts, swaps of equal
    values) reach it through a different rounding order.
    """
    threshold = observed_msi - TIE_TOLERANCE * abs(observed_msi)
    return int(np.count_nonzero(null.msi_values >= threshold))


def p_value(observed_msi: float, null: NullDistribution) -> float:
    """Simulated p-value: the exceedance fraction, on the grid {0, 1/M, ..., 1}."""
    return _p_value_of(exceedance_count(observed_msi, null), null)


def _p_value_of(exceedances: int, null: NullDistribution) -> float:
    """The p-value rule, b/M, for b exceedances of M simulations."""
    return exceedances / null.n_permutations


def check_confidence(confidence: float) -> None:
    """Reject a confidence level outside the open interval (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    check_confidence(confidence)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * ((p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) ** 0.5)
    # at the boundary counts one side is exactly the point estimate
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return low, high


@dataclass(frozen=True)
class TestResult:
    """Outcome of one permutation spectrum test."""

    observed_msi: float
    peak_frequency: float
    p_value: float
    wilson_low: float
    wilson_high: float
    exceedances: int
    n_permutations: int
    master_seed: int
    n: int
    confidence: float


def summarize_test(
    analysis: SpectrumAnalysis, null: NullDistribution, confidence: float = 0.95
) -> TestResult:
    """Assemble a TestResult from an observed spectrum and a simulated null."""
    count = exceedance_count(analysis.msi, null)
    low, high = wilson_interval(count, null.n_permutations, confidence)
    return TestResult(
        observed_msi=analysis.msi,
        peak_frequency=analysis.peak_frequency,
        p_value=_p_value_of(count, null),
        wilson_low=low,
        wilson_high=high,
        exceedances=count,
        n_permutations=null.n_permutations,
        master_seed=null.plan.master_seed,
        n=analysis.n,
        confidence=confidence,
    )


def run_test(series, plan: PermutationPlan, confidence: float = 0.95) -> TestResult:
    """Analyze, simulate the null, and summarise in one call."""
    ts = as_time_series(series)
    analysis = analyze_spectrum(ts)
    null = simulate_null(ts, plan)
    return summarize_test(analysis, null, confidence)
