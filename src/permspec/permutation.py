"""Permutation-null simulation, p-value, and the assembled test.

The null hypothesis is exchangeability of the observations.  Random
permutations of the observed series simulate the null distribution of
the maximum scaled intensity (MSI); the p-value is the fraction of
simulated MSI values at or above the observed one.  Many tests that only
need their decision at one level share :func:`count_rejections`.  Both
it and :func:`simulate_null` draw the null through one function,
``_null_round``, the only place simulations are shuffled and scored.
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

# The budget of a null round in bytes of the positions it shuffles, read by
# ``_round_rows`` alone: memory stays flat in the number of permutations, and
# M=1000 rows of n=5000 take one block.  A round's fixed cost, a few numpy
# calls per Fisher-Yates step, is spread over the 4,369 rows of n=30 that
# fill DECISION_ROUND_BYTES; 64 KiB lost most of that gain, and 256 KiB
# gained little more for a larger peak memory.
ROW_BLOCK_BYTES = 16 << 20
DECISION_ROUND_BYTES = 128 << 10

# Each round of count_rejections shuffles the next DECISION_BLOCK
# simulations of every undecided test of a group in one engine call.
DECISION_BLOCK = 25


def check_permutations(permutations: int) -> None:
    """Reject a number of null simulations that is not an integer >= 1."""
    rng.check_integer("permutations", permutations)
    if permutations < 1:
        raise ValueError(f"need at least one permutation (permutations >= 1), got {permutations}")


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
        check_permutations(self.n_permutations)
        rng.check_seed(self.master_seed)


@dataclass(frozen=True)
class NullDistribution:
    """Simulated MSI values under exchangeability, in simulation order."""

    msi_values: np.ndarray
    plan: PermutationPlan

    def __post_init__(self):
        values = np.array(self.msi_values, dtype=np.float64)  # a copy: the caller's stays writeable
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
    values are permuted and scored by ``_null_round``, the one test case
    of :func:`count_rejections`' rounds, in blocks of
    ``_round_rows`` rows, the rule that also sizes those rounds: all M
    rows, unless their shuffled positions pass ``ROW_BLOCK_BYTES`` (838
    rows of n=10,000).  Row m depends on its seed alone, so the blocking
    changes no bit.
    """
    ts = as_time_series(series)
    unit, variance, _ = ts.spread()
    scale = kernels.msi_scale(ts.n, variance)
    m, block = plan.n_permutations, _round_rows(ts.n, plan.n_permutations)
    buffers = rng.ShuffleBuffers()  # every block is shuffled in the first one's arrays
    values = np.concatenate([
        _null_round(unit[None], scale, plan.master_seed, first, min(block, m - first), buffers)[0]
        for first in range(0, m, block)
    ])
    return NullDistribution(msi_values=values, plan=plan)


def _null_round(units, scales, master_seeds, first: int, size: int, buffers: rng.ShuffleBuffers):
    """The ``(tests, size)`` null MSIs of simulations ``first .. first + size
    - 1`` of each test i, which permute ``units[i]`` in substreams of
    ``master_seeds[i]`` and score it with ``scales[i]`` (scalars for one test).
    Positions are shuffled, and the kernel gathers the values from them."""
    n = units.shape[1]
    row_seeds = rng.substream_seeds(master_seeds, size, first).reshape(-1)
    positions = rng.permutation_rows(n, row_seeds, buffers)
    return kernels.null_msi(units, positions, scales, buffers)


def empirical_cdf(null: NullDistribution, s: float) -> float:
    """Fraction of simulated MSI values at or below ``s``."""
    return float(np.count_nonzero(null.msi_values <= s)) / null.n_permutations


def exceedance_count(observed_msi: float, null: NullDistribution) -> int:
    """Number of simulated MSI values >= the observed one, ties included.

    Values within ``TIE_TOLERANCE`` below count as tied: rearrangements
    that leave the MSI unchanged reach it through a different rounding
    order.  Those are swaps of equal values and the affine maps t -> a*t +
    b mod n with gcd(a, n) = 1, which permute the non-zero frequencies:
    reversal is a = -1 and a cyclic shift a = 1.
    """
    return int(np.count_nonzero(null.msi_values >= _tie_threshold(observed_msi)))


def _tie_threshold(observed_msi):
    """The smallest simulated MSI that counts as reaching ``observed_msi``
    (a float, or an array of observed values)."""
    return observed_msi - TIE_TOLERANCE * abs(observed_msi)


def p_value(observed_msi: float, null: NullDistribution) -> float:
    """Simulated p-value: the exceedance fraction, on the grid {0, 1/M, ..., 1}."""
    return _p_value_of(exceedance_count(observed_msi, null), null.n_permutations)


def _p_value_of(exceedances, permutations: int):
    """The p-value rule, b/M, for b exceedances of M simulations (an int,
    or an array of counts)."""
    return exceedances / permutations


def _round_rows(n: int, permutations: int) -> int:
    """The one memory rule of the null: a round holds the rows of ``n``
    shuffled positions (:func:`rng.position_type`) that fill
    ``DECISION_ROUND_BYTES``, or all M rows where that is more, up to
    ``ROW_BLOCK_BYTES``, and at least one row."""
    # Python ints: a numpy n or M may be too narrow for bytes
    row_bytes = int(n) * rng.position_type(n).itemsize
    budget = min(max(DECISION_ROUND_BYTES, int(permutations) * row_bytes), ROW_BLOCK_BYTES)
    return max(1, budget // row_bytes)


def decision_group(n: int, permutations: int) -> int:
    """How many tests of length ``n`` one :func:`count_rejections` call
    should hold: enough that its first round, ``min(DECISION_BLOCK, M)``
    simulations of each, fills the ``_round_rows`` rows that also block
    one test's :func:`simulate_null`: 174 tests of n=30 and 87 of n=60 at
    M=200."""
    return max(1, _round_rows(n, permutations) // min(DECISION_BLOCK, int(permutations)))


def count_rejections(
    units, scales, master_seeds, permutations: int, alpha: float, buffers: rng.ShuffleBuffers
) -> int:
    """How many of a group of tests of one length reject at level
    ``alpha``: those whose :func:`run_test` with ``PermutationPlan(seed,
    permutations)`` gives p_value <= alpha.  Test i is given by its unit
    deviations ``units[i]`` (:meth:`TimeSeries.spread`), its
    :func:`kernels.msi_scale` ``scales[i]`` and its uint64
    ``master_seeds[i]``; :func:`decision_group` sizes a group.

    The count is exact, but a test stops once the p-value rule settles its
    decision: b/M grows with b, so after b exceedances of ``done``
    simulations it rejects if ``_p_value_of(b + M - done, M) <= alpha``,
    and cannot if ``_p_value_of(b, M) > alpha``.  Simulation m of a test is
    a pure function of (master_seed, m), so the simulations it skips could
    not have changed it.  Each round, one ``_null_round`` call, shuffles
    and scores the next block of simulations of every undecided test at
    once, in ``buffers``, which a caller with many groups holds for all
    their rounds; a round's shuffled positions fill at most the
    ``DECISION_ROUND_BYTES`` that :func:`decision_group` sizes a group by.
    Hence the simulations a test draws are the first ones of its
    :func:`simulate_null`, bit for bit.  The observed MSIs are the scaled
    :func:`kernels.peak_moduli` of one transform of ``units``.
    """
    check_permutations(permutations)
    thresholds = _tie_threshold(kernels.peak_moduli(kernels.transform(units)) * scales)
    exceedances = np.zeros(len(units), dtype=np.intp)
    rejections = done = 0
    while exceedances.size:
        size = min(DECISION_BLOCK, permutations - done)
        null = _null_round(units, scales, master_seeds, done, size, buffers)
        exceedances += np.count_nonzero(null >= thresholds[:, None], axis=1)
        done += size
        rejected = _p_value_of(exceedances + (permutations - done), permutations) <= alpha
        undecided = ~rejected & (_p_value_of(exceedances, permutations) <= alpha)
        rejections += int(np.count_nonzero(rejected))
        units, scales, master_seeds, thresholds, exceedances = (
            values[undecided] for values in (units, scales, master_seeds, thresholds, exceedances)
        )
    return rejections


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside the open interval (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def check_confidence(confidence: float) -> None:
    """Reject a confidence level outside the open interval (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    rng.check_integer("successes", successes)
    rng.check_integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    check_confidence(confidence)
    successes, trials = int(successes), int(trials)  # numpy integers would wrap in 4 * trials**2
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
        p_value=_p_value_of(count, null.n_permutations),
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
