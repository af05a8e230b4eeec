"""Independent references the benchmark checks the program's outputs against,
and the early-decision ceiling computed from a null in simulation order.

Nothing here imports permspec.  The observed MSI comes from a direct
DFT product; the permutation null is rebuilt from the documented
splitmix64 Fisher-Yates streams by shuffling the values themselves (no
index matrix, full complex FFT), so it shares no code path with the
package.  Work is done in row chunks to keep the checker's memory small
next to the program's, because the benchmark reports the peak RSS of
the process that runs both.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_U64 = np.uint64

# Relative tie tolerance around the observed MSI (as scipy's
# permutation_test uses): rows this close may count either way.
TIE_GAMMA = 100 * np.finfo(np.float64).eps

# Elements per chunk of the reference null (8 bytes each per array).
CHUNK_ELEMENTS = 1 << 19


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _U64(30))
    z = z * _U64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> _U64(27))
    z = z * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _centered(values) -> tuple[np.ndarray, float]:
    x = np.asarray(values, dtype=np.float64)
    centered = x - x.mean()
    s = math.sqrt(float(centered @ centered) / (x.size - 1))
    return centered, s


def direct_intensities(values, block: int = 128) -> np.ndarray:
    """Scaled intensities at frequencies k/n, k = 1 .. n//2, by direct sums."""
    centered, s = _centered(values)
    n = centered.size
    t = np.arange(n, dtype=np.int64)
    out = np.empty(n // 2)
    for start in range(1, n // 2 + 1, block):
        k = np.arange(start, min(start + block, n // 2 + 1), dtype=np.int64)
        angle = (2.0 * np.pi / n) * ((k[:, None] * t[None, :]) % n)
        re = np.cos(angle) @ centered
        im = np.sin(angle) @ centered
        out[k - 1] = np.hypot(re, im)
    return out / (math.sqrt(n) * s)


def null_msi(values, master_seed: int, permutations: int) -> np.ndarray:
    """MSI of each of the ``permutations`` shuffles a plan seeded with
    ``master_seed`` prescribes, in simulation order.

    Simulation m uses stream seed ``mix64(master_seed + (m+1)*GOLDEN)``;
    step i = n-1 .. 1 of its Fisher-Yates shuffle swaps positions i and
    ``draw % (i+1)``, where the draws are ``mix64(stream + k*GOLDEN)``
    for k = 1, 2, ...
    """
    centered, s = _centered(values)
    n = centered.size
    rows = max(1, CHUNK_ELEMENTS // n)
    base = _U64(master_seed & _MASK64)
    steps = np.arange(1, n, dtype=_U64) * _U64(GOLDEN)
    out = np.empty(permutations)
    for first in range(0, permutations, rows):
        index = np.arange(first + 1, min(first + rows, permutations) + 1, dtype=_U64)
        streams = _mix64(base + index * _U64(GOLDEN))
        draws = _mix64(streams[:, None] + steps[None, :])
        shuffled = np.tile(centered, (index.size, 1))
        row = np.arange(index.size)
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = (draws[:, step] % _U64(i + 1)).astype(np.intp)
            held = shuffled[row, i]
            shuffled[row, i] = shuffled[row, j]
            shuffled[row, j] = held
        spectrum = np.abs(np.fft.fft(shuffled, axis=1)[:, 1:])
        out[first : first + index.size] = spectrum.max(axis=1)
    return out / (math.sqrt(n) * s)


def exceedance_bracket(observed: float, null: np.ndarray) -> tuple[int, int]:
    """Smallest and largest count of null values >= ``observed`` that any
    comparison within the tie tolerance could give."""
    gamma = TIE_GAMMA * abs(observed)
    low = int(np.count_nonzero(null >= observed + gamma))
    high = int(np.count_nonzero(null >= observed - gamma))
    return low, high


def msi_close(program: float, reference: float) -> bool:
    """Observed MSI agreement; rounding differs between transforms."""
    return math.isclose(program, reference, rel_tol=1e-9)


def decision_permutations(observed: float, null: np.ndarray, alpha: float) -> int:
    """Permutations, taken in simulation order, after which the decision
    ``b/M <= alpha`` can no longer change (b counts null values >= observed)."""
    m = null.size
    most = int(np.count_nonzero(np.arange(m + 1) / m <= alpha)) - 1  # largest b with b/M <= alpha
    exceed = np.cumsum(null >= observed)
    remaining = m - np.arange(1, m + 1)
    settled = (exceed > most) | (exceed + remaining <= most)
    return int(np.argmax(settled)) + 1


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    share = successes / trials
    denominator = 1 + z * z / trials
    centre = (share + z * z / (2 * trials)) / denominator
    margin = z / denominator * math.sqrt(share * (1 - share) / trials + z * z / (4 * trials * trials))
    return max(0.0, centre - margin), min(1.0, centre + margin)
