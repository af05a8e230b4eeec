"""Independent reference implementations used only to check the library.

Everything here is deliberately naive (cmath loops, exhaustive
enumeration, mpmath arithmetic, Python-int splitmix64) and shares no code
with the package's own FFT/kernel/rng paths.
"""

import cmath
import itertools
import math

import mpmath

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    """splitmix64 finalizer on a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fisher_yates(n, stream_seed):
    """The order of ``range(n)`` that one splitmix64 stream shuffles it into:
    step i = n-1 .. 1 swaps positions i and ``draw_k % (i+1)``, where draw
    k = 1, 2, ... of the stream is ``splitmix64(stream_seed + k * golden)``."""
    order = list(range(n))
    for k, i in enumerate(range(n - 1, 0, -1), start=1):
        j = splitmix64((stream_seed + k * _GOLDEN) & _MASK64) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def naive_dft_at(values, delta):
    """Unitary centered DFT at one frequency by direct summation."""
    n = len(values)
    mean = sum(values) / n
    total = 0j
    for t, value in enumerate(values):
        total += (value - mean) * cmath.exp(-2j * cmath.pi * delta * t)
    return total / math.sqrt(n)


def naive_intensities(values):
    """Moduli of the centered DFT over all fundamental frequencies."""
    n = len(values)
    return [abs(naive_dft_at(values, k / n)) for k in range(n)]


def naive_sample_variance(values):
    n = len(values)
    mean = sum(values) / n
    return sum(abs(v - mean) ** 2 for v in values) / (n - 1)


def naive_msi(values):
    """Maximum scaled intensity over the non-zero fundamental frequencies."""
    s = math.sqrt(naive_sample_variance(values))
    return max(naive_intensities(values)[1:]) / s


def exhaustive_null_msi(values):
    """MSI of every one of the n! reorderings of ``values``."""
    return [naive_msi(perm) for perm in itertools.permutations(values)]


def wilson_interval_mp(successes, trials, confidence, digits=40):
    """Wilson score bounds computed in high-precision arithmetic."""
    with mpmath.workdps(digits):
        z = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(confidence))
        p_hat = mpmath.mpf(successes) / trials
        denom = 1 + z**2 / trials
        centre = (p_hat + z**2 / (2 * trials)) / denom
        margin = (z / denom) * mpmath.sqrt(
            p_hat * (1 - p_hat) / trials + z**2 / (4 * mpmath.mpf(trials) ** 2)
        )
        low = max(mpmath.mpf(0), centre - margin)
        high = min(mpmath.mpf(1), centre + margin)
        return float(low), float(high)
