"""Independent reference implementations used only to check the library.

Everything here is deliberately naive (cmath loops, exhaustive
enumeration, mpmath arithmetic, Python-int splitmix64) and shares no code
with the package's own FFT/kernel/rng paths, except
``reference_cell_tests``: the one-full-test-per-replicate power cell,
built from the package's single-test API.
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


def seed_chain(*components):
    """The order-sensitive fold of integer identifiers into one 64-bit seed,
    on Python ints: each step mixes in ``splitmix64(c mod 2**64)``."""
    h = 0x8E2A1BB1D3D7F5A3
    for c in components:
        h = splitmix64(((h + _GOLDEN) & _MASK64) ^ splitmix64(c & _MASK64))
    return h


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


def naive_spectral_identity(values, delta):
    """The squared scaled intensity at ``delta`` from the sample
    autocorrelations rho_l = gamma_l / gamma_0, gamma_l = sum_t d_t d_(t+l) /
    (n-l-1) of the deviations d from the mean, and T_l(cos x) = cos(l x) at
    x = 2 pi delta: (n-1)/n + 2 sum_(l=1)^(n-2) ((n-l-1)/n) rho_l T_l +
    (2/n) T_(n-1) d_1 d_n / gamma_0.  The last lag is a single product, whose
    autocovariance would divide by zero, so it enters directly."""
    n = len(values)
    mean = sum(values) / n
    d = [value - mean for value in values]
    gamma = [sum(d[t] * d[t + lag] for t in range(n - lag)) / (n - lag - 1) for lag in range(n - 1)]
    x = 2 * math.pi * delta
    body = sum((n - lag - 1) / n * gamma[lag] / gamma[0] * math.cos(lag * x) for lag in range(1, n - 1))
    return (n - 1) / n + 2 * body + 2 / n * math.cos((n - 1) * x) * d[0] * d[-1] / gamma[0]


def naive_unitary_dft_matrix(n):
    """The n-by-n unitary DFT matrix as rows of Python complex numbers:
    entry (k, t) is exp(-2i pi k t / n) / sqrt(n)."""
    return [[cmath.exp(-2j * cmath.pi * (k * t % n) / n) / math.sqrt(n) for t in range(n)] for k in range(n)]


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


def naive_fisher_g(values):
    """Fisher's g by direct DFT: the largest squared centred-DFT modulus over
    k = 1 .. (n-1)//2, divided by their sum."""
    n = len(values)
    ordinates = [abs(naive_dft_at(values, k / n)) ** 2 for k in range(1, (n - 1) // 2 + 1)]
    return max(ordinates) / sum(ordinates)


def fisher_tail_mp(g, m, digits=80):
    """Fisher's (1929) P(G >= g) for m exponential ordinates, summed in
    mpmath at ``digits`` significant digits, to the nearest float."""
    with mpmath.workdps(digits):
        g = mpmath.mpf(g)
        terms = [
            (-1) ** (j - 1) * mpmath.binomial(m, j) * (1 - j * g) ** (m - 1)
            for j in range(1, m + 1)
            if j * g < 1
        ]
        return float(mpmath.fsum(terms)) if m * g > 1 else 1.0


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


def reference_cell_tests(distribution, n, snr, replicates, permutations, cell_seed):
    """The full test of every replicate of a power cell: replicate r is the
    series of noise seed (cell_seed, r, 0), tested by ``run_test`` with all
    ``permutations`` simulations at the cell's one master seed
    (cell_seed, 1), which every replicate shares.  The cell rejects a
    replicate when its ``p_value <= alpha``."""
    from permspec import PermutationPlan, random_composite, run_test
    from permspec.rng import seed_chain

    plan = PermutationPlan(master_seed=seed_chain(cell_seed, 1), n_permutations=permutations)
    results = []
    for replicate in range(replicates):
        composite = random_composite(distribution, n, snr, seed=seed_chain(cell_seed, replicate, 0))
        results.append(run_test(composite.series, plan))
    return results
