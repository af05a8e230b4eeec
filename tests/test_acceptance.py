"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The desk-scale power grid (K=500 replicates, M=200
permutations) is computed once and shared by the criteria that need it;
the whole module takes a few minutes on one core.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import kolmogorov

from permspec import (
    NoiseSpec,
    PermutationPlan,
    StudyConfig,
    analyze_spectrum,
    dft_at,
    fisher_g,
    fisher_p_value,
    gen_noise,
    run_cell,
    run_grid,
    run_test,
    simulate_null,
    spectral_identity,
    wilson_interval,
)
from permspec.cli import main
from permspec.kernels import msi_scale
from permspec.permutation import count_rejections
from permspec.power import render_table
from permspec.rng import ShuffleBuffers, philox_generator
from permspec.series import spread_rows

from oracles import exhaustive_null_msi

ALPHA = 0.05
DESK_K = 500
DESK_M = 200

# reference power estimates for the desk-scale cells
TABLE1 = {
    ("normal", 30, 0.4): 0.0739,
    ("normal", 30, 0.8): 0.3403,
    ("normal", 30, 1.0): 0.5684,
    ("normal", 60, 0.4): 0.1486,
    ("normal", 60, 0.8): 0.7682,
    ("normal", 60, 1.0): 0.9201,
    ("t2", 30, 0.4): 0.0778,
    ("t2", 30, 0.8): 0.2663,
    ("t2", 30, 1.0): 0.4354,
    ("t2", 60, 0.4): 0.1188,
    ("t2", 60, 0.8): 0.5485,
    ("t2", 60, 1.0): 0.7624,
}

POWER_TOLERANCE = 0.07
NULL_TOLERANCE = 0.03

# sha256 of the desk grid's results text: every cell's rejection count is a
# pure function of its seed, so any change of it is a change of the table
DESK_TABLE_SHA256 = "a8325aa59cb055d877d263b78b0ea70d6b30e911d174fcea3ba7ebc406376d95"


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_table():
    config = StudyConfig(
        distributions=("normal", "t2"),
        n_values=(30, 60),
        snr_values=(0.0, 0.4, 0.8, 1.0),
        replicates=DESK_K,
        permutations=DESK_M,
        alpha=ALPHA,
        master_seed=20201130,
    )
    return run_grid(config)


def test_table1_reproduction_desk_scale(desk_table):
    worst = ("", 0.0)
    for cell in desk_table.cells:
        label = f"{cell.distribution} n={cell.n} lambda={cell.snr:g}"
        if cell.snr == 0.0:
            target, tolerance = ALPHA, NULL_TOLERANCE
        else:
            target = TABLE1[(cell.distribution, cell.n, cell.snr)]
            tolerance = POWER_TOLERANCE
        deviation = abs(cell.power - target)
        if deviation > tolerance:
            report("table-1 reproduction", False,
                   f"{label}: power {cell.power:.4f} vs reference {target:.4f}")
        if deviation > worst[1]:
            worst = (label, deviation)
    report("table-1 reproduction", True,
           f"16 cells within tolerance; worst {worst[0]} off by {worst[1]:.4f}")


def test_desk_table_bytes_pinned(desk_table):
    digest = hashlib.sha256(render_table(desk_table).encode()).hexdigest()
    report("desk table byte-identical", digest == DESK_TABLE_SHA256, f"sha256 {digest}")


def test_robustness_ordering_normal_vs_t2(desk_table):
    """Fat-tailed noise never wins: normal power >= t2 power at lambda >= 0.4."""
    worst = ("", -1.0)
    for n in (30, 60):
        for snr in (0.4, 0.8, 1.0):
            normal_cell = desk_table.cell("normal", n, snr)
            t2_cell = desk_table.cell("t2", n, snr)
            stderr = math.sqrt(
                (normal_cell.power * (1 - normal_cell.power)
                 + t2_cell.power * (1 - t2_cell.power)) / DESK_K
            )
            gap = t2_cell.power - normal_cell.power  # positive would be bad
            label = f"n={n} lambda={snr}"
            if gap > 3 * stderr:
                report("robustness ordering", False,
                       f"{label}: t2 power {t2_cell.power:.4f} exceeds "
                       f"normal {normal_cell.power:.4f} by > 3 SE")
            if gap > worst[1]:
                worst = (label, gap)
    report("robustness ordering", True,
           f"normal >= t2 on all 6 comparisons; tightest at {worst[0]}")


def test_power_monotone_in_snr(desk_table):
    """Within each (distribution, n) row, power rises with the ratio,
    up to 3 binomial standard errors of slack."""
    for distribution in ("normal", "t2"):
        for n in (30, 60):
            powers = [desk_table.cell(distribution, n, snr).power
                      for snr in (0.0, 0.4, 0.8, 1.0)]
            for lower, upper in zip(powers, powers[1:]):
                slack = 3 * math.sqrt(
                    (lower * (1 - lower) + upper * (1 - upper)) / DESK_K + 1e-9
                )
                assert upper >= lower - slack, (
                    f"{distribution} n={n}: power drops {lower:.3f} -> {upper:.3f}"
                )


def test_power_monotone_in_length(desk_table):
    for distribution in ("normal", "t2"):
        for snr in (0.4, 0.8, 1.0):
            short = desk_table.cell(distribution, 30, snr).power
            long = desk_table.cell(distribution, 60, snr).power
            slack = 3 * math.sqrt(
                (short * (1 - short) + long * (1 - long)) / DESK_K + 1e-9
            )
            assert long >= short - slack, (
                f"{distribution} lambda={snr}: power {short:.3f} (n=30) "
                f"vs {long:.3f} (n=60)"
            )


def _uniformity_check(distribution: str, tag: int) -> float:
    n, tests, m = 60, 2000, DESK_M
    spec = NoiseSpec(distribution, n)
    p_values = np.empty(tests)
    for i in range(tests):
        noise = gen_noise(spec, philox_generator(tag, i, 0))
        plan = PermutationPlan(master_seed=(tag << 20) + i, n_permutations=m)
        p_values[i] = run_test(noise, plan).p_value
    # exact null law: uniform over the m+1 atoms {0, 1/m, ..., 1}
    atoms = np.arange(m + 1) / m
    theory = np.arange(1, m + 2) / (m + 1)
    empirical = np.searchsorted(np.sort(p_values), atoms, side="right") / tests
    distance = np.abs(empirical - theory).max()
    return float(kolmogorov(math.sqrt(tests) * distance))


def test_null_p_values_uniform_normal():
    p = _uniformity_check("normal", tag=1)
    report("null p-value uniformity (normal noise)", p > 0.01, f"KS p = {p:.3f}")


def test_null_p_values_uniform_t2():
    p = _uniformity_check("t2", tag=2)
    report("null p-value uniformity (t2 noise)", p > 0.01, f"KS p = {p:.3f}")


def _fisher_p_values(distribution: str, n: int, tag: int, tests: int = 2000) -> np.ndarray:
    """Fisher's exact p-value of g for ``tests`` noise series of length n."""
    spec = NoiseSpec(distribution, n)
    return np.array([
        fisher_p_value(fisher_g(gen_noise(spec, philox_generator(tag, i, 0))), (n - 1) // 2)
        for i in range(tests)
    ])


def test_fisher_p_values_uniform_normal():
    """Under Gaussian white noise g follows Fisher's law, so its exact
    p-values are Uniform(0, 1): the law the paper compares against."""
    details, ok = [], True
    for n, tag in ((31, 8), (60, 9)):
        p_values = np.sort(_fisher_p_values("normal", n, tag))
        ranks = np.arange(1, p_values.size + 1) / p_values.size
        distance = max((ranks - p_values).max(), (p_values - ranks + 1 / p_values.size).max())
        p = float(kolmogorov(math.sqrt(p_values.size) * distance))
        ok = ok and p > 0.01
        details.append(f"n={n}: KS p = {p:.3f}")
    report("Fisher p-values uniform (normal noise)", ok, ", ".join(details))


def test_fisher_size_conservative_t2():
    """The paper's headline comparison, Fisher's side: under t2 noise his
    test rejects a true null far less often than its nominal level."""
    rejections = int((_fisher_p_values("t2", 31, tag=10) <= ALPHA).sum())
    low, high = wilson_interval(rejections, 2000)
    report("Fisher's test off nominal (t2 noise, n=31)", high < 0.03,
           f"size {rejections / 2000:.4f}, 95% interval [{low:.4f}, {high:.4f}]")


def test_permutation_size_holds_t2():
    """The same comparison, the permutation test's side: on the same kind
    of series it keeps its size."""
    cell = run_cell("t2", 31, 0.0, 2000, DESK_M, ALPHA, 11)
    report("permutation test holds its size (t2 noise, n=31)",
           abs(cell.power - ALPHA) <= NULL_TOLERANCE,
           f"size {cell.power:.4f}, 95% interval [{cell.wilson_low:.4f}, {cell.wilson_high:.4f}]")


def test_shared_permutations_do_not_overdisperse_the_count():
    """A power cell's replicates share one set of permutations, so their
    decisions are independent only given that set.  Were the set to move a
    cell's rejection rate, the counts of many cells would vary more than
    binomially.  300 null cells (normal noise, n=30, K=200, M=99, cell
    seeds 0 .. 299) each reject a replicate with probability exactly
    (floor(alpha*M) + 1) / (M + 1) = 0.05.  The sample variance of their
    counts, over its binomial value K * 0.05 * 0.95, must lie in the
    central 99.9% of its law for 300 independent binomial counts, from
    20,000 Monte Carlo draws (about chi-square on 288 degrees of freedom,
    over 288: 0.75 to 1.31)."""
    cells, replicates, permutations = 300, 200, 99
    size = (math.floor(ALPHA * permutations) + 1) / (permutations + 1)
    assert size == ALPHA
    buffers = ShuffleBuffers()
    counts = np.array([
        run_cell("normal", 30, 0.0, replicates, permutations, ALPHA, seed, buffers=buffers).rejections
        for seed in range(cells)
    ])
    binomial = replicates * size * (1 - size)
    generator = np.random.default_rng(0)
    ratios = np.concatenate([
        generator.binomial(replicates, size, (2000, cells)).var(axis=1, ddof=1) for _ in range(10)
    ]) / binomial
    low, high = np.quantile(ratios, [0.0005, 0.9995])
    ratio = counts.var(ddof=1) / binomial
    report("shared permutations keep the count binomial (300 null cells)", low <= ratio <= high,
           f"variance / binomial {ratio:.3f}, band [{low:.3f}, {high:.3f}], size {counts.mean() / replicates:.4f}")


def _fisher_critical_g(u: float, m: int) -> float:
    """The smallest float g with fisher_p_value(g, m) <= u, by bisection:
    Fisher's tail never increases with g, so one search serves every value."""
    low, high = 1.0 / m, 1.0  # the tail is 1 at g = 1/m and 0 at g = 1
    while True:
        middle = (low + high) / 2
        if middle in (low, high):
            return high
        if fisher_p_value(middle, m) <= u:
            high = middle
        else:
            low = middle


def test_simulated_null_is_fishers_law_at_odd_n():
    """The whole null pipeline against an exact target that shares no code
    with it.  A permutation drawn independently of an iid normal series
    leaves it iid normal, so at odd n each simulated g = MSI**2 / m, with
    m = (n-1)/2, has Fisher's law: P(g >= g*(u)) = u, where g*(u) is where
    Fisher's tail falls to u.  The band is taken from the spread of each
    series' fraction, as the M values of one series are not independent.
    n=31 shuffles uint8 positions and n=257 uint16 ones."""
    series_count, permutations = 400, 50
    details, ok = [], True
    for n, tag in ((31, 21), (257, 22)):
        m = (n - 1) // 2
        spec = NoiseSpec("normal", n)
        g = np.array([
            simulate_null(
                gen_noise(spec, philox_generator(tag, i, 0)), PermutationPlan(i, permutations)
            ).msi_values
            for i in range(series_count)
        ]) ** 2 / m
        for u in (0.5, 0.1, 0.05, 0.01):
            fractions = (g >= _fisher_critical_g(u, m)).mean(axis=1)
            error = fractions.std(ddof=1) / math.sqrt(series_count)
            z = (fractions.mean() - u) / error
            ok = ok and abs(z) <= 4
            details.append(f"n={n} u={u:g}: {fractions.mean():.4f} (z = {z:+.2f})")
    report("simulated null of g is Fisher's law (normal noise, odd n)", ok, ", ".join(details))


def _ar1_rows(phi: float, n: int, count: int, tag: int, burn_in: int = 100) -> np.ndarray:
    """``count`` normal AR(1) series x[t] = phi * x[t-1] + e[t] of length n,
    each started at 0 and kept after ``burn_in`` steps."""
    shocks = philox_generator(tag).standard_normal((count, burn_in + n))
    rows = np.empty((count, burn_in + n))
    level = np.zeros(count)
    for t in range(burn_in + n):
        level = phi * level + shocks[:, t]
        rows[:, t] = level
    return rows[:, burn_in:]


def test_autocorrelated_noise_is_rejected():
    """The null hypothesis is exchangeability, not the absence of a
    periodic signal: AR(1) noise with no signal at all is rejected at the
    nominal rate when phi = 0 and most of the time when phi = 0.6.
    count_rejections decides as run_test does, test for test, with the
    permutations of one master seed that the series share, as a power
    cell's replicates do."""
    n, count, permutations = 240, 200, 200
    rates, ok = [], True
    for phi, tag in ((0.0, 23), (0.6, 24)):
        units, variances, _ = spread_rows(_ar1_rows(phi, n, count, tag))
        rejections = count_rejections(
            units, msi_scale(n, variances), tag, permutations, ALPHA, ShuffleBuffers()
        )
        low, high = wilson_interval(rejections, count, 0.999)
        ok = ok and (low <= ALPHA <= high if phi == 0.0 else low > 0.5)
        rates.append(f"phi={phi:g}: {rejections / count:.3f} [{low:.3f}, {high:.3f}]")
    report("AR(1) noise rejected as not exchangeable (n=240)", ok, ", ".join(rates))


def test_parseval_identity_1000_series():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(3, 513))
        spec = NoiseSpec("normal" if i % 2 == 0 else "t2", n)
        values = gen_noise(spec, philox_generator(3, i))
        analysis = analyze_spectrum(values)
        total = float((analysis.intensity**2).sum())
        target = (n - 1) * analysis.sample_variance
        worst = max(worst, abs(total - target) / target)
    report("Parseval identity", worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_spectral_identity_1000_pairs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(3, 65))
        spec = NoiseSpec("normal" if i % 2 == 0 else "t2", n)
        values = gen_noise(spec, philox_generator(4, i))
        delta = float(rng.uniform(0.0, 1.0))
        direct = abs(dft_at(values, delta)) ** 2 / np.var(values, ddof=1)
        via_identity = spectral_identity(values, delta)
        worst = max(worst, abs(via_identity - direct) / max(direct, 1e-12))
    report("spectral identity vs direct DFT", worst <= 1e-8,
           f"worst relative error {worst:.2e}")


def test_exhaustive_permutation_oracle():
    rng = np.random.default_rng(13)
    worst_gap = 0.0
    worst_ecdf = 0.0
    for i in range(50):
        n = int(rng.integers(4, 7))
        values = rng.standard_normal(n)
        exact = np.sort(exhaustive_null_msi(tuple(values)))
        null = simulate_null(values, PermutationPlan(master_seed=1000 + i,
                                                     n_permutations=5000))
        simulated = np.sort(null.msi_values)
        # membership: every simulated value sits on the exact support
        positions = np.searchsorted(exact, simulated)
        left = exact[np.clip(positions - 1, 0, exact.size - 1)]
        right = exact[np.clip(positions, 0, exact.size - 1)]
        gap = np.minimum(np.abs(simulated - left), np.abs(simulated - right))
        worst_gap = max(worst_gap, float(gap.max()))
        # sup-norm distance between simulated ECDF and the exact CDF
        support = np.unique(exact.round(9))
        exact_cdf = np.searchsorted(exact, support + 1e-9, side="right") / exact.size
        sim_cdf = np.searchsorted(simulated, support + 1e-9, side="right") / simulated.size
        worst_ecdf = max(worst_ecdf, float(np.abs(exact_cdf - sim_cdf).max()))
    ok = worst_gap < 1e-9 and worst_ecdf <= 0.05
    report("exhaustive permutation oracle (n=4..6)", ok,
           f"support gap {worst_gap:.1e}, sup ECDF distance {worst_ecdf:.4f}")


def test_dft_coordinate_moments():
    """20,000 normal series, n=16: non-zero DFT coordinates are standard
    uncorrelated complex variables, empirically."""
    n, count = 16, 20_000
    draws = philox_generator(6).standard_normal((count, n))
    centered = draws - draws.mean(axis=1, keepdims=True)
    coords = np.fft.fft(centered, axis=1)[:, 1:] / math.sqrt(n)
    means = coords.mean(axis=0)
    shifted = coords - means
    covariance = shifted.conj().T @ shifted / count
    variances = np.real(np.diag(covariance))
    correlations = covariance / np.sqrt(np.outer(variances, variances))
    off_diagonal = np.abs(correlations[~np.eye(n - 1, dtype=bool)])
    mean_ok = np.abs(means).max() < 0.03
    var_ok = np.abs(variances - 1.0).max() < 0.05
    corr_ok = off_diagonal.max() < 0.03
    report(
        "DFT coordinate moments (20k normal series, n=16)",
        mean_ok and var_ok and corr_ok,
        f"max |mean| {np.abs(means).max():.4f}, "
        f"max |var-1| {np.abs(variances - 1).max():.4f}, "
        f"max |corr| {off_diagonal.max():.4f}",
    )


def test_cli_determinism_byte_identical(tmp_path):
    data = tmp_path / "series.csv"
    assert main(["simulate", "--n", "48", "--snr", "0.6", "--seed", "31",
                 "--out", str(data)]) == 0

    test_args = ["test", str(data), "--seed", "5", "--permutations", "400"]
    reports, plots = [], []
    for run in "ab":
        rep, plot = tmp_path / f"r{run}.json", tmp_path / f"p{run}.svg"
        assert main(test_args + ["--out-report", str(rep), "--out-plot", str(plot)]) == 0
        reports.append(rep.read_bytes())
        plots.append(plot.read_bytes())

    study_args = ["power-study", "--seed", "6", "--replicates", "4",
                  "--permutations", "25"]
    studies = []
    for run in "ab":
        out = tmp_path / f"s{run}.jsonl"
        assert main(study_args + ["--out", str(out)]) == 0
        studies.append(out.read_bytes())

    ok = (reports[0] == reports[1] and plots[0] == plots[1]
          and studies[0] == studies[1])
    report("CLI determinism (byte-identical outputs)", ok,
           "report, plot, and results files identical across reruns")
