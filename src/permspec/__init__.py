"""permspec: permutation spectrum test for periodic signals.

Detects periodicity in a discrete time series by comparing its maximum
scaled Fourier intensity (MSI) against a null distribution simulated
from random permutations of the observations.  Includes a simulation
laboratory for power studies over thin- and fat-tailed noise.
"""

__version__ = "0.1.0"

from .errors import CsvParseError, DegenerateSeriesError
from .permutation import (
    NullDistribution,
    PermutationPlan,
    TestResult,
    empirical_cdf,
    exceedance_count,
    p_value,
    run_test,
    simulate_null,
    summarize_test,
    wilson_interval,
)
from .plotting import PlotModel, build_plot_model, render_plot
from .power import (
    PowerCell,
    PowerTable,
    StudyConfig,
    desk_scale_config,
    full_scale_config,
    load_table,
    run_cell,
    run_grid,
    save_table,
)
from .report import read_report, render_report, parse_report, write_report
from .series import TimeSeries, as_time_series
from .signals import (
    CompositeSeries,
    DISTRIBUTIONS,
    NoiseSpec,
    SignalSpec,
    gen_noise,
    gen_sinusoid,
    normalize_magnitude,
    random_composite,
)
from .spectral import (
    AutocorrelationProfile,
    SpectrumAnalysis,
    analyze_spectrum,
    autocorrelation_profile,
    autocovariance,
    center,
    chebyshev_t,
    dft_at,
    fisher_g,
    spectral_identity,
    unitary_dft_matrix,
)

__all__ = [
    "AutocorrelationProfile",
    "CompositeSeries",
    "CsvParseError",
    "DISTRIBUTIONS",
    "DegenerateSeriesError",
    "NoiseSpec",
    "NullDistribution",
    "PermutationPlan",
    "PlotModel",
    "PowerCell",
    "PowerTable",
    "SignalSpec",
    "SpectrumAnalysis",
    "StudyConfig",
    "TestResult",
    "TimeSeries",
    "analyze_spectrum",
    "as_time_series",
    "autocorrelation_profile",
    "autocovariance",
    "build_plot_model",
    "center",
    "chebyshev_t",
    "desk_scale_config",
    "dft_at",
    "empirical_cdf",
    "exceedance_count",
    "fisher_g",
    "full_scale_config",
    "gen_noise",
    "gen_sinusoid",
    "load_table",
    "normalize_magnitude",
    "p_value",
    "parse_report",
    "random_composite",
    "read_report",
    "render_plot",
    "render_report",
    "run_cell",
    "run_grid",
    "run_test",
    "save_table",
    "simulate_null",
    "spectral_identity",
    "summarize_test",
    "unitary_dft_matrix",
    "wilson_interval",
    "write_report",
]
