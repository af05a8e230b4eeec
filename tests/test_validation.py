"""Each input rule has one check, so every caller reports it in one message."""

import numpy as np
import pytest

from permspec import (
    NoiseSpec,
    PermutationPlan,
    StudyConfig,
    TimeSeries,
    analyze_spectrum,
    autocorrelation_profile,
    fisher_g,
    random_composite,
    run_cell,
    run_test,
    simulate_null,
)
from permspec.cli import ingest_csv
from permspec.permutation import check_alpha, check_permutations
from permspec.series import check_length


def _ingest_two_rows(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("1.0\n2.0\n")
    return ingest_csv(path)


# rule -> (the check that owns it, every caller that must reach it)
RULES = {
    "length": (
        lambda tmp_path: check_length(2),
        {
            "TimeSeries": lambda tmp_path: TimeSeries([1.0, 2.0]),
            "NoiseSpec": lambda tmp_path: NoiseSpec("normal", 2),
            "StudyConfig": lambda tmp_path: StudyConfig(n_values=(2,)),
            "ingest_csv": _ingest_two_rows,
            "random_composite": lambda tmp_path: random_composite("normal", 2, 0.0, 1),
        },
    ),
    "distribution": (
        lambda tmp_path: NoiseSpec("cauchy", 30),
        {
            "StudyConfig": lambda tmp_path: StudyConfig(distributions=("cauchy",)),
            "random_composite": lambda tmp_path: random_composite("cauchy", 30, 0.0, 1),
        },
    ),
    "permutations": (
        lambda tmp_path: check_permutations(0),
        {
            "PermutationPlan": lambda tmp_path: PermutationPlan(master_seed=1, n_permutations=0),
            "StudyConfig": lambda tmp_path: StudyConfig(permutations=0),
            "run_cell": lambda tmp_path: run_cell("normal", 30, 0.0, 5, 0, 0.05, 1),
        },
    ),
    "alpha": (
        lambda tmp_path: check_alpha(1.5),
        {
            "StudyConfig": lambda tmp_path: StudyConfig(alpha=1.5),
            "run_cell": lambda tmp_path: run_cell("normal", 30, 0.0, 5, 20, 1.5, 1),
        },
    ),
}


def _message(build, tmp_path) -> str:
    with pytest.raises(ValueError) as excinfo:
        build(tmp_path)
    return str(excinfo.value)


@pytest.mark.parametrize(
    "rule,caller",
    [(rule, caller) for rule, (_, callers) in RULES.items() for caller in callers],
)
def test_each_rule_raises_one_message(rule, caller, tmp_path):
    owner, callers = RULES[rule]
    assert _message(callers[caller], tmp_path) == _message(owner, tmp_path)


def test_length_message_names_the_simulate_flag(tmp_path):
    assert _message(RULES["length"][0], tmp_path) == (
        "series needs at least 3 observations (n >= 3), got 2"
    )


PLAN = PermutationPlan(master_seed=1, n_permutations=10)


@pytest.mark.parametrize(
    "values",
    [
        [1 + 0j, 2, 3],
        np.random.default_rng(2).standard_normal(8) + 1j * np.random.default_rng(3).standard_normal(8),
        np.array([True, False, True, True]),
        ["1.0", "2.0", "3.0"],
    ],
    ids=["complex-zero-imaginary", "complex-normal", "bool", "strings"],
)
def test_only_real_numbers_pass_the_series_boundary(values):
    """TimeSeries is the one check of the input's type: every entry point
    that takes values raises its TypeError, word for word."""
    with pytest.raises(TypeError, match="series values must be") as excinfo:
        TimeSeries(values)
    message = str(excinfo.value)
    for entry in (
        analyze_spectrum,
        lambda v: run_test(v, PLAN),
        lambda v: simulate_null(v, PLAN),
        fisher_g,
        autocorrelation_profile,
    ):
        with pytest.raises(TypeError) as excinfo:
            entry(values)
        assert str(excinfo.value) == message
