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
    wilson_interval,
)
from permspec.cli import ingest_csv
from permspec.permutation import check_alpha, check_confidence, check_permutations
from permspec.power import check_replicates
from permspec.rng import check_seed
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
    "seed": (
        lambda tmp_path: check_seed(-1),
        {
            "PermutationPlan": lambda tmp_path: PermutationPlan(master_seed=-1, n_permutations=10),
            "StudyConfig": lambda tmp_path: StudyConfig(master_seed=-1),
            "random_composite": lambda tmp_path: random_composite("normal", 30, 0.0, -1),
            "run_cell": lambda tmp_path: run_cell("normal", 30, 0.0, 5, 20, 0.05, -1),
        },
    ),
    "confidence": (
        lambda tmp_path: check_confidence(1.5),
        {
            "StudyConfig": lambda tmp_path: StudyConfig(confidence=1.5),
            "run_cell": lambda tmp_path: run_cell("normal", 30, 0.0, 5, 20, 0.05, 1, 1.5),
            "wilson_interval": lambda tmp_path: wilson_interval(1, 5, 1.5),
        },
    ),
    "replicates": (
        lambda tmp_path: check_replicates(0),
        {
            "StudyConfig": lambda tmp_path: StudyConfig(replicates=0),
            "run_cell": lambda tmp_path: run_cell("normal", 30, 0.0, 0, 20, 0.05, 1),
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


# the same rules for values that are not integers: rule -> (the check
# that owns it, every public caller that must reach it), each given the value
INTEGER_RULES = {
    "seed": (
        check_seed,
        {
            "PermutationPlan": lambda value: PermutationPlan(master_seed=value, n_permutations=10),
            "StudyConfig": lambda value: StudyConfig(master_seed=value),
            "random_composite": lambda value: random_composite("normal", 30, 0.0, value),
            "run_cell": lambda value: run_cell("normal", 30, 0.0, 5, 20, 0.05, value),
        },
    ),
    "permutations": (
        check_permutations,
        {
            "PermutationPlan": lambda value: PermutationPlan(master_seed=1, n_permutations=value),
            "StudyConfig": lambda value: StudyConfig(permutations=value),
            "run_cell": lambda value: run_cell("normal", 30, 0.0, 5, value, 0.05, 1),
        },
    ),
    "replicates": (
        check_replicates,
        {
            "StudyConfig": lambda value: StudyConfig(replicates=value),
            "run_cell": lambda value: run_cell("normal", 30, 0.0, value, 20, 0.05, 1),
        },
    ),
}
NOT_INTEGERS = [1.5, 3.0, np.float64(3)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=["1.5", "3.0", "float64-3"])
@pytest.mark.parametrize(
    "rule,name", [("seed", "master_seed"), ("permutations", "permutations"), ("replicates", "replicates")]
)
def test_seeds_and_counts_must_be_integers(rule, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        INTEGER_RULES[rule][0](value)


@pytest.mark.parametrize(
    "rule,caller",
    [(rule, caller) for rule, (_, callers) in INTEGER_RULES.items() for caller in callers],
)
def test_each_caller_rejects_non_integers_with_one_message(rule, caller):
    """3.0 used to run and be written to reports as a float; 1.5 failed
    late or was truncated by the seed mixing."""
    owner, callers = INTEGER_RULES[rule]
    for value in NOT_INTEGERS:
        with pytest.raises(TypeError) as expected:
            owner(value)
        with pytest.raises(TypeError) as raised:
            callers[caller](value)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("integer", [int, np.int32, np.int64, np.uint64])
def test_python_and_numpy_integers_pass(integer):
    check_seed(integer(7))
    check_permutations(integer(7))
    check_replicates(integer(7))
    null = simulate_null([0.5, 2.0, -1.0, 4.0], PermutationPlan(integer(7), integer(5)))
    plain = simulate_null([0.5, 2.0, -1.0, 4.0], PermutationPlan(7, 5))
    assert null.msi_values.tobytes() == plain.msi_values.tobytes()


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
