"""Each input rule has one check, so every caller reports it in one message."""

import pytest

from permspec import NoiseSpec, StudyConfig, TimeSeries, random_composite
from permspec.cli import ingest_csv
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
