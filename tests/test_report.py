import numpy as np
import pytest

from permspec import (
    PermutationPlan,
    parse_report,
    read_report,
    render_report,
    run_test,
    write_report,
)


@pytest.fixture
def result():
    series = np.random.default_rng(18).standard_normal(24)
    return run_test(series, PermutationPlan(master_seed=6, n_permutations=120))


def test_round_trip_is_lossless(result, tmp_path):
    path = tmp_path / "report.json"
    write_report(result, path)
    assert read_report(path) == result


def test_rendering_is_byte_stable(result):
    assert render_report(result) == render_report(result)


def test_contains_every_required_field(result):
    text = render_report(result)
    for key in (
        "observed_msi", "peak_frequency", "p_value", "wilson_low",
        "wilson_high", "permutations", "master_seed", "n", "confidence",
        "schema",
    ):
        assert f'"{key}"' in text


def test_unknown_schema_rejected():
    with pytest.raises(ValueError, match="schema"):
        parse_report('{"schema": "not-a-report/0"}')


@pytest.mark.parametrize("text", ["[1]", "null", '"x"'])
def test_json_other_than_an_object_rejected(text):
    """Any JSON value but an object used to raise AttributeError."""
    with pytest.raises(ValueError, match="^not a report file: expected a JSON object, got "):
        parse_report(text)


def test_missing_field_is_named(result):
    text = render_report(result).replace('"p_value"', '"pee_value"')
    with pytest.raises(ValueError, match="p_value"):
        parse_report(text)


def test_numpy_integers_write_the_python_report():
    """A seed and a count given as numpy integers, which the checks accept,
    write the bytes the same Python ints write."""
    series = np.random.default_rng(18).standard_normal(24)
    result = run_test(series, PermutationPlan(np.uint64(5), np.int64(3)))
    text = render_report(result)
    assert text == render_report(run_test(series, PermutationPlan(5, 3)))
    assert parse_report(text) == result
