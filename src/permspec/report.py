"""Machine-readable test reports.

A report is a single JSON object with a schema tag.  Serialisation is
canonical (sorted keys, fixed separators, trailing newline, no
timestamps) so identical results produce byte-identical files, and float
fields round-trip exactly through repr.
"""

from __future__ import annotations

import json

import numpy as np

from .permutation import TestResult

REPORT_SCHEMA = "permspec-test-report/1"

# report key -> TestResult attribute: the one field list that both writes
# and reads the format
_FIELDS = {
    "observed_msi": "observed_msi",
    "peak_frequency": "peak_frequency",
    "p_value": "p_value",
    "wilson_low": "wilson_low",
    "wilson_high": "wilson_high",
    "exceedances": "exceedances",
    "permutations": "n_permutations",
    "master_seed": "master_seed",
    "n": "n",
    "confidence": "confidence",
}


def to_record(obj, fields: dict[str, str]) -> dict:
    """The JSON record of ``obj`` through a file key -> attribute map."""
    return {key: _plain(getattr(obj, attribute)) for key, attribute in fields.items()}


def _plain(value):
    """``value`` with numpy scalars, also inside a tuple, as the Python
    numbers they equal, which json writes as it writes those numbers."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value.item() if isinstance(value, np.generic) else value


def from_record(cls, record: dict, fields: dict[str, str], what: str):
    """Build ``cls`` from a parsed JSON record through the same map."""
    for key in fields:
        if key not in record:
            raise ValueError(f"{what} is missing field {key!r}")
    return cls(**{attribute: record[key] for key, attribute in fields.items()})


def render_report(result: TestResult) -> str:
    payload = {"schema": REPORT_SCHEMA, **to_record(result, _FIELDS)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(result: TestResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_report(result))


def parse_report(text: str) -> TestResult:
    payload = json.loads(text)
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"unsupported report schema {payload.get('schema')!r}, expected {REPORT_SCHEMA!r}"
        )
    return from_record(TestResult, payload, _FIELDS, "report")


def read_report(path) -> TestResult:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_report(handle.read())
