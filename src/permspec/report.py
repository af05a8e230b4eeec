"""Machine-readable test reports.

A report is a single JSON object with a schema tag.  Serialisation is
canonical (sorted keys, fixed separators, trailing newline, no
timestamps) so identical results produce byte-identical files, and float
fields round-trip exactly through repr.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .permutation import TestResult

REPORT_SCHEMA = "permspec-test-report/1"


def field_map(cls, renames: dict[str, str]) -> dict[str, str]:
    """The file key -> attribute map of a dataclass: every field of ``cls``,
    under ``renames[name]`` where the file names it otherwise.  The one
    field list that both writes and reads a format."""
    return {renames.get(field.name, field.name): field.name for field in dataclasses.fields(cls)}


_FIELDS = field_map(TestResult, {"n_permutations": "permutations"})


def to_record(obj, fields: dict[str, str]) -> dict:
    """The JSON record of ``obj`` through a file key -> attribute map, its
    values as they are: the file writers' ``json.dumps`` write a numpy
    scalar through :meth:`numpy.generic.item`, as the Python number it equals."""
    return {key: getattr(obj, attribute) for key, attribute in fields.items()}


def from_record(cls, record: dict, fields: dict[str, str], what: str):
    """Build ``cls`` from a parsed JSON record through the same map."""
    for key in fields:
        if key not in record:
            raise ValueError(f"{what} is missing field {key!r}")
    return cls(**{attribute: record[key] for key, attribute in fields.items()})


def render_report(result: TestResult) -> str:
    payload = {"schema": REPORT_SCHEMA, **to_record(result, _FIELDS)}
    return json.dumps(payload, sort_keys=True, indent=2, default=np.generic.item) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``"\\n"`` line ends on every
    platform: the one writer of reports, results files, plots and series."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_report(result: TestResult, path) -> None:
    write_text(path, render_report(result))


def parse_object(text: str, what: str) -> dict:
    """The JSON object in ``text``; any other JSON value raises ValueError
    naming ``what``.  The one check of a report, a results header line and
    each cell record line."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(payload).__name__}")
    return payload


def parse_tagged(text: str, schema: str, kind: str) -> dict:
    """The JSON object in ``text``, checked to carry the tag ``schema``: the
    one check of a report and of a results file's header line.  Any other
    JSON value, or another tag, raises ValueError naming the file ``kind``."""
    payload = parse_object(text, f"not a {kind} file")
    if payload.get("schema") != schema:
        raise ValueError(f"unsupported {kind} schema {payload.get('schema')!r}, expected {schema!r}")
    return payload


def parse_report(text: str) -> TestResult:
    return from_record(TestResult, parse_tagged(text, REPORT_SCHEMA, "report"), _FIELDS, "report")


def read_report(path) -> TestResult:
    return parse_report(Path(path).read_text(encoding="utf-8"))
