"""The benchmark's workloads: inputs made from the seed, one round of
closed-loop operations (one caller; the next call starts when the
previous one returns), and the checks of every output.

A round is the workload's fixed unit of work; run.py repeats rounds for
the measured time.  ``run_round`` calls ``between_ops`` before its
first operation and after each operation, outside their timing.
``check`` returns one failure reason (or None) per operation of the
round.
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

# Decision level used for power.decision_perm_frac where the workload
# itself has none (the power study brings its own alpha).
ALPHA = 0.05

# A power-desk cell passes when the Wilson interval of its power at this
# confidence meets the acceptance suite's band around its reference
# (TABLE1 +- POWER_TOLERANCE, or ALPHA +- NULL_TOLERANCE for lambda=0).
# Testing the point estimate against the band fails a correct program on
# about one grid in twenty for seeds other than the suite's: the frozen
# references sit up to ~0.023 from this program's mean power, and one
# K=500 estimate has a standard error up to ~0.022.
CELL_CONFIDENCE = 0.95


def derive_seed(*parts) -> int:
    """64-bit seed from the benchmark seed and labels; no permspec code."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Round:
    latencies_s: list[float] = field(default_factory=list)  # wall time, one per operation
    cpu_s: list[float] = field(default_factory=list)  # process CPU time, one per operation
    # Operations of the same kind do the same amount of work.
    kinds: list = field(default_factory=list)
    wall_s: float = 0.0
    outputs: list = field(default_factory=list)  # compared traced vs untraced
    errors: dict[int, str] = field(default_factory=dict)  # operation -> exception


def _nothing() -> None:
    pass


def _record_error(round_: Round, op: int) -> None:
    text = traceback.format_exc()
    if not round_.errors:
        sys.stderr.write(text)
    round_.errors[op] = text.strip().splitlines()[-1]


def _guarded(check, *args):
    """Run one output check; output it cannot read is a failure, not a crash."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, ET.ParseError) as error:
        return f"malformed output: {error!r}"


def _reference_null(slot: int, values: np.ndarray, seed: int, permutations: int) -> np.ndarray | None:
    """The reference null for the first operation of each round only: it
    costs about as much as the test itself, and checking every operation
    would double the length of a run."""
    return reference.null_msi(values, seed, permutations) if slot == 0 else None


def _check_test_result(report: bytes, n: int, permutations: int, master_seed: int,
                       intensity: np.ndarray, null: np.ndarray | None) -> str | None:
    """Shared checks of one permutation test's JSON report.

    ``intensity`` is the reference spectrum (k = 1 .. n//2); ``null`` the
    reference null values for the operation's plan, or None to skip the
    exceedance bracket.
    """
    fields = json.loads(report)
    if (fields["n"], fields["permutations"], fields["master_seed"]) != (n, permutations, master_seed):
        return f"echoed inputs differ: {fields['n']}, {fields['permutations']}, {fields['master_seed']}"
    exceedances = fields["exceedances"]
    if fields["p_value"] != exceedances / permutations:
        return f"p_value {fields['p_value']!r} != {exceedances}/{permutations}"
    observed = float(intensity.max())
    if not reference.msi_close(fields["observed_msi"], observed):
        return f"observed MSI {fields['observed_msi']!r} vs reference {observed!r}"
    k = round(fields["peak_frequency"] * n)
    folded = min(k, n - k)
    if not 1 <= folded <= n // 2 or not reference.msi_close(float(intensity[folded - 1]), observed):
        return f"peak frequency {fields['peak_frequency']!r} is not a maximum"
    if null is None:
        return None
    low, high = reference.exceedance_bracket(observed, null)
    if not low <= exceedances <= high:
        return f"exceedances {exceedances} outside reference bracket [{low}, {high}]"
    return None


class CliTest:
    """``permspec test`` in-process on one CSV, new permutation seed per call."""

    name = "cli-test"
    ops_per_round = 10
    tests_per_round = 10
    n = 240
    permutations = 1000
    alpha = ALPHA

    def __init__(self, root: Path, workdir: Path, seed: int):
        from permspec import signals

        self.seed = seed
        self.workdir = workdir
        composite = signals.random_composite("normal", self.n, 0.6, derive_seed(self.name, seed, "series"))
        cells = [f"{value:.2f}" for value in composite.series.values]  # ties, like rounded readings
        self.csv = workdir / "series.csv"
        self.csv.write_text("\n".join(cells) + "\n", encoding="utf-8")
        self.values = np.array([float(cell) for cell in cells])
        self.intensity = reference.direct_intensities(self.values)

    def op_seed(self, op: int) -> int:
        return derive_seed(self.name, self.seed, op)

    def run_round(self, index: int, tag: str, between_ops=_nothing) -> Round:
        from permspec import cli

        result = Round()
        between_ops()
        for slot in range(self.ops_per_round):
            op = index * self.ops_per_round + slot
            report = self.workdir / f"{tag}-{slot}.json"
            plot = self.workdir / f"{tag}-{slot}.svg"
            argv = ["test", str(self.csv), "--permutations", str(self.permutations),
                    "--seed", str(self.op_seed(op)), "--out-report", str(report), "--out-plot", str(plot)]
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
                _record_error(result, slot)
            result.cpu_s.append(time.process_time() - start_cpu)
            result.latencies_s.append(time.perf_counter() - start)
            result.kinds.append(None)
            between_ops()
            outputs = [code]
            for path in (report, plot):
                outputs.append(path.read_bytes() if path.exists() else None)
                path.unlink(missing_ok=True)
            result.outputs.append(tuple(outputs))
        result.wall_s = sum(result.latencies_s)
        return result

    def check(self, index: int, result: Round) -> list[str | None]:
        reasons = []
        for slot, (code, report, plot) in enumerate(result.outputs):
            if slot in result.errors or code != 0:
                reasons.append(result.errors.get(slot, f"exit code {code}"))
                continue
            seed = self.op_seed(index * self.ops_per_round + slot)
            reasons.append(
                _guarded(_check_test_result, report, self.n, self.permutations, seed,
                         self.intensity, _reference_null(slot, self.values, seed, self.permutations))
                or _guarded(_check_svg, plot, self.n)
            )
        return reasons


def _check_svg(plot: bytes, n: int) -> str | None:
    svg = ET.fromstring(plot)
    if not svg.tag.endswith("svg"):
        return f"plot root is {svg.tag}, not svg"
    bars = sum(1 for el in svg.iter() if el.get("class") == "intensity-bar")
    markers = sum(1 for el in svg.iter() if el.get("class") == "observed-msi")
    if bars != n // 2 or markers != 2:
        return f"plot has {bars} intensity bars and {markers} observed markers"
    return None


class LongSeries:
    """``run_test`` on one n=5000 t2-noise series, new plan seed per call."""

    name = "long-series"
    ops_per_round = 4
    tests_per_round = 4
    n = 5000
    permutations = 1000
    alpha = ALPHA

    def __init__(self, root: Path, workdir: Path, seed: int):
        from permspec import signals

        self.seed = seed
        self.series = signals.random_composite("t2", self.n, 0.0, derive_seed(self.name, seed, "series")).series
        self.values = np.array(self.series.values)
        self.intensity = reference.direct_intensities(self.values)

    def op_seed(self, op: int) -> int:
        return derive_seed(self.name, self.seed, op)

    def run_round(self, index: int, tag: str, between_ops=_nothing) -> Round:
        from permspec import permutation, report

        result = Round()
        between_ops()
        for slot in range(self.ops_per_round):
            plan = permutation.PermutationPlan(
                master_seed=self.op_seed(index * self.ops_per_round + slot),
                n_permutations=self.permutations,
            )
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                test = permutation.run_test(self.series, plan)
            except Exception:
                test = None
                _record_error(result, slot)
            result.cpu_s.append(time.process_time() - start_cpu)
            result.latencies_s.append(time.perf_counter() - start)
            result.kinds.append(None)
            between_ops()
            result.outputs.append(None if test is None else report.render_report(test).encode())
        result.wall_s = sum(result.latencies_s)
        return result

    def check(self, index: int, result: Round) -> list[str | None]:
        reasons = []
        for slot, rendered in enumerate(result.outputs):
            if rendered is None:
                reasons.append(result.errors.get(slot, "no result"))
                continue
            seed = self.op_seed(index * self.ops_per_round + slot)
            reasons.append(_guarded(_check_test_result, rendered, self.n, self.permutations,
                                    seed, self.intensity,
                                    _reference_null(slot, self.values, seed, self.permutations)))
        return reasons


def _frozen_power_reference(root: Path) -> dict:
    """TABLE1, POWER_TOLERANCE, NULL_TOLERANCE and ALPHA as frozen in the
    acceptance suite."""
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TABLE1", "POWER_TOLERANCE", "NULL_TOLERANCE", "ALPHA"):
                names[node.targets[0].id] = ast.literal_eval(node.value)
    return names


class PowerDesk:
    """The desk-scale power grid, then its results file.

    A round is one grid (16 cells, K=500, M=200, n in {30, 60}); an
    operation is one cell, timed from the grid's progress callback.
    """

    name = "power-desk"
    ops_per_round = 16

    def __init__(self, root: Path, workdir: Path, seed: int):
        from permspec import power

        self.seed = seed
        self.workdir = workdir
        self.frozen = _frozen_power_reference(root)
        config = power.desk_scale_config(0)
        cells = len(config.distributions) * len(config.n_values) * len(config.snr_values)
        if cells != self.ops_per_round or config.alpha != self.frozen["ALPHA"]:
            raise SystemExit(f"desk-scale grid no longer matches the frozen reference: {config}")
        self.tests_per_round = cells * config.replicates
        self.alpha = config.alpha

    def config(self, index: int):
        from permspec import power

        return power.desk_scale_config(derive_seed(self.name, self.seed, index))

    def run_round(self, index: int, tag: str, between_ops=_nothing) -> Round:
        from permspec import power

        result = Round()
        config = self.config(index)
        path = self.workdir / f"{tag}-power.jsonl"
        round_start = time.perf_counter()
        between_ops()
        started = [(time.perf_counter(), time.process_time())]

        def progress(cell):
            start, start_cpu = started[-1]
            result.cpu_s.append(time.process_time() - start_cpu)
            result.latencies_s.append(time.perf_counter() - start)
            result.kinds.append((cell.distribution, cell.n))  # lambda does not change the work
            between_ops()
            started.append((time.perf_counter(), time.process_time()))

        try:
            table = power.run_grid(config, progress=progress)
            power.save_table(table, path)
        except Exception:
            _record_error(result, 0)
        result.wall_s = time.perf_counter() - round_start
        result.outputs.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
        return result

    def check(self, index: int, result: Round) -> list[str | None]:
        (text,) = result.outputs
        if text is None:
            reason = next(iter(result.errors.values()), "no results file")
            return [reason] * self.ops_per_round
        reasons = _guarded(self._check_table, index, text)
        return [reasons] * self.ops_per_round if isinstance(reasons, str) else reasons

    def _check_table(self, index: int, text: bytes) -> list[str | None] | str:
        config = self.config(index)
        lines = text.decode("utf-8").splitlines()
        header, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        grid = {(d, n, snr) for d in config.distributions for n in config.n_values for snr in config.snr_values}
        cells = [(cell["distribution"], cell["n"], cell["lambda"]) for cell in records]
        if header.get("master_seed") != config.master_seed or sorted(cells) != sorted(grid):
            return f"results header {header} with cells {cells}"
        reasons = []
        for cell in records:
            if cell["lambda"] == 0:
                target, tolerance = self.alpha, self.frozen["NULL_TOLERANCE"]
            else:
                target = self.frozen["TABLE1"][(cell["distribution"], cell["n"], cell["lambda"])]
                tolerance = self.frozen["POWER_TOLERANCE"]
            if (cell["K"], cell["M"], cell["alpha"]) != (config.replicates, config.permutations, config.alpha):
                reasons.append(f"cell parameters {cell}")
            elif cell["power"] != cell["rejections"] / cell["K"]:
                reasons.append(f"power {cell['power']!r} != {cell['rejections']}/{cell['K']}")
            else:
                low, high = reference.wilson_interval(cell["rejections"], cell["K"], CELL_CONFIDENCE)
                if high < target - tolerance or low > target + tolerance:
                    reasons.append(f"{cell['distribution']} n={cell['n']} lambda={cell['lambda']}: "
                                   f"power {cell['power']} (interval [{low:.4f}, {high:.4f}]) is not "
                                   f"within {tolerance} of reference {target}")
                else:
                    reasons.append(None)
        return reasons


WORKLOADS = {workload.name: workload for workload in (CliTest, PowerDesk, LongSeries)}
