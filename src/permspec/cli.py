"""Command-line interface.

Subcommands:

* ``test``        run the permutation spectrum test on a CSV column
* ``power-study`` run the simulation grid and write a results file
* ``simulate``    generate a composite signal+noise series as CSV

Every command is deterministic given its flags and ``--seed``; outputs
carry no timestamps.  Exit codes: 0 success, 1 domain/file error,
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import signal
import sys
import time
from datetime import timedelta

from . import __version__
from .errors import CsvParseError
from .permutation import PermutationPlan, check_confidence, simulate_null, summarize_test
from .plotting import render_plot
from .power import StudyConfig, desk_scale_config, full_scale_config, render_table, run_grid
from .report import render_report, write_report
from .series import TimeSeries
from .signals import DISTRIBUTIONS, CompositeSeries, random_composite
from .spectral import analyze_spectrum


def _column_index(column: str | int) -> int | None:
    """The 0-based index that ``column`` selects, or None for a header name."""
    if isinstance(column, int) or column.lstrip("-").isdigit():
        index = int(column)
        if index < 0:
            raise ValueError(f"column index must be >= 0, got {index}")
        return index
    return None


def ingest_csv(path, column: str | int = 0) -> TimeSeries:
    """Read one numeric column into a TimeSeries, in file row order.

    ``column`` may be a 0-based index or a header name.  A header row is
    detected by the selected cell not parsing as a number.  Any missing or
    non-numeric data cell is an error naming its 1-based file row.  A
    UTF-8 byte-order mark, which spreadsheets write, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        # keep original 1-based row numbers; skip rows with no cells at all
        rows = [
            (number, row)
            for number, row in enumerate(csv.reader(handle), start=1)
            if row
        ]
    if not rows:
        raise CsvParseError(str(path), 1, "file contains no data")

    index = _column_index(column)
    name = column if index is None else None

    start = 0
    first_number, first_row = rows[0]
    if name is not None:
        header = [cell.strip() for cell in first_row]
        if name not in header:
            raise CsvParseError(
                str(path), first_number, f"column {name!r} not found in header {header}"
            )
        index = header.index(name)
        start = 1
    elif index < len(first_row):  # a missing cell is reported at its row below
        try:
            float(first_row[index])
        except ValueError:
            start = 1  # first row is a header; data begins below it

    values = []
    for row_number, row in rows[start:]:
        if index >= len(row):
            raise CsvParseError(
                str(path), row_number, f"row has no column {index}"
            )
        cell = row[index].strip()
        try:
            value = float(cell)
        except ValueError:
            raise CsvParseError(
                str(path), row_number, f"not a number: {cell!r}"
            ) from None
        if value != value or value in (float("inf"), float("-inf")):
            raise CsvParseError(
                str(path), row_number, f"non-finite value: {cell!r}"
            )
        values.append(value)
    return TimeSeries(values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permspec",
        description="Permutation spectrum test for periodic signals in a time series.",
    )
    parser.add_argument("--version", action="version", version=f"permspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="test a CSV column for a periodic signal")
    test.add_argument("input", help="CSV file with the series")
    test.add_argument("--column", default="0", help="column index or header name (default 0)")
    test.add_argument("--permutations", type=int, default=1000, metavar="M",
                      help="null simulations (default 1000)")
    test.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    test.add_argument("--confidence", type=float, default=0.95,
                      help="Wilson interval confidence level (default 0.95)")
    test.add_argument("--out-report", metavar="PATH",
                      help="write the JSON report here instead of stdout")
    test.add_argument("--out-plot", metavar="PATH", help="write the SVG test plot here")

    power = sub.add_parser("power-study", help="estimate test power over a simulation grid")
    scale = power.add_mutually_exclusive_group()
    scale.add_argument("--desk-scale", action="store_true",
                       help="small grid, seconds of runtime (default)")
    scale.add_argument("--full-scale", action="store_true",
                       help="full reference grid; about 18 minutes on one core")
    power.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    power.add_argument("--alpha", type=float, default=0.05,
                       help="significance level (default 0.05)")
    power.add_argument("--replicates", type=int, metavar="K",
                       help="override replicates per cell")
    power.add_argument("--permutations", type=int, metavar="M",
                       help="override null simulations per test")
    power.add_argument("--out", default="power-study.jsonl", metavar="PATH",
                       help="results file (default power-study.jsonl)")

    sim = sub.add_parser("simulate", help="generate a composite signal+noise series")
    sim.add_argument("--n", type=int, default=60, help="series length (default 60)")
    sim.add_argument("--distribution", choices=DISTRIBUTIONS, default="normal",
                     help="noise family (default normal)")
    sim.add_argument("--snr", type=float, default=1.0,
                     help="signal-to-noise ratio; 0 means pure noise (default 1.0)")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sim.add_argument("--out", metavar="PATH",
                     help="write the CSV here instead of stdout")
    return parser


# Each command first turns its flags into a validated configuration, before
# any I/O, so an invalid flag value is a usage error; then it runs.

def _test_plan(args) -> PermutationPlan:
    check_confidence(args.confidence)
    _column_index(args.column)
    return PermutationPlan(master_seed=args.seed, n_permutations=args.permutations)


def _cmd_test(args, plan: PermutationPlan) -> int:
    series = ingest_csv(args.input, args.column)
    analysis = analyze_spectrum(series)
    null = simulate_null(series, plan)
    result = summarize_test(analysis, null, args.confidence)
    if args.out_report:
        write_report(result, args.out_report)
    else:
        sys.stdout.write(render_report(result))
    if args.out_plot:
        render_plot(result, null, analysis, args.out_plot)
    return 0


def _study_config(args) -> StudyConfig:
    factory = full_scale_config if args.full_scale else desk_scale_config
    overrides = {"alpha": args.alpha}
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.permutations is not None:
        overrides["permutations"] = args.permutations
    return factory(master_seed=args.seed, **overrides)


def _exit_on_sigterm(signum, frame):
    """Exit with the shell's status for a SIGTERM death, 143, through the
    ``except`` and ``finally`` blocks on the way out."""
    raise SystemExit(128 + signum)


def _cmd_power_study(args, config: StudyConfig) -> int:
    # The ETA weighs each test by its length n, which its cost roughly
    # follows, and assumes the rest of the grid runs at the rate so far.
    cells_per_n = len(config.distributions) * len(config.snr_values)
    work_left = cells_per_n * config.replicates * sum(config.n_values)
    tests = work_done = 0
    started = time.perf_counter()

    def progress(cell):
        nonlocal tests, work_done, work_left
        elapsed = max(time.perf_counter() - started, 1e-9)
        tests += cell.replicates
        work_done += cell.replicates * cell.n
        work_left -= cell.replicates * cell.n
        eta = timedelta(seconds=round(elapsed * work_left / work_done))
        sys.stdout.write(
            f"{cell.distribution:>6}  n={cell.n:<4d} lambda={cell.snr:<4g} "
            f"power={cell.power:.4f}  [{cell.wilson_low:.4f}, {cell.wilson_high:.4f}]  "
            f"{tests / elapsed:.0f} tests/s  ETA {eta}\n"
        )
        sys.stdout.flush()

    # The results go to a file beside --out, created before the first cell
    # so that an unwritable path fails before any work, and moved onto
    # --out once complete, so that a failed run leaves an earlier file as it was.
    # No file can be moved onto a directory.
    if os.path.isdir(args.out):
        raise IsADirectoryError(f"--out names a directory: {args.out}")
    # SIGTERM, as from `timeout` or a batch system, exits through the same
    # cleanup, also while open() is creating the partial file.
    partial = f"{args.out}.partial"
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            table = run_grid(config, progress=progress)
            handle.write(render_table(table))
        os.replace(partial, args.out)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # open() failed before creating it
            os.remove(partial)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    sys.stdout.write(f"wrote {len(table.cells)} cells to {args.out}\n")
    return 0


def _simulate_composite(args) -> CompositeSeries:
    # generating the series reads and writes no file, and checks every flag
    return random_composite(args.distribution, args.n, args.snr, args.seed)


def _cmd_simulate(args, composite: CompositeSeries) -> int:
    lines = [repr(float(value)) for value in composite.series.values]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        sys.stdout.write(
            f"wrote n={args.n} {args.distribution} series "
            f"(snr={args.snr:g}, frequency={composite.signal.frequency:.6f}) to {args.out}\n"
        )
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "test": (_test_plan, _cmd_test),
        "power-study": (_study_config, _cmd_power_study),
        "simulate": (_simulate_composite, _cmd_simulate),
    }
    configure, run = commands[args.command]
    try:
        config = configure(args)
    except ValueError as error:
        parser.error(str(error))
    try:
        return run(args, config)
    except (ValueError, OSError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
