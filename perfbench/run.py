#!/usr/bin/env python3
"""permspec benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli-test --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each
round untraced and then traced with the same inputs, reports the
per-layer metrics from the traced rounds, and fails if any output file
differs between the two.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy sizes its thread pools when first imported, so pin them before
# anything below imports it.
os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402
from typing import NoReturn  # noqa: E402

import reference  # noqa: E402
from speed import ReferenceJob, at_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 9
SETUP_CODE = ("import time; t = time.process_time(); import permspec.cli; t = time.process_time() - t; "
              "import speed; print(t, speed.ReferenceJob().cpu_s())")
MIB = 1 << 20
MEMORY_SPANS = ("rng.permutation_rows", "kernels.null_msi")

_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def fail(message: str) -> NoReturn:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_sizes() -> dict[str, str]:
    """Cache sizes of CPU 0 as the kernel lists them, e.g. {"L1d": "48K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip() for name in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = size
    return sizes


def provenance() -> dict:
    import numpy
    import permspec
    from permspec import kernels

    source_hash = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        source_hash.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    backends = getattr(kernels, "available_backends", None)
    return {
        "git_sha": git_sha(),
        "source_sha256": source_hash.hexdigest(),
        "permspec": permspec.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache_sizes": cache_sizes(),
        "kernel_backends": list(backends()) if backends else None,
        "PERMSPEC_BACKEND": os.environ.get("PERMSPEC_BACKEND"),
        "thread_env": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def measure_setup() -> tuple[float, float, int]:
    """Median time for a fresh interpreter to import permspec.cli: CPU
    time scaled to the reference speed, and raw CPU time.  Each
    interpreter runs the reference job itself, after the import, because
    it may run on another core than the benchmark."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SOURCE), str(BENCH))))
    scaled, raw = [], []
    for attempt in range(SETUP_REPEATS + 1):  # the first one may compile bytecode
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if attempt:
            import_s, reference_s = map(float, done.stdout.split())
            scaled.append(at_reference(import_s, reference_s))
            raw.append(import_s)
    return median(scaled), median(raw), len(raw)


def check_round(workload, index: int, done) -> list[str | None]:
    """Check a round's outputs, then hand the checker's freed heap back to
    the OS (glibc ``malloc_trim``) so it does not add to the next round's
    peak RSS."""
    reasons = workload.check(index, done)
    if _malloc_trim is not None:
        _malloc_trim(0)
    return reasons


def keep_going(started: float, costs: list[float], seconds: float) -> bool:
    """Start another round only if it would end within the run's time
    even as slow as the slowest so far; ``costs`` are the wall times of
    the rounds so far, checks included."""
    return time.perf_counter() - started + max(costs) <= seconds


def operation_time(kinds: list, times: list[float], ops: int) -> float:
    """Time of an operation: the median of each kind of operation,
    averaged over a round's mix of kinds (one kind: the median)."""
    by_kind = {}
    for kind, value in zip(kinds, times):
        by_kind.setdefault(kind, []).append(value)
    return sum(median(by_kind[kind]) for kind in kinds[:ops]) / ops


def measure(workload, seconds: float) -> tuple[dict, list[str], int, list[str | None]]:
    started = time.perf_counter()
    setup_s, setup_cpu_s, setups = measure_setup()
    job = ReferenceJob()
    job_times, scaled = [], []
    costs, walls, latencies, cpu, kinds, reasons = [], [], [], [], [], []
    index = 0
    while True:
        began = time.perf_counter()
        speeds = []  # reference job CPU times: before the first operation, then after each
        done = workload.run_round(index, "plain", between_ops=lambda: speeds.append(job.cpu_s()))
        # An operation's speed is the mean of the jobs that bracket it.
        scaled.extend(at_reference(op_s, (before + after) / 2)
                      for op_s, before, after in zip(done.cpu_s, speeds[:-1], speeds[1:], strict=True))
        job_times.extend(speeds)
        reasons.extend(check_round(workload, index, done))
        costs.append(time.perf_counter() - began)
        walls.append(done.wall_s)
        latencies.extend(done.latencies_s)
        cpu.extend(done.cpu_s)
        kinds.extend(done.kinds)
        index += 1
        if not keep_going(started, costs, seconds):
            break
    ops_per_round = workload.ops_per_round
    op_s = operation_time(kinds, scaled, ops_per_round)
    metrics = {
        "setup_s": (setup_s, "s"),
        "tests_per_s_at_ref": (workload.tests_per_round / (ops_per_round * op_s), "1/s"),
        "op_ms_at_ref": (1e3 * op_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB, "MiB"),
    }
    ops = len(reasons)
    failed = sum(reason is not None for reason in reasons)

    def percentiles(label: str, values: list[float]) -> str:
        text = f"{label} over {len(values)} samples: p50 {1e3 * median(values)!r} ms, "
        if len(values) < 100:
            return text + "p90 not reported (fewer than 100)"
        return text + f"p90 {1e3 * quantiles(values, n=10, method='inclusive')[-1]!r} ms"

    notes = [
        f"setup_s: median of {setups} fresh interpreters; unscaled CPU time {setup_cpu_s!r} s",
        f"{len(walls)} rounds of {ops_per_round} operations ({workload.tests_per_round} tests); "
        f"median round {median(walls)!r} s wall; unscaled operation CPU time "
        f"{1e3 * operation_time(kinds, cpu, ops_per_round)!r} ms",
        percentiles("operation CPU time", cpu),
        percentiles("operation wall time", latencies),
        percentiles("reference job CPU time", job_times),
        f"failed_frac = {failed / ops!r} ({failed} of {ops} operations)",
    ]
    return metrics, notes, ops, reasons


def layer_targets() -> dict:
    """Span name -> package function, for every layer the trace covers."""
    from permspec import cli, kernels, permutation, plotting, power, report, rng, signals, spectral

    names = {
        rng: ("substream_seeds", "permutation_rows"),
        kernels: ("null_msi",),
        permutation: ("simulate_null", "summarize_test"),
        spectral: ("analyze_spectrum",),
        signals: ("random_composite",),
        power: ("run_cell",),
        cli: ("ingest_csv",),
        report: ("write_report",),
        plotting: ("build_plot_model", "render_plot"),
    }
    return {
        f"{module.__name__.rsplit('.', 1)[-1]}.{name}": getattr(module, name)
        for module, attributes in names.items()
        for name in attributes
        if callable(getattr(module, name, None))
    }


def measure_traced(workload, seconds: float) -> tuple[dict, list[str], int, list[str | None]]:
    started = time.perf_counter()
    targets = layer_targets()
    # Peak allocations come from a probe round of their own, because
    # tracemalloc slows the sampled calls too much to keep their times.
    probe = Tracer(memory=MEMORY_SPANS)
    with probe.patch({name: targets[name] for name in MEMORY_SPANS if name in targets}):
        workload.run_round(0, "probe")

    tracer = Tracer()
    tested, matrices, plots = [], [], []
    tracer.observers = {
        "permutation.summarize_test": lambda args, kwargs, result: tested.append(
            (result.observed_msi, args[1].msi_values)),
        "rng.permutation_rows": lambda args, kwargs, result: matrices.append((len(result), result.nbytes)),
        "plotting.render_plot": lambda args, kwargs, result: plots.append(
            os.path.getsize(kwargs.get("path", args[-1]))),
    }
    job, speeds = ReferenceJob(), []

    def measure_speed():
        speeds.append(job.cpu_s())

    plain_cpu, traced_cpu, costs, reasons = [], [], [], []
    mismatches = index = 0
    while True:
        began = time.perf_counter()
        plain = workload.run_round(index, "plain", measure_speed)
        reasons.extend(check_round(workload, index, plain))
        with tracer.patch(targets):
            traced = workload.run_round(index, "traced", measure_speed)
        if index == 0:  # the exact counts come from the first traced round only
            del tracer.observers["permutation.summarize_test"], tracer.observers["rng.permutation_rows"]
        same = [a == b for a, b in zip(plain.outputs, traced.outputs, strict=True)]
        mismatches += same.count(False)
        reasons.extend(None if ok else "traced output bytes differ from untraced" for ok in same)
        plain_cpu.append(sum(plain.cpu_s))
        traced_cpu.append(sum(traced.cpu_s))
        costs.append(time.perf_counter() - began)
        index += 1
        if not keep_going(started, costs, seconds):
            break

    rounds = len(traced_cpu)
    tests = workload.tests_per_round * rounds
    ops = workload.ops_per_round * rounds
    # Layer times are scaled by the run's median reference job, like the
    # end-to-end times are by the jobs around each operation.
    speed = median(speeds)

    def per_test_ms(name: str, self_time: bool = False) -> float:
        stats = tracer.span(name)
        return 1e3 * at_reference(stats.self_s if self_time else stats.total_s, speed) / tests

    def peak_mb(name: str) -> float:
        return probe.span(name).peak_bytes / MIB

    needed = sum(reference.decision_permutations(observed, null, workload.alpha) for observed, null in tested)
    planned = sum(null.size for _, null in tested)
    perm_rows, perm_bytes = (sum(column) for column in zip(*matrices)) if matrices else (0, 0)
    cells = tracer.span("power.run_cell")
    metrics = {
        "rng.substream_seeds_ms": (per_test_ms("rng.substream_seeds"), "ms/test"),
        "rng.permutation_rows_ms": (per_test_ms("rng.permutation_rows"), "ms/test"),
        "rng.permutation_rows_peak_mb": (peak_mb("rng.permutation_rows"), "MiB"),
        "kernels.null_msi_ms": (per_test_ms("kernels.null_msi"), "ms/test"),
        "kernels.null_msi_peak_mb": (peak_mb("kernels.null_msi"), "MiB"),
        "permutation.simulate_null_ms": (per_test_ms("permutation.simulate_null"), "ms/test"),
        "permutation.self_ms": (per_test_ms("permutation.simulate_null", self_time=True), "ms/test"),
        "permutation.summarize_test_ms": (per_test_ms("permutation.summarize_test"), "ms/test"),
        "spectral.analyze_spectrum_ms": (per_test_ms("spectral.analyze_spectrum"), "ms/test"),
        "signals.random_composite_ms": (per_test_ms("signals.random_composite"), "ms/test"),
        "power.run_cell_s": (at_reference(cells.total_s, speed) / cells.calls if cells.calls else 0.0, "s/cell"),
        "power.decision_perm_frac": (needed / planned if planned else 0.0, "fraction"),
        "cli.ingest_csv_ms": (per_test_ms("cli.ingest_csv"), "ms/test"),
        "report.write_report_ms": (per_test_ms("report.write_report"), "ms/test"),
        "plotting.build_plot_model_ms": (per_test_ms("plotting.build_plot_model"), "ms/test"),
        "plotting.render_plot_ms": (per_test_ms("plotting.render_plot"), "ms/test"),
        "plotting.svg_bytes": (median(plots) if plots else 0, "bytes"),
        "tests": (tests, "count"),
        "perm_rows": (perm_rows / workload.tests_per_round, "rows/test"),
        "perm_bytes_computed": (perm_bytes / workload.tests_per_round, "bytes/test"),
        "trace_overhead_ms": (1e3 * at_reference(sum(traced_cpu) - sum(plain_cpu), speed) / ops, "ms/op"),
    }
    failed = sum(reason is not None for reason in reasons)
    notes = [
        f"{rounds} rounds run untraced then traced with the same inputs; {mismatches} of "
        f"{ops} operations gave different output bytes",
        f"exact counts from the first traced round ({workload.tests_per_round} tests): {needed} of "
        f"{planned} permutations settle every b/M <= {workload.alpha} decision; "
        f"{perm_rows} permutation rows, {perm_bytes} bytes of permutation matrices (computed)",
        f"failed_frac = {failed / (2 * ops)!r} ({failed - mismatches} failed checks, "
        f"{mismatches} output mismatches, {2 * ops} operations)",
    ]
    return metrics, notes, 2 * ops, reasons


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if done.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="cli-test, power-desk, long-series or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="how long one run lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "permspec" / "__init__.py").is_file():
        fail(f"no permspec sources under {SOURCE}; run from a source checkout")
    if not (ROOT / "tests" / "test_acceptance.py").is_file():
        fail("tests/test_acceptance.py (the frozen power reference) is missing")
    sys.path.insert(0, str(SOURCE))
    import permspec

    if Path(permspec.__file__).resolve().parent != SOURCE / "permspec":
        fail(f"imported permspec from {permspec.__file__}, not from {SOURCE}")
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or all")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](ROOT, Path(workdir), args.seed)
        run = measure_traced if args.trace else measure
        metrics, notes, attempted, reasons = run(workload, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {name:<30} {value!r:>24} {unit}")
    for note in notes:
        print(f"{args.workload:<12} {note}")
    failures = [reason for reason in reasons if reason is not None]
    for reason in sorted(set(failures)):
        print(f"{args.workload:<12} FAILED: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
