import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_cell_tests
from test_kernels import record_tiles
from permspec import (
    PowerTable,
    StudyConfig,
    TimeSeries,
    desk_scale_config,
    kernels,
    load_table,
    permutation,
    power,
    random_composite,
    rng,
    run_cell,
    run_grid,
    save_table,
)
from permspec.permutation import DECISION_BLOCK, DECISION_ROUND_BYTES, _round_rows, decision_group
from permspec.power import render_table
from permspec.rng import position_type, seed_chain


def tiny_config(**overrides):
    defaults = dict(
        distributions=("normal",),
        n_values=(12,),
        snr_values=(0.0, 1.5),
        replicates=40,
        permutations=50,
        alpha=0.05,
        master_seed=7,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestStudyConfigValidation:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(distributions=("normal", "normal")), "duplicate distribution"),
            (dict(n_values=(12, 30, 12)), "duplicate n"),
            (dict(snr_values=(0.0, 0.4, 0.4)), "duplicate lambda"),
            (dict(n_values=(2, 12)), "at least 3"),
            (dict(snr_values=(0.0, -0.5)), "lambda must be finite"),
            (dict(snr_values=(0.0, float("inf"))), "lambda must be finite"),
            (dict(snr_values=(float("nan"),)), "lambda must be finite"),
            (dict(confidence=0.0), "confidence"),
            (dict(confidence=1.5), "confidence"),
            (dict(master_seed=-5), "master_seed"),
            (dict(master_seed=2**64), "master_seed"),
            (dict(replicates=0), "replicates must be >= 1"),
            (dict(permutations=0), "at least one permutation"),
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=1.0), "alpha"),
        ],
    )
    def test_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_seed_range_boundaries_accepted(self):
        assert tiny_config(master_seed=0).master_seed == 0
        assert tiny_config(master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize(
        "cell", [("normal", 31, 0.4), ("t2", 30, 0.5), ("cauchy", 30, 0.4)],
        ids=["n", "lambda", "distribution"],
    )
    def test_cell_seed_only_for_cells_in_the_grid(self, cell):
        """A cell outside the grid has no seed: an n off the grid used to get
        one, and a lambda failed inside tuple.index."""
        config = desk_scale_config(0)
        distribution, n, snr = cell
        with pytest.raises(ValueError, match=rf"^no cell \('{distribution}', n={n}, lambda={snr}\)"):
            config.cell_seed(distribution, n, snr)
        assert config.cell_seed("normal", 30, 0.4) == seed_chain(0, 1, 30, 1)


class TestRunCell:
    def test_deterministic_given_cell_seed(self):
        kwargs = dict(distribution="normal", n=12, snr=0.5, replicates=25,
                      permutations=40, alpha=0.05, cell_seed=99)
        assert run_cell(**kwargs) == run_cell(**kwargs)

    def test_rejects_no_permutations(self):
        with pytest.raises(ValueError, match="at least one permutation"):
            run_cell("normal", 10, 0.0, replicates=3, permutations=0, alpha=0.05, cell_seed=1)

    def test_counts_are_consistent(self):
        cell = run_cell("t2", 10, 0.0, replicates=30, permutations=25,
                        alpha=0.1, cell_seed=5)
        assert 0 <= cell.rejections <= 30
        assert cell.power == cell.rejections / 30
        assert 0.0 <= cell.wilson_low <= cell.power <= cell.wilson_high <= 1.0

    def test_null_cell_rejects_near_alpha(self):
        cell = run_cell("normal", 15, 0.0, replicates=400, permutations=60,
                        alpha=0.05, cell_seed=1)
        spread = 3 * math.sqrt(0.05 * 0.95 / 400)
        assert abs(cell.power - 0.05) < spread + 1 / 60, (
            f"null rejection rate {cell.power:.4f} too far from 0.05"
        )

    def test_strong_signal_has_high_power(self):
        cell = run_cell("normal", 30, 2.0, replicates=60, permutations=100,
                        alpha=0.05, cell_seed=2)
        assert cell.power > 0.8

    @pytest.mark.parametrize(
        "distribution,n,snr,expected",
        [("normal", 120, 0.6, 0.8506), ("t2", 240, 0.4, 0.4418)],
    )
    def test_reference_mid_grid_estimates(self, distribution, n, snr, expected):
        """Longer-series spot checks against the frozen reference estimates."""
        cell = run_cell(distribution, n, snr, replicates=500, permutations=200,
                        alpha=0.05, cell_seed=314159)
        assert cell.power == pytest.approx(expected, abs=0.08), (
            f"{distribution} n={n} lambda={snr}: power {cell.power:.4f} "
            f"vs reference {expected:.4f}"
        )


class TestEarlyDecisions:
    """run_cell stops each replicate once its decision is settled, yet
    rejects exactly the replicates whose full test has p_value <= alpha."""

    @staticmethod
    def reference_rejections(distribution, n, snr, replicates, permutations, alpha, cell_seed):
        tests = reference_cell_tests(distribution, n, snr, replicates, permutations, cell_seed)
        return tests, sum(test.p_value <= alpha for test in tests)

    @pytest.mark.parametrize("alpha,edge", [(0.29, 29), (0.57, 57)])
    def test_rejecting_count_is_the_p_value_rules_own(self, alpha, edge):
        """At M=100, 29/100 <= 0.29 and 57/100 <= 0.57, but floor(alpha*M) is
        one less: a cell with replicates at exactly ``edge`` exceedances
        tells the two rules apart."""
        assert math.floor(alpha * 100) == edge - 1 and edge / 100 <= alpha
        tests, expected = self.reference_rejections("normal", 8, 0.0, 300, 100, alpha, cell_seed=1)
        assert any(test.exceedances == edge for test in tests)
        assert run_cell("normal", 8, 0.0, 300, 100, alpha, cell_seed=1).rejections == expected

    @pytest.mark.parametrize(
        "distribution,n,snr,replicates,permutations,alpha",
        [
            pytest.param("normal", 30, 1.5, 60, 100, 0.005, id="alpha-below-1/M"),
            pytest.param("t2", 12, 0.0, 50, 100, 0.999, id="alpha-0.999"),
            pytest.param("normal", 10, 1.0, 40, 1, 0.5, id="M-1"),
            pytest.param("t2", 10, 1.0, 40, 7, 0.3, id="M-7"),
            pytest.param("normal", 10, 1.0, 40, 26, 0.05, id="M-26"),
            pytest.param("normal", 8, 0.8, 1, 100, 0.05, id="K-1"),
            pytest.param("normal", 8, 0.8, decision_group(8, 100) + 1, 100, 0.2, id="K-one-past-a-group"),
        ],
    )
    def test_rejections_equal_the_full_tests(self, distribution, n, snr, replicates, permutations, alpha):
        _, expected = self.reference_rejections(distribution, n, snr, replicates, permutations, alpha, 11)
        cell = run_cell(distribution, n, snr, replicates, permutations, alpha, cell_seed=11)
        assert cell.rejections == expected


class TestBatching:
    """A cell's count is a pure function of its seeds: how its replicates
    are grouped into :func:`count_rejections` calls and its rows into
    gather tiles changes nothing."""

    CELLS = {
        "t2": ("t2", 30, 0.4, 60, 100, 0.05, 4),
        "alpha-0.29-edge": ("normal", 8, 0.0, 300, 100, 0.29, 1),
    }

    @staticmethod
    def group(monkeypatch, tests, n, permutations):
        """Budget rounds so that a group holds ``tests`` tests.  A round
        takes all M rows where they pass ``DECISION_ROUND_BYTES``, up to
        ``ROW_BLOCK_BYTES``, so groups below M/25 tests need both budgets."""
        budget = tests * min(DECISION_BLOCK, permutations) * n * position_type(n).itemsize
        monkeypatch.setattr(permutation, "DECISION_ROUND_BYTES", budget)
        monkeypatch.setattr(permutation, "ROW_BLOCK_BYTES", budget)
        assert decision_group(n, permutations) == tests

    @pytest.mark.parametrize("cell", CELLS)
    def test_counts_do_not_depend_on_the_batching(self, monkeypatch, cell):
        """One-test groups, groups of 7 (K is no multiple of 7, so the last
        group is partial), all K in one group, and one-row tiles.  A round
        of M=100 gathers 25 rows of each test, so a tile of more rows holds
        several tests: groups of 7 and of K have such tiles, one-test
        groups none."""
        args = self.CELLS[cell]
        _, n, _, replicates, permutations, _, _ = args
        assert replicates % 7 and min(DECISION_BLOCK, permutations) == 25
        expected = run_cell(*args)
        for tests in (1, 7, replicates):
            with monkeypatch.context() as patch:
                self.group(patch, tests, n, permutations)
                tiles = record_tiles(patch)
                assert run_cell(*args) == expected, tests
                assert (max(tiles) > 25) == (tests > 1), (tests, max(tiles))
        monkeypatch.setattr(kernels, "TILE_BYTES", 1)
        tiles = record_tiles(monkeypatch)
        assert run_cell(*args) == expected
        assert set(tiles) == {1}

    @pytest.mark.parametrize("permutations", [7, 100])
    def test_a_round_shuffles_its_rows_once(self, monkeypatch, permutations):
        """Each round shuffles one set of at most ``min(DECISION_BLOCK, M)``
        rows, through ``rng.permutation_rows``, and the kernel gathers every
        undecided test of the group from those very rows: the shuffled rows
        are never one set per test.  60 replicates make one group."""
        shuffled, scored = [], []
        shuffle, null_msi = rng.permutation_rows, kernels.null_msi

        def recorded_shuffle(n, seeds, buffers):
            shuffled.append(len(seeds))
            return shuffle(n, seeds, buffers)

        def recorded_null_msi(units, positions, scales, buffers):
            scored.append((len(units), len(positions)))
            return null_msi(units, positions, scales, buffers)

        monkeypatch.setattr(rng, "permutation_rows", recorded_shuffle)
        monkeypatch.setattr(kernels, "null_msi", recorded_null_msi)
        assert decision_group(30, permutations) >= 60
        run_cell("t2", 30, 0.4, 60, permutations, 0.05, cell_seed=4)
        block = min(DECISION_BLOCK, permutations)
        assert shuffled and max(shuffled) <= block
        assert [size for _, size in scored] == shuffled
        assert scored[0] == (60, block)


class TestBlockReplicates:
    """run_cell builds its replicates a block at a time, as arrays, and
    they are exactly the replicates of the one-series API."""

    @staticmethod
    def spy(monkeypatch, name, calls):
        original = getattr(power, name)

        def recorded(*args):
            result = original(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(power, name, recorded)

    @pytest.mark.parametrize("snr", [0.0, 0.4])
    @pytest.mark.parametrize("n", [3, 30, 61])
    @pytest.mark.parametrize("distribution", ["normal", "t2"])
    def test_rows_are_the_one_series_replicates(self, monkeypatch, distribution, n, snr):
        """Every row equals ``random_composite(...).series.values`` bit for
        bit, its unit, variance and exponent equal ``TimeSeries.spread()``,
        and its scale is their msi_scale; every block is tested at the
        cell's one test seed ``seed_chain(cell_seed, 1)``, which no noise
        seed equals.  K ends in a partial block."""
        permutations, cell_seed = 20, 77
        block = decision_group(n, permutations)
        replicates = 2 * block + 3 if block < 100 else block + 3
        blocks, spreads, decisions = [], [], []
        self.spy(monkeypatch, "composite_block", blocks)
        self.spy(monkeypatch, "spread_rows", spreads)
        self.spy(monkeypatch, "count_rejections", decisions)
        run_cell(distribution, n, snr, replicates, permutations, 0.05, cell_seed)

        assert [len(result[0]) for _, result in blocks] == [block] * (replicates // block) + [replicates % block]
        values = np.concatenate([result[0] for _, result in blocks])
        units, variances, exponents = (np.concatenate(parts) for parts in zip(*(result for _, result in spreads)))
        scales = np.concatenate([args[1] for args, _ in decisions])
        test_seed = seed_chain(cell_seed, 1)
        assert [args[2] for args, _ in decisions] == [test_seed] * len(blocks)
        np.testing.assert_array_equal(np.concatenate([args[0] for args, _ in decisions]), units)
        for r in range(replicates):
            series = random_composite(distribution, n, snr, seed=seed_chain(cell_seed, r, 0)).series
            assert values[r].tobytes() == series.values.tobytes()
            unit, variance, exponent = series.spread()
            assert units[r].tobytes() == unit.tobytes()
            assert (variances[r], exponents[r]) == (variance, exponent)
            assert scales[r] == kernels.msi_scale(n, variance)
            assert seed_chain(cell_seed, r, 0) != test_seed

    @pytest.mark.parametrize(
        "bad,message",
        [
            (dict(distribution="cauchy"), "distribution"),
            (dict(snr=-0.5), "lambda"),
            (dict(n=2), "at least 3"),
            (dict(alpha=1.5), "alpha"),
            (dict(alpha=-0.1), "alpha"),
            (dict(confidence=1.5), "confidence"),
            (dict(cell_seed=-1), "master_seed"),
            (dict(cell_seed=2**64), "master_seed"),
            (dict(replicates=0), "replicates"),
        ],
        ids=[
            "distribution", "negative-lambda", "n-2", "alpha-1.5", "alpha-negative",
            "confidence-1.5", "seed-negative", "seed-2**64", "replicates-0",
        ],
    )
    def test_bad_input_raises_before_any_draw(self, monkeypatch, bad, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("a Philox generator was built")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        good = dict(distribution="normal", n=30, snr=0.4, replicates=10, permutations=20, alpha=0.05, cell_seed=1)
        with pytest.raises(ValueError, match=message):
            run_cell(**{**good, **bad})

    def test_no_object_per_replicate(self, monkeypatch):
        """One Philox generator per block, and no TimeSeries at all."""
        built = {"Philox": 0, "TimeSeries": 0}
        philox, post_init = np.random.Philox, TimeSeries.__post_init__

        def counted_philox(*args, **kwargs):
            built["Philox"] += 1
            return philox(*args, **kwargs)

        def counted_post_init(self):
            built["TimeSeries"] += 1
            post_init(self)

        monkeypatch.setattr(np.random, "Philox", counted_philox)
        monkeypatch.setattr(TimeSeries, "__post_init__", counted_post_init)
        block = decision_group(30, 40)
        run_cell("t2", 30, 0.4, 2 * block + 1, 40, 0.05, cell_seed=5)
        assert built == {"Philox": 3, "TimeSeries": 0}

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64])
    def test_numpy_lengths_and_counts_size_groups_as_python_ints(self, dtype):
        """The checks accept numpy integers; the byte arithmetic must not
        overflow or wrap in their dtype (8 * 60 and 200 * 480 do in uint8)."""
        assert decision_group(dtype(60), dtype(200)) == decision_group(60, 200) == 87

    def test_rounds_are_budgeted_in_shuffled_positions(self):
        """A round's budget counts the positions it shuffles, one byte each
        up to n=256 and two from n=257, so its rows about halve there."""
        assert _round_rows(256, 1) == DECISION_ROUND_BYTES // 256
        assert _round_rows(257, 1) == DECISION_ROUND_BYTES // (2 * 257)


# the minor page faults of a second run of a call, printed by a fresh
# interpreter: the first run makes the first-call allocations
_FAULTS = """
import resource
from permspec import desk_scale_config, run_cell, run_grid

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

{first}
before = faults()
{second}
print(faults() - before)
"""


def faults_in_fresh_interpreter(first: str, second: str) -> int:
    """Minor page faults of the permspec call ``second`` after ``first``,
    counted in a fresh interpreter, as a user's run starts: in this one,
    earlier tests have grown the heap so far that no round faults, held
    buffers or not."""
    package_root = str(Path(power.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _FAULTS.format(first=first, second=second)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return int(run.stdout)


class TestMemory:
    """A cell holds one group of replicates and one round of rows at a time,
    so its peak allocation does not grow with K, nor with M while M rows
    fit the round budget; it stays within a few round sizes."""

    @staticmethod
    def peak(n, replicates, permutations):
        run_cell("normal", n, 0.0, 2, 30, 0.05, cell_seed=1)  # first-call allocations
        tracemalloc.start()
        try:
            run_cell("normal", n, 0.0, replicates, permutations, 0.05, cell_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * max(permutations * n * 8, 256 << 10)
        return peak

    def test_flat_in_replicates(self):
        # n=60, M=200: two groups of replicates against twenty
        group = decision_group(60, 200)
        assert self.peak(60, 20 * group, 200) <= 1.1 * self.peak(60, 2 * group, 200)

    def test_flat_in_permutations(self):
        # n=16: 8,192 rows of uint8 positions fill the round budget, just
        # more than M=8000 rows
        assert _round_rows(16, 8000) == _round_rows(16, 200) == 8192
        assert self.peak(16, 100, 8000) <= 1.1 * self.peak(16, 100, 200)

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
        reason="counts the minor page faults of glibc's allocator on Linux",
    )
    def test_rounds_reuse_the_cells_buffers(self):
        """Every round of a cell shuffles and scores in the arrays of its
        first.  A cell of M=1000, n=120 takes about 400-550 minor page
        faults, for the arrays it holds; one that gathers each round's rows
        into a fresh tile, which the allocator hands back to the OS between
        rounds, took about 4,700."""
        cell = 'run_cell("t2", 120, 0.6, 100, 1000, 0.05, cell_seed=6)'
        faults = faults_in_fresh_interpreter(cell, cell)
        assert faults < 2_000, faults

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
        reason="counts the minor page faults of glibc's allocator on Linux",
    )
    def test_desk_grid_does_not_fault_its_rounds_back_in(self):
        """The desk grid's cells share one set of buffers, and its rounds
        reuse memory the allocator keeps: about 200-300 minor page faults
        for its 1,600 tests.  A set of buffers per cell took about 4,700,
        and a fresh gather tile per round about 7,000."""
        faults = faults_in_fresh_interpreter(
            "run_grid(desk_scale_config(1, replicates=100))",
            "run_grid(desk_scale_config(2, replicates=100))",
        )
        assert faults < 3_000, faults


class TestRunGrid:
    def test_single_cell_grid_matches_run_cell(self):
        config = tiny_config(snr_values=(0.7,))
        table = run_grid(config)
        assert len(table.cells) == 1
        direct = run_cell(
            "normal", 12, 0.7, config.replicates, config.permutations,
            config.alpha, config.cell_seed("normal", 12, 0.7), config.confidence,
        )
        assert table.cells[0] == direct

    def test_grid_covers_every_combination(self):
        config = tiny_config(distributions=("normal", "t2"), replicates=5,
                             permutations=20)
        table = run_grid(config)
        assert len(table.cells) == 2 * 1 * 2
        assert table.cell("t2", 12, 1.5).distribution == "t2"
        with pytest.raises(KeyError):
            table.cell("normal", 99, 0.0)

    def test_cell_seeds_do_not_collide(self):
        config = tiny_config(distributions=("normal", "t2"), replicates=1,
                             permutations=5)
        table = run_grid(config)
        seeds = [cell.cell_seed for cell in table.cells]
        assert len(set(seeds)) == len(seeds)

    def test_progress_callback_sees_every_cell(self):
        config = tiny_config(replicates=2, permutations=5)
        seen = []
        table = run_grid(config, progress=seen.append)
        assert seen == list(table.cells)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        table = run_grid(tiny_config(replicates=6, permutations=10))
        path = tmp_path / "results.jsonl"
        save_table(table, path)
        assert load_table(path) == table

    def test_missing_cell_field_is_named(self, tmp_path):
        table = run_grid(tiny_config(replicates=2, permutations=5))
        lines = render_table(table).splitlines()
        record = json.loads(lines[1])
        del record["rejections"]
        lines[1] = json.dumps(record, sort_keys=True)
        path = tmp_path / "broken.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="rejections"):
            load_table(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/9"}\n')
        with pytest.raises(ValueError, match="schema"):
            load_table(path)

    @pytest.mark.parametrize("header", ['"text"', "[1]"])
    def test_header_other_than_an_object_rejected(self, tmp_path, header):
        """A header line holding any JSON value but an object used to raise
        AttributeError."""
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="^not a results file: expected a JSON object, got "):
            load_table(path)

    @pytest.mark.parametrize("record", ["null", "5", "string"])
    def test_cell_record_other_than_an_object_rejected(self, tmp_path, record):
        """A cell record of null or 5 used to raise TypeError, and so did a
        JSON string that holds every field name."""
        lines = render_table(run_grid(tiny_config(replicates=2, permutations=5))).splitlines()
        lines[2] = json.dumps(lines[2]) if record == "string" else record
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^cell record 2: expected a JSON object, got "):
            load_table(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match="^empty results file$"):
            load_table(path)

    def test_empty_table_round_trips(self, tmp_path):
        table = PowerTable(config=tiny_config())
        path = tmp_path / "empty.jsonl"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.cells == ()
        assert loaded.config == table.config

    def test_numpy_numbers_write_the_python_file(self, tmp_path):
        """Seeds, counts and grids given as numpy scalars, which the checks
        accept, write the bytes the same Python numbers write."""
        numbers = dict(replicates=3, permutations=40, n_values=(30, 60), snr_values=(0.0, 0.6))
        as_numpy = dict(
            replicates=np.int64(3), permutations=np.uint16(40),
            n_values=(np.int64(30), np.uint8(60)), snr_values=(np.float64(0.0), np.float64(0.6)),
        )
        table = run_grid(desk_scale_config(np.uint64(2), **as_numpy))
        assert render_table(table) == render_table(run_grid(desk_scale_config(2, **numbers)))
        path = tmp_path / "numpy.jsonl"
        save_table(table, path)
        assert load_table(path) == table
        # a uint8 K is too narrow for the Wilson bounds' 4 * K**2
        narrow = dict(n_values=(30,), snr_values=(0.0,), permutations=20)
        narrow_table = run_grid(desk_scale_config(1, replicates=np.uint8(200), **narrow))
        python_table = run_grid(desk_scale_config(1, replicates=200, **narrow))
        assert render_table(narrow_table) == render_table(python_table)

    def test_float_fields_round_trip_exactly(self, tmp_path):
        table = run_grid(tiny_config(replicates=7, permutations=11))
        path = tmp_path / "exact.jsonl"
        save_table(table, path)
        loaded = load_table(path)
        for original, parsed in zip(table.cells, loaded.cells):
            assert parsed.wilson_low == original.wilson_low
            assert parsed.wilson_high == original.wilson_high
            assert parsed.power == original.power
