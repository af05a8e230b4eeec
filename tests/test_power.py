import json
import math

import pytest

from permspec import (
    PowerTable,
    StudyConfig,
    load_table,
    run_cell,
    run_grid,
    save_table,
)
from permspec.power import render_table


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
        ],
    )
    def test_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_seed_range_boundaries_accepted(self):
        assert tiny_config(master_seed=0).master_seed == 0
        assert tiny_config(master_seed=2**64 - 1).master_seed == 2**64 - 1


class TestRunCell:
    def test_deterministic_given_cell_seed(self):
        kwargs = dict(distribution="normal", n=12, snr=0.5, replicates=25,
                      permutations=40, alpha=0.05, cell_seed=99)
        assert run_cell(**kwargs) == run_cell(**kwargs)

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

    def test_empty_table_round_trips(self, tmp_path):
        table = PowerTable(config=tiny_config())
        path = tmp_path / "empty.jsonl"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.cells == ()
        assert loaded.config == table.config

    def test_float_fields_round_trip_exactly(self, tmp_path):
        table = run_grid(tiny_config(replicates=7, permutations=11))
        path = tmp_path / "exact.jsonl"
        save_table(table, path)
        loaded = load_table(path)
        for original, parsed in zip(table.cells, loaded.cells):
            assert parsed.wilson_low == original.wilson_low
            assert parsed.wilson_high == original.wilson_high
            assert parsed.power == original.power
