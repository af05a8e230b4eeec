import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from permspec import (
    PowerTable,
    cli,
    desk_scale_config,
    load_table,
    read_report,
    run_cell,
    run_grid,
    save_table,
)
from permspec.cli import ingest_csv, main
from permspec.errors import CsvParseError


@pytest.fixture
def noise_csv(tmp_path):
    path = tmp_path / "noise.csv"
    code = main(["simulate", "--n", "60", "--snr", "0", "--seed", "5",
                 "--out", str(path)])
    assert code == 0
    return path


class TestIngestCsv:
    def test_plain_single_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("".join(f"{i}.5\n" for i in range(60)))
        series = ingest_csv(path)
        assert series.n == 60
        assert series.values[0] == 0.5

    def test_header_with_named_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,value\n1,10.0\n2,11.5\n3,9.0\n4,10.5\n")
        series = ingest_csv(path, column="value")
        assert series.n == 4
        assert series.values[1] == 11.5

    def test_header_skipped_for_index_selector(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        assert ingest_csv(path, column=0).n == 3

    def test_na_cell_reports_its_row(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [f"{i}.0" for i in range(1, 7)] + ["NA"] + ["8.0", "9.0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match="row 7"):
            ingest_csv(path)

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\nnan\n3.0\n4.0\n")
        with pytest.raises(CsvParseError, match="row 2"):
            ingest_csv(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="at least 3"):
            ingest_csv(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            ingest_csv("/does/not/exist.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n\n")
        with pytest.raises(CsvParseError, match="row 1: file contains no data$"):
            ingest_csv(path)

    def test_missing_column_reports_the_first_row(self, tmp_path):
        """A first row without the selected column is an error at row 1,
        not a header."""
        path = tmp_path / "data.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        with pytest.raises(CsvParseError, match="no column 3") as excinfo:
            ingest_csv(path, column=3)
        assert excinfo.value.row == 1

    def test_unknown_column_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(CsvParseError, match="'c'"):
            ingest_csv(path, column="c")

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        """Excel's "CSV UTF-8" starts with a byte-order mark, which must not
        turn the first reading into a header and drop it."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.0\n3.5\n4.0\n")
        assert ingest_csv(path).values.tolist() == [1.5, 2.0, 3.5, 4.0]

    def test_byte_order_mark_before_a_header_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfx\n1.5\n2.0\n3.5\n")
        assert ingest_csv(path, column="x").values.tolist() == [1.5, 2.0, 3.5]

    def test_header_name_of_non_decimal_digits(self, tmp_path, capsys):
        """"²" is a digit to str.isdigit but not a number to int(): it names
        a header column, in the library and on the command line."""
        path = tmp_path / "data.csv"
        path.write_text("t,²\n1,0.5\n2,1.5\n3,0.25\n4,2.0\n", encoding="utf-8")
        assert ingest_csv(path, column="²").values.tolist() == [0.5, 1.5, 0.25, 2.0]
        assert main(["test", str(path), "--column", "²", "--permutations", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 4


class TestTestCommand:
    def test_report_to_stdout(self, noise_csv, capsys):
        code = main(["test", str(noise_csv), "--seed", "1", "--permutations", "200"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 60
        assert payload["permutations"] == 200
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_outputs_are_byte_identical_across_runs(self, noise_csv, tmp_path):
        args = ["test", str(noise_csv), "--seed", "1", "--permutations", "300"]
        report_a, report_b = tmp_path / "a.json", tmp_path / "b.json"
        plot_a, plot_b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(args + ["--out-report", str(report_a), "--out-plot", str(plot_a)]) == 0
        assert main(args + ["--out-report", str(report_b), "--out-plot", str(plot_b)]) == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        assert plot_a.read_bytes() == plot_b.read_bytes()

    def test_detects_injected_signal(self, tmp_path):
        data = tmp_path / "signal.csv"
        assert main(["simulate", "--n", "60", "--snr", "2.5", "--seed", "9",
                     "--out", str(data)]) == 0
        report = tmp_path / "report.json"
        assert main(["test", str(data), "--seed", "2", "--permutations", "1000",
                     "--out-report", str(report)]) == 0
        result = read_report(report)
        assert result.p_value <= 0.01

    def test_plot_is_valid_svg(self, noise_csv, tmp_path):
        plot = tmp_path / "plot.svg"
        assert main(["test", str(noise_csv), "--seed", "3", "--permutations", "150",
                     "--out-plot", str(plot)]) == 0
        root = ET.parse(plot).getroot()
        assert root.tag.endswith("svg")

    def test_domain_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("2.0\n2.0\n2.0\n2.0\n")
        code = main(["test", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_constant_with_inexact_mean_exits_one(self, tmp_path, capsys):
        """Seven 0.1s: the rounded mean leaves ~1e-17 deviations, yet the
        series is constant and has no spectrum to test."""
        path = tmp_path / "tenths.csv"
        path.write_text("0.1\n" * 7)
        report = tmp_path / "report.json"
        assert main(["test", str(path), "--out-report", str(report)]) == 1
        assert "constant series" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_file_exits_one(self, capsys):
        assert main(["test", "/nope.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["test", str(path)]) == 1
        assert "file contains no data" in capsys.readouterr().err


class TestPowerStudyCommand:
    def test_desk_scale_shrunk_writes_valid_results(self, tmp_path, capsys):
        out = tmp_path / "grid.jsonl"
        code = main(["power-study", "--seed", "4", "--replicates", "3",
                     "--permutations", "20", "--out", str(out)])
        assert code == 0
        table = load_table(out)
        assert len(table.cells) == 2 * 2 * 4  # {normal,t2} x {30,60} x 4 ratios
        for cell in table.cells:
            assert cell.replicates == 3
            assert cell.permutations == 20
        assert "wrote" in capsys.readouterr().out

    def test_progress_lines_report_throughput_and_eta(self, tmp_path, capsys):
        assert main(["power-study", "--seed", "4", "--replicates", "2",
                     "--permutations", "10", "--out", str(tmp_path / "p.jsonl")]) == 0
        lines = capsys.readouterr().out.splitlines()
        progress = re.compile(
            r" *(normal|t2)  n=\d+ +lambda=\S+ +power=\d\.\d{4}  \[\d\.\d{4}, \d\.\d{4}\]"
            r"  \d+ tests/s  ETA \d+:\d\d:\d\d"
        )
        assert len(lines) == 17 and lines[-1].startswith("wrote 16 cells")
        for line in lines[:-1]:
            assert progress.fullmatch(line), line
        assert lines[-2].endswith("ETA 0:00:00")  # nothing left after the last cell

    def test_deterministic_results_file(self, tmp_path):
        args = ["power-study", "--seed", "4", "--replicates", "2",
                "--permutations", "10"]
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    DESK = "5cd34f83884fdcf628b61cdf37354194cc734c6364ac822b80c5566a1e0696b0"

    @pytest.mark.parametrize(
        "flags,digest",
        [
            ([], DESK),
            (["--seed", "0"], DESK),
            (["--seed", "5", "--replicates", "47", "--permutations", "60"],
             "4ccdd73fdc30bd80c11e6a97faa41d69be913ac26ff54350dcbdfa525d890b8f"),
            (["--full-scale", "--replicates", "20", "--seed", "5"],
             "ea87dc5c471ae9326eb92d28028d7cdf7dcc6de378046617600a6eb4b54bef4d"),
        ],
        ids=["desk-defaults", "desk", "desk-K47", "full-scale-K20"],
    )
    def test_results_file_pinned(self, flags, digest, tmp_path):
        """Every rejection count, and so the file, is a pure function of the
        seed.  With no flags the desk grid runs at seed 0.  K=47 ends each
        cell in a partial block of replicates.  K=20 of the full grid has
        M=1000 and n up to 240; each round shuffles 25 rows once and
        gathers them for all 20 replicates."""
        out = tmp_path / "p.jsonl"
        assert main(["power-study", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_given_flags_are_forwarded(self, tmp_path):
        out, expected = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["power-study", "--seed", "3", "--alpha", "0.1", "--replicates", "20",
                     "--permutations", "50", "--out", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0])["alpha"] == 0.1
        config = desk_scale_config(3, alpha=0.1, replicates=20, permutations=50)
        save_table(run_grid(config), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_help_states_the_study_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["power-study", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "[--seed SEED]" in text
        assert "--seed SEED master seed (default 0)" in text
        assert "--alpha ALPHA significance level (default 0.05)" in text

    @staticmethod
    def no_grid(*args, **kwargs):
        raise AssertionError("a cell ran before --out was checked")

    def test_unwritable_out_exits_before_any_cell(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_grid", self.no_grid)
        out = tmp_path / "missing" / "p.jsonl"
        assert main(["power-study", "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_out_naming_a_directory_exits_before_any_cell(self, tmp_path, monkeypatch, capsys):
        """No results file can be moved onto a directory, so one at --out
        is rejected before the grid runs, and nothing is left behind."""
        monkeypatch.setattr(cli, "run_grid", self.no_grid)
        out = tmp_path / "outdir"
        out.mkdir()
        assert main(["power-study", "--out", str(out)]) == 1
        assert "names a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("failure", [OSError, KeyboardInterrupt, TypeError])
    def test_failed_run_leaves_an_earlier_results_file(self, tmp_path, monkeypatch, failure):
        """A run that fails in the grid, is interrupted, or cannot write its
        results keeps the file at --out as it was and leaves no partial file."""

        def failing_grid(config, progress=None):
            if failure is not TypeError:
                raise failure()
            cell = dataclasses.replace(run_cell("normal", 30, 0.0, 2, 10, 0.05, 1), rejections=object())
            return PowerTable(config, (cell,))  # json cannot write the cell

        out = tmp_path / "p.jsonl"
        out.write_text("earlier results\n")
        monkeypatch.setattr(cli, "run_grid", failing_grid)
        if failure is OSError:
            assert main(["power-study", "--out", str(out)]) == 1
        else:
            with pytest.raises(failure):
                main(["power-study", "--out", str(out)])
        assert out.read_text() == "earlier results\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["p.jsonl"]

    def test_terminated_while_opening_the_partial_file(self, tmp_path, monkeypatch):
        """A SIGTERM that lands inside open(), after the partial file is
        created, exits through the same cleanup; it used to leave the file."""

        def open_then_terminate(path, *args, **kwargs):
            Path(path).touch()
            raise SystemExit(143)

        out = tmp_path / "out.jsonl"
        out.write_text("earlier results\n")
        monkeypatch.setattr(cli, "open", open_then_terminate, raising=False)
        monkeypatch.setattr(cli, "run_grid", self.no_grid)
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SystemExit) as exited:
            main(["power-study", "--out", str(out)])
        assert exited.value.code == 143
        assert out.read_text() == "earlier results\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.jsonl"]
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_terminated_run_leaves_an_earlier_results_file(self, tmp_path):
        """SIGTERM, as sent by `timeout`, exits 143 through the same cleanup:
        no partial file is left and an earlier file at --out is kept."""
        out = tmp_path / "out.jsonl"
        out.write_text("earlier results\n")
        package_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        run = subprocess.Popen(
            [sys.executable, "-m", "permspec.cli", "power-study", "--full-scale",
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not (tmp_path / "out.jsonl.partial").exists():
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            run.terminate()
            assert run.wait(timeout=60) == 143
        finally:
            run.kill()
        assert out.read_text() == "earlier results\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.jsonl"]

    def test_terminated_inside_the_first_numpy_random_import(self, tmp_path):
        """A SIGTERM acted on inside numpy.random's first import is not lost.
        Cython's set-up code there ignores any exception raised while it
        registers its memoryview types with collections.abc.Sequence, so
        that import comes before the handler is installed.  Here each such
        registration made while the handler is installed sends a SIGTERM."""
        out = tmp_path / "out.jsonl"
        child = "\n".join([
            "import abc, collections.abc, os, signal, sys",
            "from permspec import cli",
            "register = abc.ABCMeta.register",
            "def terminating_register(cls, subclass):",
            "    handler = signal.getsignal(signal.SIGTERM)",
            "    if cls is collections.abc.Sequence and handler is cli._exit_on_sigterm:",
            "        print('sent', flush=True)",
            "        os.kill(os.getpid(), signal.SIGTERM)",
            "    return register(cls, subclass)",
            "abc.ABCMeta.register = terminating_register",
            "sys.exit(cli.main(['power-study', '--replicates', '2', '--permutations', '10',",
            f"                  '--out', {str(out)!r}]))",
        ])
        package_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == (143 if "sent" in done.stdout else 0), done.stderr
        assert list(tmp_path.iterdir()) == ([] if done.returncode else [out])


def test_import_leaves_numpy_polynomial_unloaded():
    """No command uses np.polynomial, so importing the CLI must not load it
    and make every start pay for it."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, permspec.cli; print('numpy.polynomial' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert run.stdout == "False\n"


class TestSimulateCommand:
    def test_stdout_output(self, capsys):
        assert main(["simulate", "--n", "10", "--seed", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        float(lines[0])  # parses

    def test_round_trips_through_ingest(self, noise_csv):
        assert ingest_csv(noise_csv).n == 60


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["test", "--frobnicate", "x.csv"])
        assert excinfo.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_conflicting_scales(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["power-study", "--desk-scale", "--full-scale"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["test", "/nope.csv", "--permutations", "0"], "at least one permutation"),
            (["test", "/nope.csv", "--seed", "-5"], "master_seed"),
            (["test", "/nope.csv", "--confidence", "1.5"], "confidence"),
            (["power-study", "--replicates", "0"], "replicates"),
            (["power-study", "--permutations", "0"], "permutations"),
            (["power-study", "--seed", "-5"], "master_seed"),
            (["simulate", "--n", "2"], "n >= 3"),
            (["simulate", "--snr", "-1"], "lambda"),
            (["simulate", "--snr", "nan"], "lambda"),
            (["simulate", "--seed", "-5"], "master_seed"),
            (["test", "/nope.csv", "--column", "-1"], "column"),
        ],
    )
    def test_invalid_value_exits_two_before_any_io(self, argv, message, tmp_path, capsys):
        # the test input does not exist and the output file must not appear:
        # the flags are rejected before either is touched
        out = tmp_path / "out"
        if argv[0] != "test":
            argv = argv + ["--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
