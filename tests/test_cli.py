import hashlib
import json
import re
import xml.etree.ElementTree as ET

import pytest

from permspec import load_table, read_report
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

    def test_full_scale_results_file_pinned(self, tmp_path):
        """K=20 of the full grid: M=1000 and n up to 240, so a cell's rounds
        shuffle MBs of rows; every rejection count, and so the file, is a
        pure function of the seed."""
        out = tmp_path / "full.jsonl"
        assert main(["power-study", "--full-scale", "--replicates", "20", "--seed", "5",
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "c835e0a8d33a8a0cae6ae205aec208ccfa44a52bcf72672f00cd6ea3ad7b00e7"


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
