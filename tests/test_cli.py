"""Tests for the command-line interface."""

import csv
import io
import shutil

import pytest

from citbdd import cli
from citbdd.cli import (
    bench_instance, main, read_suite_csv, trimmed_mean, write_suite_csv,
)
from citbdd.model import parse_model

from conftest import MODELS_DIR, PRINTER_TEXT
from test_ipog import KNOWN_GOOD_PRINTER_SUITE, UNCONSTRAINED_PRINTER_SUITE


@pytest.fixture()
def printer_path(tmp_path):
    path = tmp_path / "printer.model"
    path.write_text(PRINTER_TEXT, encoding="utf-8")
    return path


def _write_suite(tmp_path, model, rows, name="suite.csv"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_suite_csv(model, rows, fh)
    return path


class TestGenerateCommand:
    def test_generates_verifiable_csv(self, tmp_path, printer_path):
        out = tmp_path / "out.csv"
        rc = main(["generate", str(printer_path), "-t", "2",
                   "--handler", "bdd-partial-up", "-o", str(out)])
        assert rc == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "Paper size,Feed tray,Paper type"
        assert main(["verify", str(printer_path), str(out), "-t", "2"]) == 0

    def test_every_handler_gives_identical_output(self, tmp_path, printer_path):
        contents = set()
        for kind in ("bdd-and", "bdd-partial-up", "bdd-partial-down", "oracle"):
            out = tmp_path / f"{kind}.csv"
            assert main(["generate", str(printer_path), "-t", "2",
                         "--handler", kind, "-o", str(out)]) == 0
            contents.add(out.read_bytes())
        assert len(contents) == 1

    def test_byte_identical_across_runs(self, tmp_path, printer_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["generate", str(printer_path), "-t", "2",
                         "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_indices_flag(self, tmp_path, printer_path):
        out = tmp_path / "out.csv"
        assert main(["generate", str(printer_path), "-t", "2", "--fill",
                     "--indices", "-o", str(out)]) == 0
        body = out.read_text(encoding="utf-8").splitlines()[1:]
        cells = {cell for line in body for cell in line.split(",")}
        assert cells <= {"0", "1", "2"}

    def test_fill_leaves_no_dashes(self, tmp_path, printer_path):
        out = tmp_path / "out.csv"
        assert main(["generate", str(printer_path), "-t", "2", "--fill",
                     "-o", str(out)]) == 0
        assert "-" not in out.read_text(encoding="utf-8")

    def test_missing_model(self, tmp_path, capsys):
        rc = main(["generate", str(tmp_path / "nope.model"), "-t", "2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\nzzz = 1\n")
        assert main(["generate", str(bad), "-t", "1"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_strength_too_large(self, printer_path, capsys):
        assert main(["generate", str(printer_path), "-t", "9"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_stdout_output(self, printer_path, capsys):
        assert main(["generate", str(printer_path), "-t", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Paper size,Feed tray,Paper type")


# One constraint under 2,000 negations: deeper than Python's recursion limit.
DEEP_MODEL_TEXT = "[PARAMETERS]\nx: a, b\n[CONSTRAINTS]\n" + "!" * 2000 + "(x = a)\n"


@pytest.mark.parametrize("command", ["generate", "verify", "bench"])
def test_recursion_limit_exits_2_with_one_line(tmp_path, capsys, command):
    model_dir = tmp_path / "models"
    model_dir.mkdir()
    model = model_dir / "deep.model"
    model.write_text(DEEP_MODEL_TEXT, encoding="utf-8")
    suite = tmp_path / "suite.csv"
    suite.write_text("x\na\n", encoding="utf-8")
    argv = {"generate": ["generate", str(model), "-t", "1"],
            "verify": ["verify", str(model), str(suite), "-t", "1"],
            "bench": ["bench", str(model_dir), "-t", "1"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def _out_of_memory(*args):
    raise MemoryError()


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_bare_memory_error_names_itself(tmp_path, printer_path, capsys, monkeypatch,
                                        command):
    suite = tmp_path / "suite.csv"
    suite.write_text("Paper size,Feed tray,Paper type\n", encoding="utf-8")
    monkeypatch.setattr(cli, "build_handler", _out_of_memory)
    argv = {"generate": ["generate", str(printer_path), "-t", "2"],
            "verify": ["verify", str(printer_path), str(suite), "-t", "2"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_generate_to_a_missing_directory_exits_2(tmp_path, printer_path, capsys):
    out = tmp_path / "missing" / "dir" / "x.csv"
    assert main(["generate", str(printer_path), "-t", "2", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_known_good_suite(self, tmp_path, printer_path, printer, capsys):
        path = _write_suite(tmp_path, printer, KNOWN_GOOD_PRINTER_SUITE)
        assert main(["verify", str(printer_path), str(path), "-t", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unconstrained_suite_fails(self, tmp_path, printer_path, printer, capsys):
        path = _write_suite(tmp_path, printer, UNCONSTRAINED_PRINTER_SUITE)
        assert main(["verify", str(printer_path), str(path), "-t", "2"]) == 1
        # every B4 row other than B4/Bypass/non-Thick breaks a constraint
        assert "invalid rows: 3" in capsys.readouterr().out

    def test_empty_suite_lists_all_uncovered(self, tmp_path, printer_path, printer, capsys):
        path = _write_suite(tmp_path, printer, [])
        assert main(["verify", str(printer_path), str(path), "-t", "2"]) == 1
        out = capsys.readouterr().out
        assert "uncovered valid combinations: 23" in out

    def test_unknown_label(self, tmp_path, printer_path, capsys):
        path = tmp_path / "suite.csv"
        path.write_text("Paper size,Feed tray,Paper type\nB9,Bypass,Thin\n")
        assert main(["verify", str(printer_path), str(path), "-t", "2"]) == 2
        assert "unknown value" in capsys.readouterr().err

    def test_indices_suite_with_numeric_labels(self, tmp_path, capsys):
        # Index 2 of "a" is the label "8"; read as a label, "2" would be
        # index 0 and leave a valid suite with uncovered combinations.
        model_path = tmp_path / "numeric.model"
        model_path.write_text("[PARAMETERS]\na: 2, 4, 8\nb: x, y\nc: 0, 1\n"
                              "[CONSTRAINTS]\na = 8 => b = x\n", encoding="utf-8")
        out = tmp_path / "suite.csv"
        assert main(["generate", str(model_path), "-t", "2", "--indices",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(model_path), str(out), "-t", "2",
                     "--indices"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("cell", ["\u00b2", "3", "x", "B4", "-1", ""])
    def test_indices_rejects_non_index_cells(self, tmp_path, printer_path, cell, capsys):
        path = tmp_path / "suite.csv"
        path.write_text(f"Paper size,Feed tray,Paper type\n{cell},0,1\n",
                        encoding="utf-8")
        assert main(["verify", str(printer_path), str(path), "-t", "2",
                     "--indices"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown value {cell!r} for parameter 'Paper size'\n"

    def test_superscript_digit_is_an_unknown_label(self, tmp_path, printer_path, capsys):
        path = tmp_path / "suite.csv"
        path.write_text("Paper size,Feed tray,Paper type\n\u00b2,Bypass,Thin\n",
                        encoding="utf-8")
        assert main(["verify", str(printer_path), str(path), "-t", "2"]) == 2
        assert "unknown value '\u00b2'" in capsys.readouterr().err

    def test_column_mismatch(self, tmp_path, printer_path, capsys):
        path = tmp_path / "suite.csv"
        path.write_text("Size,Tray,Type\nB4,Bypass,Thin\n")
        assert main(["verify", str(printer_path), str(path), "-t", "2"]) == 2
        assert "do not match" in capsys.readouterr().err


class TestSuiteCsvRoundTrip:
    def test_labels_and_dashes(self, printer):
        buf = io.StringIO()
        write_suite_csv(printer, KNOWN_GOOD_PRINTER_SUITE, buf)
        rows = read_suite_csv(printer, io.StringIO(buf.getvalue()))
        assert rows == KNOWN_GOOD_PRINTER_SUITE

    def test_indices(self, printer):
        buf = io.StringIO()
        write_suite_csv(printer, KNOWN_GOOD_PRINTER_SUITE, buf, indices=True)
        rows = read_suite_csv(printer, io.StringIO(buf.getvalue()))
        assert rows == KNOWN_GOOD_PRINTER_SUITE

    def test_indices_ignore_labels(self):
        m = parse_model("[PARAMETERS]\na: 2, 4, 8\n")
        buf = io.StringIO()
        write_suite_csv(m, [(0,), (2,), (None,)], buf, indices=True)
        text = buf.getvalue()
        assert read_suite_csv(m, io.StringIO(text), indices=True) == [(0,), (2,), (None,)]
        # Read as labels, the cell "2" names the value 2, which is index 0.
        assert read_suite_csv(m, io.StringIO(text)) == [(0,), (0,), (None,)]

    def test_quoted_labels_with_commas(self):
        m = parse_model('[PARAMETERS]\nx: "a,b", plain\n')
        buf = io.StringIO()
        write_suite_csv(m, [(0,), (1,)], buf)
        assert read_suite_csv(m, io.StringIO(buf.getvalue())) == [(0,), (1,)]

    def test_empty_file(self, printer):
        with pytest.raises(ValueError, match="missing header"):
            read_suite_csv(printer, io.StringIO(""))


class TestTrimmedMean:
    def test_drops_extremes(self):
        values = [100.0] + [float(i) for i in range(1, 11)] + [0.0]
        assert trimmed_mean(values, 1) == pytest.approx(5.5)

    def test_mean_of_ten_from_twelve(self):
        values = [0.5, 9.0] + [1.0] * 10
        assert trimmed_mean(values, 1) == pytest.approx(1.0)

    def test_no_trim(self):
        assert trimmed_mean([1.0, 2.0, 3.0], 0) == pytest.approx(2.0)

    def test_overtrim_rejected(self):
        with pytest.raises(ValueError, match="cannot trim"):
            trimmed_mean([1.0, 2.0], 1)


class TestBenchCommand:
    def test_records_and_cactus(self, tmp_path, printer_path, capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(printer_path, model_dir / "printer.model")
        out = tmp_path / "bench.csv"
        rc = main(["bench", str(model_dir), "-t", "2",
                   "--handler", "bdd-partial-up", "--handler", "bdd-partial-down",
                   "--repeats", "4", "--trim", "1", "-o", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["handler"] for r in records] == ["bdd-partial-up", "bdd-partial-down"]
        assert all(r["status"] == "OK" for r in records)
        assert records[0]["suite_size"] == records[1]["suite_size"]
        assert all(float(r["seconds"]) >= 0 for r in records)
        cactus = out.with_suffix(".cactus.csv")
        with open(cactus, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["solved", "bdd-partial-up", "bdd-partial-down"]
        assert len(lines) == 2  # one solved instance per handler

    def test_timeout_yields_na(self, tmp_path, capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(MODELS_DIR / "ring8.model", model_dir / "ring8.model")
        out = tmp_path / "bench.csv"
        rc = main(["bench", str(model_dir), "-t", "3",
                   "--handler", "bdd-and", "--repeats", "3", "--trim", "0",
                   "--timeout", "0.000001", "-o", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert records[0]["status"] == "NA"
        assert records[0]["seconds"] == ""
        assert records[0]["suite_size"] == ""

    def test_memory_error_yields_na(self, printer, monkeypatch):
        monkeypatch.setattr(cli, "_run_once", _out_of_memory)
        record = bench_instance("printer", printer, 2, "bdd-and",
                                repeats=3, trim=1, timeout=None)
        assert (record.status, record.seconds, record.suite_size) == ("NA", None, None)

    def test_recursion_error_yields_na_and_the_sweep_goes_on(self, tmp_path,
                                                               printer_path, capsys,
                                                               monkeypatch):
        run_once = cli._run_once

        def too_deep_for_chain4(model, *args):
            if model.n == 4:
                raise RecursionError("maximum recursion depth exceeded")
            return run_once(model, *args)

        monkeypatch.setattr(cli, "_run_once", too_deep_for_chain4)
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(MODELS_DIR / "chain4.model", model_dir / "chain4.model")
        shutil.copy(printer_path, model_dir / "printer.model")
        out = tmp_path / "bench.csv"
        assert main(["bench", str(model_dir), "-t", "1", "--handler", "bdd-and",
                     "--repeats", "1", "--trim", "0", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [(r["instance"], r["status"]) for r in records] == [
            ("chain4", "NA"), ("printer", "OK")]
        assert out.with_suffix(".cactus.csv").exists()

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "nope"), "-t", "2"]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_no_instances(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", str(empty), "-t", "2"]) == 2
        assert "no *.model files" in capsys.readouterr().err

    def test_strength_above_a_model_exits_2(self, tmp_path, capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(MODELS_DIR / "chain4.model", model_dir / "chain4.model")
        assert main(["bench", str(model_dir), "-t", "5", "--handler", "bdd-and",
                     "--repeats", "1", "--trim", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out of range for 4 parameters" in err

    def test_missing_output_directory_fails_before_any_run(self, tmp_path, printer_path,
                                                           capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(printer_path, model_dir / "printer.model")
        out = tmp_path / "missing" / "dir" / "b.csv"
        assert main(["bench", str(model_dir), "-t", "2",
                     "--repeats", "1", "--trim", "0", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_records_before_a_failure_are_kept(self, tmp_path, printer_path, capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(MODELS_DIR / "chain4.model", model_dir / "chain4.model")
        shutil.copy(printer_path, model_dir / "printer.model")
        out = tmp_path / "bench.csv"
        # chain4 has 4 parameters and runs; printer has 3 and fails.
        assert main(["bench", str(model_dir), "-t", "4", "--handler", "bdd-and",
                     "--repeats", "1", "--trim", "0", "-o", str(out)]) == 2
        assert "out of range" in capsys.readouterr().err
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [(r["instance"], r["status"]) for r in records] == [("chain4", "OK")]

    def test_parse_error_names_the_model_file(self, tmp_path, capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        (model_dir / "bad.model").write_text("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\nzzz = 1\n")
        assert main(["bench", str(model_dir), "-t", "1"]) == 2
        err = capsys.readouterr().err
        assert "bad.model: unknown parameter" in err

    @pytest.mark.parametrize("option", [("--trim", "-1"), ("--timeout", "-5"),
                                        ("--timeout", "0"), ("--timeout", "nan"),
                                        ("--timeout", "inf")])
    def test_bad_trim_or_timeout_fails_before_any_run(self, tmp_path, printer_path,
                                                      capsys, option):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(printer_path, model_dir / "printer.model")
        out = tmp_path / "bench.csv"
        assert main(["bench", str(model_dir), "-t", "2", "--handler", "bdd-and",
                     "--repeats", "3", *option, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert option[0][2:] in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_overtrimmed_repeats_rejected(self, tmp_path, printer_path, capsys):
        model_dir = tmp_path / "suite"
        model_dir.mkdir()
        shutil.copy(printer_path, model_dir / "printer.model")
        assert main(["bench", str(model_dir), "-t", "2",
                     "--repeats", "2", "--trim", "1"]) == 2
