"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import io
import json
import math
import subprocess
import sys

import jsonschema
import pytest

from zipfent import corpus
from zipfent.cli import main
from zipfent.report import report_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data: bytes):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_analyze_file_matches_hand_pipeline(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("a a b", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["n_tokens"] == 3
    assert rep["max_frequency"] == 2
    assert rep["entropy"]["nats"] == pytest.approx(0.6365141682948128, abs=1e-12)
    # spectrum {1:1, 2:1} fits a flat line; slope magnitude 0 < 1, so the
    # bound is reported inapplicable without failing the run
    assert rep["fit"]["a"] == 0.0 and rep["fit"]["b"] == 0.0
    assert rep["bound"] == {"applicable": False, "a": 0.0, "b": 0.0}
    assert rep["chain"] is None


def test_analyze_stdin(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"one two two")
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["inputs"] == ["-"]
    assert rep["n_tokens"] == 3


def test_analyze_empty_stdin_is_data_error(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"")
    code, out, err = run_cli(capsys, "analyze")
    assert code == 2
    assert out == ""
    assert "empty corpus" in err


def test_analyze_single_word_reports_fit_error(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"same same same")
    code, out, err = run_cli(capsys, "analyze")
    assert code == 2
    rep = json.loads(out)
    assert rep["entropy"]["nats"] == 0.0
    assert "error" in rep["fit"]
    assert rep["bound"] is None and rep["chain"] is None
    assert "2 distinct frequencies" in err


def test_analyze_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.txt")
    assert code == 3
    assert "error" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--format", "yaml"])
    assert exc.value.code == 1


def test_analyze_stdin_and_file_agree_across_chunk_edges(tmp_path, monkeypatch, capsys):
    data = "caf\u00e9 Caf\u00e9 na\u00efve caf\u00e9 the the\n".encode("utf-8")
    path = tmp_path / "c.txt"
    path.write_bytes(data)
    code, default_out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    monkeypatch.setattr(corpus, "CHUNK_SIZE", 4)
    # the first chunk edge falls inside both the word "caf\u00e9" and the
    # two-byte encoding of its last letter
    assert data[:4] == b"caf\xc3"
    code, file_out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    feed_stdin(monkeypatch, data)
    code, stdin_out, _ = run_cli(capsys, "analyze")
    assert code == 0
    # the reports differ only in the input label
    assert stdin_out == file_out.replace(json.dumps(str(path)), '"-"')
    assert file_out == default_out
    assert json.loads(stdin_out)["vocab_size"] == 3


@pytest.mark.parametrize("first", [b"a a b", b""])
def test_analyze_per_file_missing_input_writes_nothing(tmp_path, capsys, first):
    # the I/O error also wins over an earlier empty input
    path = tmp_path / "first.txt"
    path.write_bytes(first)
    code, out, err = run_cli(capsys, "analyze", "--per-file", str(path), str(tmp_path / "missing.txt"))
    assert code == 3
    assert out == ""
    assert "missing.txt" in err


def test_analyze_pools_multiple_files(tmp_path, capsys):
    (tmp_path / "one.txt").write_text("a a", encoding="utf-8")
    (tmp_path / "two.txt").write_text("a b", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "one.txt"), str(tmp_path / "two.txt"))
    assert code == 0
    rep = json.loads(out)
    assert rep["n_tokens"] == 4
    assert rep["max_frequency"] == 3
    assert len(rep["config"]["inputs"]) == 2


def test_analyze_per_file_emits_schema_valid_reports(tmp_path, capsys):
    (tmp_path / "one.txt").write_text("a a b", encoding="utf-8")
    (tmp_path / "two.txt").write_text("x y z x y x w", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "analyze", "--per-file", str(tmp_path / "one.txt"), str(tmp_path / "two.txt")
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2
    schema = report_schema()
    for rep in reports:
        jsonschema.validate(rep, schema)
    assert reports[0]["config"]["inputs"] == [str(tmp_path / "one.txt")]


def test_per_file_with_csv_rejected(tmp_path, capsys):
    (tmp_path / "one.txt").write_text("a a b", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--per-file", "--format", "csv", str(tmp_path / "one.txt"))
    assert code == 1
    assert "--per-file" in err


def test_analyze_csv_spectrum(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"a a a b b c")
    code, out, _ = run_cli(capsys, "analyze", "--format", "csv")
    assert code == 0
    assert out == "k,F(k)\n1,1\n2,1\n3,1\n"


def test_analyze_text_format_with_bits(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"a a b c")
    code, out, _ = run_cli(capsys, "analyze", "--format", "text", "--bits")
    assert code == 0
    assert "entropy:" in out and "bits" in out and "tokens:" in out


def test_analyze_tokenizer_flags(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"Ab ab CD c Ab")
    code, out, _ = run_cli(
        capsys, "analyze", "--no-lowercase", "--min-token-len", "2", "--token-rule", "whitespace"
    )
    assert code == 0
    rep = json.loads(out)
    # "c" dropped by the length filter; case preserved, so Ab != ab
    assert rep["n_tokens"] == 4
    assert rep["vocab_size"] == 3
    assert rep["config"]["lowercase"] is False
    assert rep["config"]["token_rule"] == "whitespace"


def test_analyze_deterministic_output(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("to be or not to be that is the question", encoding="utf-8")
    code1, out1, _ = run_cli(capsys, "analyze", str(path))
    code2, out2, _ = run_cli(capsys, "analyze", str(path))
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_report_validates_against_schema(monkeypatch, capsys):
    feed_stdin(monkeypatch, b"the quick brown fox jumps over the lazy dog the fox")
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    jsonschema.validate(json.loads(out), report_schema())


def test_analyze_generated_corpus_populates_bound_and_chain(monkeypatch, capsys):
    # a power-law corpus fits steeply enough for the bound to apply
    gen_code, corpus, _ = run_cli(capsys, "gen", "--a", "2", "--b", "4")
    assert gen_code == 0
    feed_stdin(monkeypatch, corpus.encode())
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, report_schema())
    assert rep["bound"]["applicable"] is True
    assert rep["bound"]["margin_nats"] == pytest.approx(
        rep["bound"]["value_nats"] - rep["entropy"]["nats"], abs=1e-12
    )
    assert set(rep["chain"]) == {"sandwich_lower", "sandwich_upper", "n_bound", "ratio", "tolerance"}
    assert rep["fit"]["a"] == pytest.approx(2.0, abs=0.1)


def test_analyze_out_flag(tmp_path, monkeypatch, capsys):
    feed_stdin(monkeypatch, b"a a b")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n_tokens"] == 3


def test_gen_rounded_corpus_is_deterministic(capsys):
    b = str(math.log(4))
    code1, out1, _ = run_cli(capsys, "gen", "--a", "1", "--b", b)
    code2, out2, _ = run_cli(capsys, "gen", "--a", "1", "--b", b)
    assert code1 == code2 == 0
    assert out1 == out2
    tokens = out1.split()
    assert len(tokens) == 15
    assert len(set(tokens)) == 8


def test_gen_single_word_corpus(capsys):
    code, out, _ = run_cli(capsys, "gen", "--a", "2", "--b", "0")
    assert code == 0
    assert out == "w0\n"


def test_gen_rejects_small_slope(capsys):
    code, _, err = run_cli(capsys, "gen", "--a", "0.5", "--b", "2")
    assert code == 1
    assert ">= 1" in err


def test_gen_rejects_negative_intercept(capsys):
    code, _, err = run_cli(capsys, "gen", "--a", "1", "--b", "-2")
    assert code == 1
    assert "empty spectrum" in err


def test_gen_exact_emits_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "gen", "--a", "1.5", "--b", "2", "--mode", "exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,F(k)"
    k, f = lines[1].split(",")
    assert k == "1" and float(f) == pytest.approx(math.exp(2), rel=1e-12)


def test_gen_unwritable_out_is_io_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--a", "1", "--b", "2", "--out", "/no/such/dir/x.txt")
    assert code == 3
    assert "error" in err


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "1,2", "--b", "4,6", "--mode", "exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("a,b,N,M,entropy_nats,bound_nats,margin_nats")
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[6]) >= 0  # margin_nats


def test_sweep_single_cell_bound_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "1", "--b", str(math.log(2)), "--mode", "exact")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(1 + math.log(2), abs=1e-12)


def test_sweep_empty_grid_is_header_only(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "", "--b", "4")
    assert code == 0
    assert out.splitlines() == ["a,b,N,M,entropy_nats,bound_nats,margin_nats,sandwich_lo,sandwich_hi,n_bound,ratio"]


def test_sweep_bad_grid_value(capsys):
    code, _, err = run_cli(capsys, "sweep", "--a", "1,zz", "--b", "4")
    assert code == 1
    assert "invalid grid value" in err


@pytest.mark.parametrize("b", ["800", "inf"])
def test_sweep_overflowing_intercept_is_a_cell_error(capsys, b):
    # e^b overflows a float: the cell is recorded as an error row, the sweep
    # still succeeds, and no exception escapes main
    code, out, err = run_cli(capsys, "sweep", "--a", "1", "--b", b)
    assert code == 0
    assert out.splitlines()[1] == f"1.0,{float(b)},,,,,,,,,"
    assert err.startswith(f"zipfent: sweep cell a=1.0 b={float(b)}: ")
    assert err.count("\n") == 1


def test_gen_infinite_intercept_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gen", "--a", "1", "--b", "inf")
    assert code == 1
    assert out == ""
    assert err == "zipfent: error: intercept b must be finite, got inf\n"


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("alpha beta alpha", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "zipfent", "analyze", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_tokens"] == 3
