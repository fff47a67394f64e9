"""Tests of the benchmark itself, at the small input size.

Run from the root of the repository:  python -m pytest bench
"""

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import checks
import inputs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))

SMALL = {
    "large_tokens": 20_000, "ranks": 5_000, "files": 6, "file_tokens": 400,
    "sweep_a": (1.0, 2.0), "sweep_b": (-1.0, 2.0, 4.0),
    "gen_a": 1.0, "gen_b": 3.0,
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "SIZE", SMALL)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)


def main(capsys, *args) -> tuple[int, dict]:
    """run.main in-process; its exit code and result line."""
    code = run.main(list(args))
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def bench(*args, cwd=run.ROOT, script=run.BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def zipfent(cwd, *argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    done = subprocess.run([sys.executable, "-m", "zipfent", *argv], cwd=cwd, env=env, capture_output=True, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def validator():
    return checks.load_validator(run.SCHEMA)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_runs_and_prints_every_declared_metric(small, capsys, workload, trace):
    code, result = main(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_zipfent_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "gen_corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def test_exits_nonzero_when_an_output_check_fails(small, monkeypatch, capsys):
    k_max, tokens, words = inputs.rounded_law_corpus(1.0, 3.0)
    monkeypatch.setattr(run.inputs, "rounded_law_corpus", lambda a, b: (k_max, tokens + 1, words))
    code, result = main(capsys, "--workload", "gen_corpus", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_generated_text_tokenizes_to_the_expected_counts(tmp_path):
    stats = inputs.write_zipf_text(tmp_path / "t.txt", 5, 30_000, 3_000, chunk=7_000)
    text = (tmp_path / "t.txt").read_text("utf-8")
    words = re.findall(r"\w+", text)
    assert inputs.TextStats.from_counts(list(Counter(w.casefold() for w in words).values())) == stats
    assert any(w != w.casefold() for w in words)
    assert any(not c.isascii() for c in text)
    inputs.write_zipf_text(tmp_path / "again.txt", 5, 30_000, 3_000, chunk=7_000)
    assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "t.txt").read_bytes()


def _edited(report_bytes: bytes, edit) -> bytes:
    report = json.loads(report_bytes)
    edit(report)
    return json.dumps(report).encode()


ANALYZE_CORRUPTIONS = {
    "n_tokens off by one": lambda r: r.update(n_tokens=r["n_tokens"] + 1),
    "vocab_size off by one": lambda r: r.update(vocab_size=r["vocab_size"] - 1),
    "max_frequency off by one": lambda r: r.update(max_frequency=r["max_frequency"] + 1),
    "distinct_k off by one": lambda r: r["spectrum"].update(distinct_k=r["spectrum"]["distinct_k"] + 1),
    "k_max off by one": lambda r: r["spectrum"].update(k_max=r["spectrum"]["k_max"] - 1),
    "entropy off by 1e-10": lambda r: r["entropy"].update(nats=r["entropy"]["nats"] * (1 + 1e-10)),
    "key outside the schema": lambda r: r.update(extra=1),
    "wrong input label": lambda r: r["config"].update(inputs=["other.txt"]),
}


@pytest.mark.parametrize("corruption", sorted(ANALYZE_CORRUPTIONS))
def test_analyze_check_rejects_a_corrupted_report(tmp_path, validator, corruption):
    stats = inputs.write_zipf_text(tmp_path / "c.txt", 1, 5_000, 1_000)
    out = zipfent(tmp_path, "analyze", "c.txt")
    checks.check_analyze(out, stats, "c.txt", validator)
    with pytest.raises(checks.CheckError):
        checks.check_analyze(_edited(out, ANALYZE_CORRUPTIONS[corruption]), stats, "c.txt", validator)


def test_per_file_check_rejects_a_dropped_or_reordered_report(tmp_path, validator):
    names = ["a.txt", "b.txt", "c.txt"]
    stats = inputs.write_zipf_files([tmp_path / n for n in names], 2, 500, 1_000)
    out = zipfent(tmp_path, "analyze", "--per-file", *names)
    checks.check_analyze_per_file(out, stats, names, validator)
    reports = json.loads(out)
    for bad in (reports[:-1], [reports[1], reports[0], reports[2]]):
        with pytest.raises(checks.CheckError):
            checks.check_analyze_per_file(json.dumps(bad).encode(), stats, names, validator)


def _replace_field(csv: bytes, row: int, col: int, value: str) -> bytes:
    lines = csv.decode().splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def test_sweep_check_rejects_a_corrupted_table(tmp_path):
    cells = [(a, b) for a in (1.0, 2.0) for b in (-1.0, 3.0, 5.0)]
    expected = {(a, b): inputs.exact_law_tokens(a, b) for a, b in cells if b >= 0}
    out = zipfent(tmp_path, "sweep", "--mode", "exact", "--a=1,2", "--b=-1,3,5")
    checks.check_sweep(out, cells, expected)
    lines = out.decode().splitlines(keepends=True)
    n = float(out.decode().splitlines()[2].split(",")[2])
    corrupted = {
        "dropped row": "".join(lines[:-1]).encode(),
        "N off": _replace_field(out, 2, 2, repr(n * (1 + 1e-9))),
        "M off by one": _replace_field(out, 2, 3, str(int(out.decode().splitlines()[2].split(",")[3]) + 1)),
        "negative margin": _replace_field(out, 3, 6, "-0.001"),
        "negative slack": _replace_field(out, 3, 8, "-1e-6"),
        "error row filled": _replace_field(out, 1, 2, "1.0"),
    }
    for name, bad in corrupted.items():
        with pytest.raises(checks.CheckError):
            checks.check_sweep(bad, cells, expected)
            pytest.fail(f"accepted: {name}")


def test_gen_check_rejects_a_corrupted_corpus(tmp_path):
    _, tokens, words = inputs.rounded_law_corpus(1.0, 3.0)
    out = zipfent(tmp_path, "gen", "--mode", "rounded", "--a", "1", "--b", "3")
    path = tmp_path / "corpus.txt"
    path.write_bytes(out)
    checks.check_gen_corpus(path, tokens, words)
    lines = out.splitlines(keepends=True)
    for bad in (b"".join(lines[:-1]), b"".join(lines) + lines[0], b"".join(lines[:-1]) + b"fresh\n", out[:-1]):
        path.write_bytes(bad)
        with pytest.raises(checks.CheckError):
            checks.check_gen_corpus(path, tokens, words)


def test_verifier_fails_bad_exit_traceback_and_changed_output(tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"first")
    checked = []
    verify = run.Verifier(run.Workload(argv=[], check=checked.append, tokens=1, points=1))
    tally = run.Tally()
    assert verify(run.Invocation(1.0, 1.0, 0, "", out), tally)
    assert not verify(run.Invocation(1.0, 1.0, 1, "", out), tally)
    assert not verify(run.Invocation(1.0, 1.0, 0, "Traceback (most recent call last):", out), tally)
    out.write_bytes(b"second")
    assert not verify(run.Invocation(1.0, 1.0, 0, "", out), tally)
    assert (tally.attempted, tally.failed, checked) == (4, 3, [out])


def test_layer_metrics_self_time_subtracts_children():
    spans = [
        {"name": "outer", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "inner", "parent": 0, "start": 1.0, "end": 4.0, "counts": {"items": 5}, "rss_mb": 7.0},
        {"name": "inner", "parent": 0, "start": 5.0, "end": 6.0, "counts": {"items": 2}, "rss_mb": 9.0},
    ]
    m = run.layer_metrics(spans)
    assert m["outer.s"] == 10.0 and m["outer.self_s"] == 6.0
    assert m["inner.s"] == 4.0 and m["inner.items"] == 7 and m["inner.rss_mb"] == 9.0
