"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfent import corpus
from zipfent.cli import main
from zipfent.corpus import TokenizerConfig
from zipfent.report import build_report, report_json, report_json_array, report_schema
from zipfent.spectrum import FreqSpectrum, freq_of_freq, spectrum_csv
from zipfent.synth import SyntheticSpec, _law_k_max, generate_spectrum, spectrum_to_corpus


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


@pytest.mark.parametrize("n", [0, 1, 3])
def test_report_json_array_is_report_json_of_the_list(n):
    # labels with characters JSON escapes, and one report with a fit error
    tables = [Counter("a a b b b c".split()), Counter(["x"]), Counter("p q q r r r r".split())]
    labels = ["caf\u00e9 \u5317.txt", 'a "b"\n\tc.txt', "-"]
    reports = [build_report(freq_of_freq(t), TokenizerConfig(), [label]) for t, label in zip(tables[:n], labels)]
    assert "".join(report_json_array(report_json(r) for r in reports)) == report_json(reports)


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


def test_analyze_in_worker_processes_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    rng = random.Random(7)
    words = ["café", "Straße", "STRASSE", "naïve", "\U0001d518x", "to", "a", "x_1"]
    seps = [" ", "\n", " «", "» ", "—", "\t", ". "]
    text = "".join(rng.choice(words) + rng.choice(seps) for _ in range(30000))
    big, small = tmp_path / "big.txt", tmp_path / "small.txt"
    big.write_text(text, encoding="utf-8")
    small.write_text("a a b café", encoding="utf-8")
    argvs = [
        ["analyze", str(big)],
        ["analyze", "--format", "text", "--bits", str(big), str(small)],
        ["analyze", "--format", "csv", str(big)],
        ["analyze", "--per-file", "--token-rule", "whitespace", "--no-lowercase", str(small), str(big)],
        ["analyze", "--min-token-len", "2", str(big)],
    ]
    in_process = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in in_process)

    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
    fork_maps = _spy_fork_maps(monkeypatch)
    assert [run_cli(capsys, *argv) for argv in argvs] == in_process
    # every run cut the large file into three byte ranges, --per-file too
    assert fork_maps == [3, 3, 3, 3, 3]


def _per_file_inputs(tmp_path, seed: int) -> list[str]:
    """2-12 small seeded files; some sets hold an empty file or a one-word file."""
    rng = random.Random(seed)
    words = ["café", "Straße", "STRASSE", "naïve", "\U0001d518x", "to", "a", "x_1", "Zipf"]
    paths = []
    for i in range(rng.randint(2, 12)):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 300)))
        path = tmp_path / f"s{seed}-doc{i:02d}.txt"
        path.write_text(text + rng.choice(["", "\n", ". "]), encoding="utf-8")
        paths.append(str(path))
    special = {0: "", 1: "solo solo"}.get(seed % 3)
    if special is not None:
        # an empty file is a data error; one word is a recorded fit error
        with open(paths[rng.randrange(len(paths))], "w", encoding="utf-8") as f:
            f.write(special)
    return paths


def _spy_fork_maps(monkeypatch) -> list[int]:
    """The processes of each fork map that forks; a map of one job runs in this process."""
    calls, real = [], corpus._fork_map

    def fork_map(count, merge, jobs):
        if len(jobs) > 1:
            calls.append(len(jobs))
        return real(count, merge, jobs)

    monkeypatch.setattr(corpus, "_fork_map", fork_map)
    return calls


@pytest.mark.parametrize("seed", range(9))
def test_per_file_on_every_cpu_writes_what_one_cpu_writes(tmp_path, monkeypatch, capsys, seed):
    paths = _per_file_inputs(tmp_path, seed)
    argvs = [["analyze", "--per-file", "--format", fmt, *paths] for fmt in ("json", "text", "csv")]
    argvs += [["analyze", "--per-file", "--format", "text", "--bits", *paths],
              ["analyze", "--per-file", "--token-rule", "whitespace", "--no-lowercase", *paths]]
    fork_maps = _spy_fork_maps(monkeypatch)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = [run_cli(capsys, *argv) for argv in argvs]
    assert fork_maps == []
    plans = _spy_plans(monkeypatch)
    for cpus in (2, 3):
        monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
        assert [run_cli(capsys, *argv) for argv in argvs] == serial
    # every argv but the csv one, a usage error, ran its groups in a fork map
    # of one share per CPU; but seed 2's two files of 237 and 1,144 bytes
    # make one share, as each cut inside the larger moves to its end
    shares = [2] * 4 + [min(3, len(paths))] * 4 if seed != 2 else [1] * 8
    assert [len(plan) for plan in plans] == shares
    assert fork_maps == [n for n in shares if n > 1]
    expected_code = {0: 2, 1: 2, 2: 0}[seed % 3]
    assert [code for code, _, _ in serial] == [expected_code, expected_code, 1, expected_code, expected_code]


@pytest.mark.parametrize("names", [("big0", "small0"), ("small0", "big0", "small1", "big1")])
def test_per_file_with_a_large_file_on_every_cpu_writes_what_one_cpu_writes(tmp_path, monkeypatch, capsys,
                                                                            names):
    # a large file is one group like any other, cut into byte ranges where
    # a share's edge falls inside it
    rng = random.Random(11)
    words = ["café", "Straße", "STRASSE", "naïve", "\U0001d518x", "to", "a", "x_1", "a—b"]
    paths = []
    for name in names:
        size = 3000 if name.startswith("big") else 50
        path = tmp_path / f"{name}.txt"
        text = " ".join(rng.choice(words) + rng.choice(["", "\n"]) for _ in range(size))
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    assert all(os.path.getsize(p) >= 3 << 12 for p in paths if "big" in p)
    argvs = [["analyze", "--per-file", *paths],
             ["analyze", "--per-file", "--format", "text", "--token-rule", "whitespace", "--no-lowercase",
              *paths]]
    fork_maps = _spy_fork_maps(monkeypatch)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = [run_cli(capsys, *argv) for argv in argvs]
    assert fork_maps == []
    assert [code for code, _, _ in serial] == [0, 0]
    for cpus in (2, 3):
        monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
        assert [run_cli(capsys, *argv) for argv in argvs] == serial
    # the bytes of the large files make one share per CPU
    assert fork_maps == [2, 2, 3, 3]


def test_a_share_that_cuts_leave_empty_forks_no_worker(tmp_path, monkeypatch, capsys):
    # on 3 CPUs both cuts fall inside a file just smaller than one that is
    # cut, and move to its end: the middle share holds nothing
    rng = random.Random(13)
    words = ["café", "Straße", "STRASSE", "naïve", "\U0001d518x", "to", "a", "x_1", "a—b"]
    seven, tiny1, tiny2 = (str(tmp_path / f"{name}.txt") for name in ("seven", "tiny1", "tiny2"))
    with open(seven, "w", encoding="utf-8") as f:
        f.write(" ".join(rng.choice(words) for _ in range(620)))
    for path in (tiny1, tiny2):
        with open(path, "w", encoding="utf-8") as f:
            f.write("a a b c c c " + rng.choice(words))
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    assert 3 << 10 < os.path.getsize(seven) < 1 << 12
    argv = ["analyze", "--per-file", seven, tiny1, tiny2]
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = run_cli(capsys, *argv)
    assert serial[0] == 0
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
    fork_maps = _spy_fork_maps(monkeypatch)
    plans = _spy_plans(monkeypatch)
    assert run_cli(capsys, *argv) == serial
    assert [[source for _, source, _ in share] for share in plans[0]] == [[seven], [tiny1, tiny2]]
    assert fork_maps == [2]


def _spy_plans(monkeypatch) -> list[list]:
    calls, real = [], corpus._plan

    def plan(groups):
        shares = real(groups)
        calls.append(shares)
        return shares

    monkeypatch.setattr(corpus, "_plan", plan)
    return calls


def test_pooled_small_files_on_every_cpu_write_what_one_cpu_writes(tmp_path, monkeypatch, capsys):
    # a document set of small files is one group cut into one share per CPU
    # at file ends; the group's tables are merged in the zipfent process
    paths = _per_file_inputs(tmp_path, 5) + _per_file_inputs(tmp_path, 8)
    argvs = [["analyze", *paths], ["analyze", "--format", "text", "--bits", *paths],
             ["analyze", "--format", "csv", *paths], ["analyze", "--min-token-len", "3", *paths],
             ["analyze", "--token-rule", "whitespace", "--no-lowercase", *paths]]
    # 16 files of 190 to 1,439 bytes: every one is smaller than a file that is cut
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    fork_maps = _spy_fork_maps(monkeypatch)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = [run_cli(capsys, *argv) for argv in argvs]
    assert fork_maps == []
    assert [code for code, _, _ in serial] == [0] * 5
    for cpus in (2, 3):
        monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
        plans = _spy_plans(monkeypatch)
        assert [run_cli(capsys, *argv) for argv in argvs] == serial
        assert fork_maps[-5:] == [cpus] * 5
        # every share holds whole files
        assert all(share and all(span[1] == 0 and span[2] == span[3] for _, _, span in share)
                   for shares in plans for share in shares)


def test_per_file_counts_a_large_file_beside_small_ones_in_several_shares(tmp_path, monkeypatch, capsys):
    rng = random.Random(12)
    words = ["café", "Straße", "STRASSE", "naïve", "\U0001d518x", "to", "a", "x_1", "a—b"]
    paths = _per_file_inputs(tmp_path, 2)
    big = tmp_path / "big.txt"
    big.write_text(" ".join(rng.choice(words) + rng.choice(["", "\n"]) for _ in range(3000)), encoding="utf-8")
    paths.insert(1, str(big))
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    argv = ["analyze", "--per-file", "--format", "text", *paths]
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = run_cli(capsys, *argv)
    assert serial[0] == 0
    for cpus in (2, 3):
        monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
        plans = _spy_plans(monkeypatch)
        assert run_cli(capsys, *argv) == serial
        (shares,) = plans
        assert len(shares) == cpus
        assert sum(any(source == str(big) for _, source, _ in share) for share in shares) >= 2


@pytest.mark.parametrize("per_file", [False, True])
def test_a_directory_before_a_missing_file_is_the_first_error_on_every_cpu(tmp_path, monkeypatch, capsys,
                                                                          per_file):
    # neither has a size to plan by; each is opened, and fails, in its share
    docs = _per_file_inputs(tmp_path, 2)[:4]
    folder, missing = tmp_path / "folder", tmp_path / "missing.txt"
    folder.mkdir()
    argv = ["analyze", *(["--per-file"] if per_file else []), docs[0], str(folder), docs[1], str(missing), *docs[2:]]
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 8)
    fork_maps = _spy_fork_maps(monkeypatch)
    for cpus in (1, 3):
        monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"zipfent: error: [Errno 21] Is a directory: '{folder}'\n"
    assert fork_maps == [3]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("per_file", [False, True])
@pytest.mark.parametrize("fault", ["dies", "raises"])
def test_a_child_that_dies_or_raises_is_one_io_error_line_with_every_child_reaped(tmp_path, monkeypatch, capsys,
                                                                                  per_file, fault):
    paths = _per_file_inputs(tmp_path, 2)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 8)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
    parent, real = os.getpid(), corpus._count_part

    def count_part(items, config, *route):
        if os.getpid() != parent:
            if fault == "dies":
                os._exit(0)  # leaves without a result, as a killed child does
            raise OSError(5, "Input/output error")
        return real(items, config, *route)

    monkeypatch.setattr(corpus, "_count_part", count_part)
    code, out, err = run_cli(capsys, "analyze", *(["--per-file"] if per_file else []), *paths)
    assert (code, out) == (3, "")
    if fault == "dies":
        assert err.startswith("zipfent: error: worker process ") and err.endswith(" ended without a result\n")
    else:
        assert err == "zipfent: error: [Errno 5] Input/output error\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cut_file_and_documents(tmp_path) -> tuple[str, list[str]]:
    """A file of about 12 KB, cut where PARALLEL_MIN_BYTES is 4 KiB, and five documents of about 2 KB."""
    rng = random.Random(14)
    words = ["café", "Straße", "STRASSE", "naïve", "\U0001d518x", "to", "a", "x_1", "a—b", "\u0130stanbul"]
    big = tmp_path / "big.txt"
    big.write_text(" ".join(rng.choice(words) + str(rng.randrange(500)) for _ in range(1200)), encoding="utf-8")
    docs = []
    for i in range(5):
        doc = tmp_path / f"doc{i}.txt"
        doc.write_text(" ".join(rng.choice(words) for _ in range(300)), encoding="utf-8")
        docs.append(str(doc))
    return str(big), docs


@pytest.mark.parametrize("per_file", [False, True])
def test_an_unreadable_input_in_the_second_of_three_shares_beside_a_cut_file_is_the_first_error(
        tmp_path, monkeypatch, capsys, per_file):
    # the file is cut across the first two shares, whose processes would
    # exchange its words; the directory falls in the second share and the
    # missing file in the third, and both are planned as the mean file size
    big, docs = _cut_file_and_documents(tmp_path)
    folder, missing = tmp_path / "folder", tmp_path / "missing.txt"
    folder.mkdir()
    argv = ["analyze", *(["--per-file"] if per_file else []), big, str(folder), *docs[:3], str(missing), *docs[3:]]
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
    plans = _spy_plans(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert [[source for _, source, _ in share] for share in plans[0]] == [
        [big], [big, str(folder), *docs[:2]], [docs[2], str(missing), *docs[3:]]]
    assert (code, out) == (3, "")
    assert err == f"zipfent: error: [Errno 21] Is a directory: '{folder}'\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("per_file", [False, True])
def test_a_child_killed_in_the_exchange_is_one_io_error_line_with_every_child_reaped(tmp_path, per_file):
    # each child kills itself with SIGKILL once it has been sent the bytes
    # of the words it owns; the zipfent process neither hangs nor leaves a
    # child behind
    big, docs = _cut_file_and_documents(tmp_path)
    script = ("import os, signal, sys\n"
              "from zipfent import corpus\n"
              "from zipfent.cli import main\n"
              "parent, fork_map = os.getpid(), corpus._fork_map\n"
              "def killed_fork_map(count, merge, jobs):\n"
              "    def killed(kept, received):\n"
              "        if os.getpid() != parent:\n"
              "            os.kill(os.getpid(), signal.SIGKILL)\n"
              "        return merge(kept, received)\n"
              "    return fork_map(count, killed, jobs)\n"
              "corpus._fork_map = killed_fork_map\n"
              "corpus.PARALLEL_MIN_BYTES = 1 << 12\n"
              "corpus._cpu_count = lambda: 3\n"
              "code = main(sys.argv[1:])\n"
              "try:\n"
              "    os.waitpid(-1, os.WNOHANG)\n"
              "except ChildProcessError:\n"
              "    print('every child reaped')\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(corpus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["analyze", *(["--per-file"] if per_file else []), docs[0], big, *docs[1:]]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "every child reaped\n")
    assert proc.stderr.startswith("zipfent: error: worker process ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(" ended without a result\n")


@pytest.mark.parametrize("cpus", range(2, 9))
def test_analyze_on_2_to_8_cpus_writes_what_one_cpu_writes(tmp_path, monkeypatch, capsys, cpus):
    big, docs = _cut_file_and_documents(tmp_path)
    paths = [docs[0], big, *docs[1:]]
    argvs = [["analyze", "--format", fmt, *paths] for fmt in ("json", "text", "csv")]
    argvs += [["analyze", "--per-file", "--format", fmt, *paths] for fmt in ("json", "text")]
    argvs += [["analyze", "--min-token-len", "3", *paths],
              ["analyze", "--token-rule", "whitespace", "--no-lowercase", "--per-file", *paths]]
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in serial] == [0] * len(argvs)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    fork_maps = _spy_fork_maps(monkeypatch)
    assert [run_cli(capsys, *argv) for argv in argvs] == serial
    assert fork_maps == [cpus] * len(argvs)


def test_two_hundred_inputs_count_with_64_open_files_allowed(tmp_path):
    # no process holds every input open: each is opened where it is read
    names = []
    for i in range(200):
        (tmp_path / f"d{i:03d}.txt").write_text(f"a a b c{i} caf\u00e9 " * 40, encoding="utf-8")
        names.append(f"d{i:03d}.txt")
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64))\n"
              "from zipfent import corpus\n"
              "from zipfent.cli import main\n"
              "corpus.PARALLEL_MIN_BYTES = 1 << 12\n"
              "corpus._cpu_count = lambda: 3\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(corpus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["--per-file"]):
        proc = subprocess.run([sys.executable, "-c", script, "analyze", *flags, *names], cwd=tmp_path,
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert len(json.loads(proc.stdout)) == 200


@pytest.mark.parametrize("argv, message", [
    (["--fit-kmin", "0"], "k_min must be >= 1, got 0"),
    (["--fit-kmin", "5", "--fit-kmax", "4"], "k_max (4) must be >= k_min (5)"),
    (["--fit-kmax", "0"], "k_max (0) must be >= k_min (1)"),
])
def test_a_bad_fit_window_is_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv, message):
    # a missing input would be an I/O error and an empty stdin a data error
    expected = (1, "", f"zipfent: error: {message}\n")
    assert run_cli(capsys, "analyze", *argv, str(tmp_path / "missing.txt")) == expected
    assert run_cli(capsys, "analyze", "--per-file", *argv, str(tmp_path / "missing.txt")) == expected
    feed_stdin(monkeypatch, b"")
    assert run_cli(capsys, "analyze", *argv) == expected


@pytest.mark.parametrize("cpus, jobs, can_fork, workers", [
    (3, 1, True, None), (3, 5, False, None), (1, 5, True, None),
    (3, 2, True, 2), (3, 5, True, 3), (2, 5, True, 2), (16, 5, True, 5), (16, 20, True, corpus.MAX_WORKERS),
])
def test_map_forks_one_process_per_cpu_and_job_up_to_max_workers(tmp_path, monkeypatch, cpus, jobs, can_fork,
                                                                 workers):
    # one group per small file, as --per-file makes them: one job per group
    paths = []
    for j in range(jobs):
        path = tmp_path / f"doc{j:02d}.txt"
        path.write_bytes(b"a b\n")
        paths.append(str(path))
    fork_maps = _spy_fork_maps(monkeypatch)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    if not can_fork:
        monkeypatch.setattr(corpus, "_can_fork", lambda: False)
    parent = os.getpid()
    results = corpus._count_groups([[p] for p in paths], TokenizerConfig(),
                                   lambda g, spec: (g, spec.points, os.getpid() == parent))
    assert [(g, points) for g, points, _ in results] == [(j, {1: 2}) for j in range(jobs)]
    # None: no fork map, every group counted in this process
    assert fork_maps == ([] if workers is None else [workers])
    assert all(in_parent for _, _, in_parent in results) == (workers is None)


@pytest.mark.parametrize("missing", [0, 1, 10, 19])  # the parent's share and children's
def test_per_file_missing_input_in_a_fork_map_is_the_serial_io_error(tmp_path, monkeypatch, capsys, missing):
    paths = []
    for i in range(20):
        path = tmp_path / f"doc{i:02d}.txt"
        if i != missing:
            path.write_text(f"a a b c{i} café", encoding="utf-8")
        paths.append(str(path))
    # the missing path is planned as the mean size of the files beside it,
    # so it falls in the share of its place and the 20 groups make 3 shares
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    serial = run_cli(capsys, "analyze", "--per-file", *paths)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
    fork_maps = _spy_fork_maps(monkeypatch)
    plans = _spy_plans(monkeypatch)
    code, out, err = run_cli(capsys, "analyze", "--per-file", *paths)
    assert fork_maps == [3] and len(plans[0]) == 3
    assert [w for w, share in enumerate(plans[0]) for _, source, _ in share if source == paths[missing]] == [
        {0: 0, 1: 0, 10: 1, 19: 2}[missing]]
    assert (code, out, err) == serial
    assert code == 3 and out == ""
    assert err == f"zipfent: error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
    # every child was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_per_file_fit_window_beyond_a_files_data_is_a_recorded_fit_error(capsys):
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    zipf, two = os.path.join(inputs, "zipf.txt"), os.path.join(inputs, "two.txt")
    code, out, err = run_cli(capsys, "analyze", "--per-file", "--fit-kmin", "10", zipf, two)
    assert code == 2
    reports = json.loads(out)
    assert reports[0]["fit"]["k_min"] >= 10
    assert reports[1]["fit"] == {"error": "log-log fit needs at least 2 distinct frequencies in range, have 0"}
    assert err == f"zipfent: {two}: {reports[1]['fit']['error']}\n"
    # an explicit window that is empty stays a usage error
    code, out, err = run_cli(capsys, "analyze", "--fit-kmin", "10", "--fit-kmax", "5", zipf)
    assert (code, out, err) == (1, "", "zipfent: error: k_max (5) must be >= k_min (10)\n")


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


@pytest.mark.parametrize("k_cap", ["-3", "0"])
def test_sweep_bad_k_cap_is_usage_error(capsys, k_cap):
    # checked once, as gen checks it, not recorded as an error row per cell
    argv = ["sweep", "--a", "1,2", "--b", "2,3", "--k-cap", k_cap]
    assert run_cli(capsys, *argv) == (1, "", f"zipfent: error: k_cap must be >= 1, got {k_cap}\n")


def test_gen_infinite_intercept_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gen", "--a", "1", "--b", "inf")
    assert code == 1
    assert out == ""
    assert err == "zipfent: error: intercept b must be finite, got inf\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["gen", "--a", "inf", "--b", "1"], "slope a must be finite, got inf"),
     (["sweep", "--a", "1,inf", "--b", "1"], "slope grid must be finite, got inf")],
)
def test_infinite_slope_is_usage_error(capsys, argv, message):
    # refused as an infinite intercept is, not answered with the a -> inf limit
    assert run_cli(capsys, *argv) == (1, "", f"zipfent: error: {message}\n")


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


def test_analyze_with_stdin_closed_is_io_error():
    # with file descriptor 0 closed the interpreter starts with sys.stdin None
    proc = subprocess.run(
        [sys.executable, "-m", "zipfent", "analyze"],
        capture_output=True,
        text=True,
        preexec_fn=lambda: os.close(0),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "zipfent: error: stdin is closed\n")


@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_a_command_with_stdout_closed_is_io_error(tmp_path, command):
    # with file descriptor 1 closed the interpreter starts with sys.stdout None
    path = tmp_path / "in.txt"
    path.write_text("a a b c", encoding="utf-8")
    argv = ["sweep", "--a", "1", "--b", "1,2"] if command == "sweep" else ["analyze", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "zipfent", *argv],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (3, "zipfent: error: stdout is closed\n")


def stdout_that_fails(target: str) -> int:
    """A descriptor whose writes fail: /dev/full, or a pipe whose reader is gone."""
    if target == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        return os.open("/dev/full", os.O_WRONLY)
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("argv", [["analyze"], ["sweep", "--a", "1,2", "--b", "1,2,3"], ["gen", "--a", "1", "--b", "3"]])
def test_a_buffered_stdout_that_fails_is_one_io_error_line(tmp_path, argv, target):
    # without PYTHONUNBUFFERED the output waits in the buffer; the flush must
    # fail inside main, not at exit, where the interpreter prints "Exception
    # ignored" and exits 120
    path = tmp_path / "in.txt"
    path.write_text("a a b c", encoding="utf-8")
    if argv == ["analyze"]:
        argv = ["analyze", str(path)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    fd = stdout_that_fails(target)
    try:
        proc = subprocess.run([sys.executable, "-m", "zipfent", *argv], env=env, stdout=fd,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(fd)
    assert proc.returncode == 3
    assert proc.stderr.startswith("zipfent: error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["sweep", "--a", "1", "--b", "1,2"], ["gen", "--a", "1", "--b", "3"]])
def test_out_on_a_full_device_is_io_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert (code, out) == (3, "")
    assert err.startswith("zipfent: error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("a, b, k_cap", [(1.0, 0.0, None), (1.0, 5.0, None), (1.5, 6.0, 20), (2.0, 7.5, 3)])
def test_gen_rounded_streams_the_token_list(tmp_path, capsys, a, b, k_cap):
    spec = SyntheticSpec(a=a, b=b, mode="rounded_integer", k_cap=k_cap)
    expected = "\n".join(spectrum_to_corpus(generate_spectrum(spec))) + "\n"
    argv = ["gen", "--a", str(a), "--b", str(b)] + ([] if k_cap is None else ["--k-cap", str(k_cap)])
    assert run_cli(capsys, *argv) == (0, expected, "")
    target = tmp_path / "corpus.txt"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()


def test_gen_exact_csv_matches_dict_spectrum(capsys):
    eb = math.exp(3.0)
    law = FreqSpectrum.from_points({k: eb * k ** -1.5 for k in range(1, _law_k_max(1.5, 3.0) + 1)})
    assert run_cli(capsys, "gen", "--a", "1.5", "--b", "3", "--mode", "exact") == (0, "".join(spectrum_csv(law)), "")


def test_gen_exact_writes_rows_whose_total_overflows(capsys):
    # each F(k) is a finite float, their token total N is not; gen never sums it
    eb = math.exp(709.7)
    argv = ["gen", "--a", "1", "--b", "709.7", "--mode", "exact", "--k-cap", "2"]
    assert run_cli(capsys, *argv) == (0, f"k,F(k)\n1,{eb}\n2,{eb * 2.0**-1}\n", "")


def test_sweep_oversized_spectrum_is_a_cell_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--a", "1", "--b", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[1] == "1.0,40.0,,,,,,,,,"
    assert err.startswith("zipfent: sweep cell a=1.0 b=40.0: ") and "--k-cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    # the last is refused by the n(n+1)/2 lower bound; summing its 10^7 points takes seconds
    [["--a", "1", "--b", "14"], ["--a", "1", "--b", "50", "--k-cap", "2"], ["--a", "1", "--b", "30", "--k-cap", "10000000"]],
)
def test_gen_oversized_corpus_is_refused_before_output(tmp_path, capsys, argv):
    target = tmp_path / "corpus.txt"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gen", *argv, "--out", str(target))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == "" and not target.exists()
    assert err.startswith("zipfent: error: ") and "--k-cap" in err
    assert err.count("\n") == 1


_EDGE_VALUES = ["-1", "-0.5", "0", "nan", "inf", "-inf", "40", "800", "1e308"]
# with these slopes, b = 40 is refused or makes at most 2 points, so every
# accepted call stays small
_SLOPES = st.sampled_from(["0.5", "1", "1.5", "2"] + _EDGE_VALUES)
_INTERCEPTS = st.sampled_from(["0.5", "1", "2", "3"] + _EDGE_VALUES)


@settings(deadline=None)
@given(
    command=st.sampled_from(["gen", "sweep"]),
    a=st.lists(_SLOPES, min_size=1, max_size=3),
    b=st.lists(_INTERCEPTS, min_size=1, max_size=3),
    mode=st.sampled_from(["exact", "rounded"]),
    k_cap=st.one_of(st.none(), st.sampled_from(["1", "2", "5"] + _EDGE_VALUES)),
)
def test_gen_and_sweep_end_with_an_exit_code_never_an_exception(command, a, b, mode, k_cap):
    if command == "gen":
        argv = ["gen", f"--a={a[0]}", f"--b={b[0]}"]
    else:
        argv = ["sweep", f"--a={','.join(a)}", f"--b={','.join(b)}"]
    argv += ["--mode", mode] + ([] if k_cap is None else [f"--k-cap={k_cap}"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage exit
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def analyze_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyze-inputs")
    texts = {
        "text.txt": " ".join(f"w{i}" for i in range(1, 30) for _ in range(60 // i)).encode(),
        "empty.txt": b"",
        "invalid.txt": b"\xff\xfe caf\xc3 \x80 word\xed\xa0\x80 word",
        "word.txt": b"word\n",
    }
    for name, data in texts.items():
        (root / name).write_bytes(data)
    (root / "dir").mkdir()
    return root


_ANALYZE_VALUES = ["-1", "0", "1", "3", str(2**63), str(10**30), "x", ""]


# a fifth of the profile's examples: each one reads files and may fork
@settings(deadline=None, max_examples=settings().max_examples // 5)
@given(
    options=st.dictionaries(st.sampled_from(["--fit-kmin", "--fit-kmax", "--min-token-len"]),
                            st.sampled_from(_ANALYZE_VALUES)),
    flags=st.lists(st.sampled_from(["--per-file", "--no-lowercase", "--bits"]), unique=True),
    fmt=st.sampled_from([None, "json", "csv", "text"]),
    token_rule=st.sampled_from([None] + list(corpus.TOKEN_RULES)),
    inputs=st.lists(st.sampled_from(["text.txt", "empty.txt", "invalid.txt", "word.txt", "dir", "missing.txt"]),
                    min_size=1, max_size=3),
)
def test_analyze_ends_with_an_exit_code_never_an_exception(analyze_inputs, options, flags, fmt, token_rule, inputs):
    argv = ["analyze", *flags, *(f"{name}={value}" for name, value in options.items())]
    argv += ([] if fmt is None else ["--format", fmt]) + ([] if token_rule is None else ["--token-rule", token_rule])
    argv += [str(analyze_inputs / name) for name in inputs]
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage exit
            code, usage = exc.code, True
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if usage:
        # the usage, which may wrap, then one error line
        assert code == 1 and lines[-1].startswith("zipfent analyze: error: ")
        assert sum("error:" in line for line in lines) == 1
    elif code == 0:
        assert lines == []
    else:
        # one line per error: a fit error per file where --per-file reports each
        assert all(line.startswith("zipfent: ") for line in lines)
        assert 1 <= len(lines) <= (len(inputs) if code == 2 and "--per-file" in flags else 1)


# Hostile option values: non-finite and signed zeros, the extremes of the
# float range, a subnormal, an int past 64 bits, negatives, and non-numbers.
# With the small values beside them, every accepted gen or sweep call writes
# a few rows: a larger intercept is refused, or a large slope leaves k = 1
_HOSTILE = ["nan", "inf", "-inf", "0", "-0", "-0.0", "1e308", "-1e308", "5e-324", "2.2e-308", str(2**63),
            str(-2**63), "-1", "-2.5", "", "x"]
_SMALL = ["1", "1.5", "2", "3"]
_HOSTILE_VALUES = st.sampled_from(_SMALL + _HOSTILE)
_GRIDS = st.lists(_HOSTILE_VALUES, max_size=3).map(",".join)  # the empty list is an empty grid


def _analyze_argv(draw, root) -> tuple[list[str], int]:
    """argv of an analyze run over hostile inputs, and the most reports it makes."""
    argv = ["analyze"]
    for name in draw(st.lists(st.sampled_from(["--fit-kmin", "--fit-kmax", "--min-token-len"]), unique=True)):
        argv.append(f"{name}={draw(_HOSTILE_VALUES)}")
    argv += draw(st.lists(st.sampled_from(["--per-file", "--no-lowercase", "--bits"]), unique=True))
    argv += draw(st.lists(st.sampled_from(["--format=json", "--format=csv", "--format=text", "--token-rule=whitespace",
                                           "--token-rule=unicode_words"]), max_size=2))
    inputs = draw(st.lists(st.sampled_from(["text.txt", "empty.txt", "invalid.txt", "word.txt", "dir", "missing.txt"]),
                           max_size=3))
    argv += [str(root / name) for name in inputs]
    return argv, max(len(inputs), 1) if "--per-file" in argv else 1


# How the run's output fails, if it does
_STDOUTS = ["pipe", "closed", "broken pipe"] + (["/dev/full", "--out /dev/full"] if os.path.exists("/dev/full") else [])


@st.composite
def _hostile_runs(draw, root):
    """(argv, stdin bytes or None for a closed stdin, stdout kind, the most cells, the most reports)."""
    command = draw(st.sampled_from(["analyze", "gen", "sweep"]))
    cells = reports = 0
    if command == "analyze":
        argv, reports = _analyze_argv(draw, root)
    elif command == "gen":
        argv = ["gen", f"--a={draw(_HOSTILE_VALUES)}", f"--b={draw(_HOSTILE_VALUES)}"]
    else:
        a, b = draw(_GRIDS), draw(_GRIDS)
        argv = ["sweep", f"--a={a}", f"--b={b}"]
        cells = len(a.split(",")) * len(b.split(","))
    if command != "analyze":
        argv += draw(st.lists(st.sampled_from(["--mode=exact", "--mode=rounded"]), max_size=1))
        argv += draw(st.lists(_HOSTILE_VALUES.map("--k-cap={}".format), max_size=1))
    stdout = draw(st.sampled_from(_STDOUTS))
    if stdout == "--out /dev/full":
        argv.append("--out=/dev/full")
    stdin = draw(st.sampled_from(["text.txt", "empty.txt", "invalid.txt", None]))
    return argv, None if stdin is None else (root / stdin).read_bytes(), stdout, cells, reports


def _run_module(argv: list[str], stdin: bytes | None, stdout: str) -> subprocess.CompletedProcess:
    """python -m zipfent argv in a new process, its stdin closed or fed, its stdout as named."""
    # buffered, so that a failing stdout fails at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    closed = ([0] if stdin is None else []) + ([1] if stdout == "closed" else [])
    fd = None
    if stdout in ("/dev/full", "broken pipe"):
        fd = stdout_that_fails(stdout)
    try:
        return subprocess.run(
            [sys.executable, "-m", "zipfent", *argv], input=stdin, env=env,
            stdout=fd if fd is not None else subprocess.DEVNULL if stdout == "closed" else subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=60, preexec_fn=lambda: [os.close(n) for n in closed],
        )
    finally:
        if fd is not None:
            os.close(fd)


# a third of the profile's examples: each one starts an interpreter
@settings(deadline=None, max_examples=max(settings().max_examples // 3, 1))
@given(data=st.data())
def test_every_run_of_the_module_ends_with_an_exit_code_and_one_line_per_error(analyze_inputs, data):
    argv, stdin, stdout, cells, reports = data.draw(_hostile_runs(analyze_inputs))
    proc = _run_module(argv, stdin, stdout)
    err = proc.stderr.decode("utf-8")
    assert proc.returncode in (0, 1, 2, 3), err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    lines = err.splitlines()
    if proc.returncode == 1 and lines and lines[0].startswith("usage: "):
        # argparse's usage, which may wrap, then one error line
        assert lines[-1].startswith(f"zipfent {argv[0]}: error: ")
        assert sum(": error: " in line for line in lines) == 1
        return
    assert all(line.startswith("zipfent: ") for line in lines), err
    errors = [line for line in lines if line.startswith("zipfent: error: ")]
    cell_lines = [line for line in lines if line.startswith("zipfent: sweep cell ")]
    fit_lines = len(lines) - len(errors) - len(cell_lines)
    # one line per refused sweep cell, and per report whose fit fails
    assert len(cell_lines) <= cells and fit_lines <= reports, err
    if proc.returncode == 0:
        assert errors == [] and fit_lines == 0, err
    elif proc.returncode == 2 and not errors:
        assert argv[0] == "analyze" and fit_lines >= 1, err
    else:
        # one error line, the last: what ended the run
        assert errors == lines[-1:], err
