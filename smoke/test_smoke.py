"""The command line on full-size inputs, CPU sets and pipes: python -m zipfent from this checkout's src."""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
from zipfent.corpus import PARALLEL_MIN_BYTES  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
# The parent of each command, as Linux carries the spawning process's memory high-water mark into the child's
# ru_maxrss at exec.  Runs argv[1:] and ends stderr with a line of that command's exit code and ru_maxrss (KiB).
LAUNCHER = """import os, sys
_, status, usage = os.wait4(os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ), 0)
os.write(2, b"\\n%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))"""

ALL = sorted(os.sched_getaffinity(0))
ONE, TWO = ALL[:1], ALL[:2]
NO_CPU_SETS = "taskset is missing" if shutil.which("taskset") is None else "fewer than 2 CPUs are allowed"
cpu_sets = pytest.mark.skipif(shutil.which("taskset") is None or len(ALL) < 2, reason=NO_CPU_SETS)


def run(*argv, cpus=None, stdin=b"", timeout=120, flags=(), stdout=subprocess.PIPE):
    """Exit code, stdout bytes (b"" where stdout is a file), stderr text and peak MB of zipfent argv on cpus."""
    cmd = [sys.executable, *flags, "-m", "zipfent", *argv]
    cmd = cmd if cpus is None else ["taskset", "-c", ",".join(map(str, cpus)), *cmd]
    # a new session, so that a timeout kills the launcher, the command and its workers as one process group
    with subprocess.Popen([sys.executable, "-c", LAUNCHER, *cmd], stdin=subprocess.PIPE, stdout=stdout,
                          stderr=subprocess.PIPE, start_new_session=True, env=ENV) as proc:
        try:
            out, err = proc.communicate(stdin, timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"zipfent {' '.join(argv)} still ran after {timeout} s")
    err, _, tail = err.rpartition(b"\n")
    code, rss = map(int, tail.split())
    return code, out or b"", err.decode(), rss / 1024


def same_on_one_cpu(*argv, cpus=None):
    """The stdout of zipfent argv on cpus (unpinned where None), asserted to exit 0 as on one CPU, to the same bytes."""
    (code, out, err, _), (code1, one, err1, _) = run(*argv, cpus=cpus), run(*argv, cpus=ONE)
    assert (code, code1) == (0, 0), err + err1
    assert out == one, f"zipfent {' '.join(argv)} wrote other bytes on CPUs {cpus or ALL} than on CPU {ONE[0]}"
    return out


def write_words(path, rng, n, number=lambda r: int(r.paretovariate(1)),
                words=("café", "Straße", "naïve", "«x»", "a—b")):
    """Write n tokens of a word, a number and a space or newline, drawn from rng; return str(path)."""
    path.write_text("".join(rng.choice(words) + str(number(rng)) + rng.choice(" \n") for _ in range(n)), "utf-8")
    return str(path)


def cut(path):
    """str(path), asserted to be cut across CPUs: a larger threshold must not make a test of the cut serial."""
    assert os.path.getsize(path) >= PARALLEL_MIN_BYTES
    return str(path)


@cpu_sets
def test_a_large_file_and_a_document_set_count_to_the_same_bytes_on_one_cpu(tmp_path):
    """A large file is counted in worker processes, and a document set in one byte share per CPU, pooled or
    --per-file, with the large file cut where a share's edge falls inside it.  With one CPU allowed each runs in
    one process, to the same report bytes, and a missing input is an I/O error."""
    big = cut(write_words(tmp_path / "big.txt", random.Random(1), 1_200_000))
    r = random.Random(2)
    docs = [write_words(tmp_path / f"doc{i:02d}.txt", r, 2000) for i in range(64)]
    for inputs in ([big], ["--per-file", *docs], docs, ["--per-file", *docs, big], [*docs, big]):
        same_on_one_cpu("analyze", *inputs)
    assert run("analyze", "--per-file", *docs[:10], str(tmp_path / "missing.txt"), *docs[10:20])[:2] == (3, b"")


@cpu_sets
def test_a_wide_vocabulary_handed_off_between_ranges_is_the_same_on_one_cpu(tmp_path):
    """Each range keeps the words whose hash falls to it and sends the others to their owners through the zipfent
    process, which sums the owners' histograms.  So on a wide vocabulary (453k words) each output is as on one CPU
    under both rules, and the zipfent process peaks on 2 CPUs at most 0.75 of its peak on one."""
    number = lambda r: r.randrange(200_000) if r.random() < 0.5 else int(r.paretovariate(1))  # noqa: E731
    wide = cut(write_words(tmp_path / "wide.txt", random.Random(4), 1_200_000, number,
                           ("café", "Straße", "naïve", "x", "a—b")))
    for rule in ["unicode_words", "whitespace"]:
        for flags in [(), ("--format", "csv"), ("--min-token-len", "3")]:
            same_on_one_cpu("analyze", "--token-rule", rule, *flags, wide, cpus=TWO)
    same_on_one_cpu("analyze", wide, cpus=ALL)
    (code, _, err, two), (code1, _, err1, one) = run("analyze", wide, cpus=TWO), run("analyze", wide, cpus=ONE)
    assert (code, code1) == (0, 0), err + err1
    print(f"peak {two:.1f} MB on 2 CPUs, {one:.1f} MB on 1: ratio {two / one:.2f}")
    assert two <= 0.75 * one


@cpu_sets
def test_every_kernel_counts_what_the_regex_and_split_oracles_count(tmp_path):
    """A large file counts the byte tokens of its ranges; a pipe folds its pieces whole, but counts the byte tokens
    of a piece with a fold-split character, and moves its tokens that are not str.isalnum to them.  Each way must
    count what re.findall(r"\\w+") or text.split() count, folded or not, on a text of every fold-split character,
    letters that fold onto ASCII ones, punctuation, digits and invalid bytes, where 200 KiB blocks with and
    without fold-split characters alternate, so that byte-token pieces and pieces folded whole meet in a table."""
    is_word = lambda c: c.isalnum() or c == "_"  # noqa: E731
    # every character whose case fold changes its word-ness, from the Unicode tables
    splits = [c for c in map(chr, range(sys.maxunicode + 1))
              if c.casefold() != c and any(is_word(x) != is_word(c) for x in c.casefold())]
    frags = [s.encode("utf-8") for s in ["a", "Ab", "ZQ", "é", "É", "Straße", "Σ", "ς", "北", "i\u0307",
             "k", "\u212a", "s", "\u017f", "_", "7", "42", "²", "½", ",", ".", "'", "(", "-", "—",
             "«", "»", " ", "\t", "\r", "\x0b", "\x1f", "\x85", "\u2028"]]
    frags += [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]
    split_frags = frags + [c.encode("utf-8") for c in splits]
    r = random.Random(3)
    # tokens of one or two fragments recur, so a token counted under a wrong key changes vocab_size
    data = b" ".join(b"".join(r.choices(frags if i // 40_000 % 2 else split_frags, k=r.randint(1, 2)))
                     for i in range(2_400_000))
    assert len(splits) >= 28
    (tmp_path / "oracle.txt").write_bytes(data)
    oracle = cut(tmp_path / "oracle.txt")
    text = data.decode("utf-8", "replace")
    for flags, tokens in [((), map(str.casefold, re.findall(r"\w+", text))),
                          (("--no-lowercase",), re.findall(r"\w+", text)),
                          (("--token-rule", "whitespace"), map(str.casefold, text.split())),
                          (("--token-rule", "whitespace", "--no-lowercase"), text.split())]:
        counts = Counter(tokens)
        want = {"n_tokens": sum(counts.values()), "vocab_size": len(counts), "max_frequency": max(counts.values())}
        code, piped, err, _ = run("analyze", *flags, stdin=data)
        assert code == 0, err
        for out in same_on_one_cpu("analyze", *flags, oracle, cpus=TWO), piped:
            assert {k: json.loads(out)[k] for k in want} == want, flags


def test_per_file_reports_of_3000_documents_are_held_once(tmp_path, monkeypatch):
    """--per-file keeps each document's rendered report once and writes the JSON array and the text blocks a report
    at a time, so over 3,000 one-line documents the peak above a one-document run is at most 2.5 times the output,
    and the output is the same on one CPU.  The documents are named relative to the working directory, because the
    interpreter keeps several copies of its argv."""
    monkeypatch.chdir(tmp_path)
    r = random.Random(5)
    words = ["the", "of", "Straße", "café", "naïve", "x"]
    docs = [f"d{i:04d}.txt" for i in range(3000)]
    for i, doc in enumerate(docs):
        # "the" at least twice and a word of its own once, so that each fit has two points
        (tmp_path / doc).write_text(" ".join(["the", "the", *r.choices(words, k=r.randint(8, 30)), f"w{i}"]), "utf-8")
    for flags in [(), ("--format", "text")]:
        same_on_one_cpu("analyze", "--per-file", *flags, *docs)
    (code1, _, err1, one), (code, out, err, peak) = (run("analyze", "--per-file", *docs[:n]) for n in (1, 3000))
    assert (code1, code) == (0, 0), err1 + err
    print(f"{len(out) / 2**20:.2f} MB of output, peak {peak:.1f} MB; one document: peak {one:.1f} MB")
    assert (peak - one) * 2**20 <= 2.5 * len(out)


def test_a_file_without_a_separator_ends_with_the_fit_error_in_linear_time(tmp_path):
    """A file without a separator byte is one token, counted in linear time: the fit error (exit 2), not a timeout."""
    (tmp_path / "long.txt").write_bytes(b"x" * (64 << 20))
    for rule in ["whitespace", "unicode_words"]:
        assert run("analyze", "--token-rule", rule, str(tmp_path / "long.txt"), timeout=10)[0] == 2


def test_a_line_separated_only_by_non_ascii_punctuation_peaks_under_12_times_its_size(tmp_path):
    """A line whose words are separated only by "，。、" is one token of the ASCII pieces, converted to its words
    once: its words are matched one at a time and each distinct one is counted, so analyze of 3.6 MB of it peaks
    under 12 times its size (8 measured; 17 when its words were listed before they were counted, and 27 when each
    occurrence took an entry of the batch)."""
    r = random.Random(6)
    vocabulary = ["".join(chr(0x4E00 + r.randrange(20_000)) for _ in range(r.randint(1, 3))) for _ in range(5000)]
    words = r.choices(vocabulary, [1 / rank for rank in range(1, 5001)], k=410_000)
    data = "".join(word + "，。、"[i % 3] for i, word in enumerate(words)).encode("utf-8")
    (tmp_path / "line.txt").write_bytes(data)
    code, out, err, peak = run("analyze", str(tmp_path / "line.txt"))
    assert code == 0, err
    print(f"{len(data) / 2**20:.2f} MB on one line, peak {peak:.1f} MB: {peak * 2**20 / len(data):.1f} times its size")
    assert json.loads(out)["n_tokens"] == len(words)
    assert peak * 2**20 <= 12 * len(data)


def test_a_line_separated_only_by_non_ascii_whitespace_peaks_under_12_times_its_size(tmp_path):
    """A line whose words are separated only by U+3000 is one piece of the ASCII pieces, decoded and split at
    whitespace: its words are matched one at a time, so analyze of 3.6 MB of it peaks under 12 times its size
    (7 measured; 15 when the piece was split into a list of its words)."""
    r = random.Random(6)
    vocabulary = ["".join(chr(0x4E00 + r.randrange(20_000)) for _ in range(r.randint(1, 3))) for _ in range(5000)]
    words = r.choices(vocabulary, [1 / rank for rank in range(1, 5001)], k=410_000)
    data = "\u3000".join(words).encode("utf-8")
    (tmp_path / "line.txt").write_bytes(data)
    code, out, err, peak = run("analyze", str(tmp_path / "line.txt"))
    assert code == 0, err
    print(f"{len(data) / 2**20:.2f} MB on one line, peak {peak:.1f} MB: {peak * 2**20 / len(data):.1f} times its size")
    assert json.loads(out)["n_tokens"] == len(words)
    assert peak * 2**20 <= 12 * len(data)


def test_sweep_and_gen_take_the_law_of_b_16_in_closed_form_and_in_blocks():
    """sweep computes each cell from power sums, where a walk over the 8.9M points of a=1, b=16 would take seconds;
    gen writes rows a block at a time, so those 8.9M rows peak at most 15 MB above the 55 of b=4."""
    for mode in ["exact", "rounded"]:
        code, _, err, _ = run("sweep", "--a", "1", "--b", "16", "--mode", mode, timeout=3)
        assert code == 0, err
    _, _, _, small = run("gen", "--a", "1", "--b", "4", "--mode", "exact")
    with subprocess.Popen(["wc", "-l"], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as wc:
        code, _, err, large = run("gen", "--a", "1", "--b", "16", "--mode", "exact", stdout=wc.stdin)
        wc.stdin.close()
        lines = int(wc.stdout.read())
    print(f"b=16: {lines} lines, peak {large:.1f} MB; b=4: peak {small:.1f} MB")
    assert (code, lines) == (0, 8_886_111), err
    assert large <= small + 15


def test_each_subcommand_imports_only_the_modules_it_runs():
    """sweep and gen never load the corpus, report or fit modules, analyze never synth; none loads dataclasses,
    inspect or statistics (with its fractions and decimal), which cost more than a sweep's work; and without site
    (-S), which may import anything through a .pth file, none loads typing, pathlib or threading."""
    def imported(*argv, flags, stdin=b""):
        code, _, err, _ = run(*argv, stdin=stdin, flags=(*flags, "-X", "importtime"))
        assert code == 0, err
        return set(re.findall(r"^import time:.*\| *(\S+)$", err, re.M))
    heavy = {"dataclasses", "inspect", "statistics", "fractions", "decimal"}
    for flags, banned in [((), heavy), (("-S",), heavy | {"typing", "pathlib", "threading"})]:
        sweep, gen = (imported(cmd, "--a", "1", "--b", b, flags=flags) for cmd, b in [("sweep", "4"), ("gen", "3")])
        analyze = imported("analyze", flags=flags, stdin=b"a a b\n")
        assert {"zipfent.cli", "zipfent.synth"} <= sweep & gen and "zipfent.corpus" in analyze
        assert not (sweep | gen) & {"zipfent.corpus", "zipfent.report", "zipfent.fit"} and "zipfent.synth" not in analyze
        assert not (sweep | gen | analyze) & banned


def test_a_commands_peak_is_its_own_not_the_test_processs():
    """A test process that touched 256 MB reads a sweep's peak under 40 MB; spawned straight it would read 256 MB."""
    ballast = b"\1" * (256 << 20)  # noqa: F841
    code, _, err, peak = run("sweep", "--a", "1", "--b", "4")
    assert code == 0, err
    assert peak < 40
