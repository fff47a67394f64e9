"""Record the CLI golden cases: stdout, stderr and exit code of each command.

Usage (from the repository root): PYTHONPATH=src python tests/golden/record.py

Runs every case below through ``zipfent.cli.main`` inside ``inputs/`` and
writes ``cases.json`` next to this file; ``tests/test_golden.py`` replays
them.  Re-record only when an output is meant to change, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from zipfent.cli import main

HERE = Path(__file__).parent

# (name, argv, input file fed to stdin or None)
CASES = [
    ("json", ["analyze", "zipf.txt"], None),
    ("text", ["analyze", "--format", "text", "zipf.txt"], None),
    ("text_bits", ["analyze", "--format", "text", "--bits", "zipf.txt"], None),
    ("csv", ["analyze", "--format", "csv", "zipf.txt"], None),
    ("stdin_json", ["analyze"], "zipf.txt"),
    ("pooled_json", ["analyze", "zipf.txt", "two.txt"], None),
    ("pooled_text", ["analyze", "--format", "text", "--bits", "zipf.txt", "two.txt"], None),
    ("pooled_csv", ["analyze", "--format", "csv", "zipf.txt", "two.txt"], None),
    ("per_file_json", ["analyze", "--per-file", "zipf.txt", "two.txt", "flat.txt"], None),
    ("per_file_text", ["analyze", "--per-file", "--format", "text", "zipf.txt", "two.txt"], None),
    ("per_file_text_bits", ["analyze", "--per-file", "--format", "text", "--bits", "zipf.txt", "flat.txt"], None),
    ("per_file_stdin", ["analyze", "--per-file"], "two.txt"),
    ("fit_window", ["analyze", "--fit-kmin", "2", "--fit-kmax", "10", "zipf.txt"], None),
    ("fit_window_text", ["analyze", "--format", "text", "--fit-kmin", "2", "--fit-kmax", "10", "zipf.txt"], None),
    ("fit_window_empty", ["analyze", "--fit-kmin", "500", "zipf.txt"], None),
    ("fit_kmin_zero", ["analyze", "--fit-kmin", "0", "zipf.txt"], None),
    ("whitespace", ["analyze", "--token-rule", "whitespace", "zipf.txt"], None),
    ("no_lowercase", ["analyze", "--no-lowercase", "zipf.txt"], None),
    ("min_token_len_2", ["analyze", "--min-token-len", "2", "zipf.txt"], None),
    ("flags_text", ["analyze", "--format", "text", "--no-lowercase", "--token-rule", "whitespace",
                    "--min-token-len", "2", "zipf.txt", "two.txt"], None),
    ("single_word_json", ["analyze", "single.txt"], None),
    ("single_word_text", ["analyze", "--format", "text", "single.txt"], None),
    ("single_word_csv", ["analyze", "--format", "csv", "single.txt"], None),
    ("single_word_per_file", ["analyze", "--per-file", "single.txt", "zipf.txt"], None),
    ("not_applicable_json", ["analyze", "flat.txt"], None),
    ("not_applicable_text", ["analyze", "--format", "text", "flat.txt"], None),
    ("per_file_empty", ["analyze", "--per-file", "one.txt", "empty.txt"], None),
    ("per_file_empty_and_fit_error", ["analyze", "--per-file", "single.txt", "empty.txt"], None),
    ("empty", ["analyze", "empty.txt"], None),
    ("empty_stdin", ["analyze"], "empty.txt"),
    ("missing", ["analyze", "zipf.txt", "missing.txt"], None),
    ("per_file_csv", ["analyze", "--per-file", "--format", "csv", "zipf.txt"], None),
    # punct.txt: non-ASCII punctuation inside and around words, `_`, İ, and
    # invalid bytes next to words
    ("punct_json", ["analyze", "punct.txt"], None),
    ("punct_whitespace", ["analyze", "--token-rule", "whitespace", "punct.txt"], None),
    ("punct_no_lowercase", ["analyze", "--no-lowercase", "punct.txt"], None),
    ("sweep_exact", ["sweep", "--a", "1,1.5,2", "--b", "2,4,6"], None),
    ("sweep_rounded", ["sweep", "--a", "1,2", "--b", "2,4", "--mode", "rounded"], None),
    ("sweep_rounded_k_cap", ["sweep", "--a", "1.5", "--b", "3,5", "--mode", "rounded", "--k-cap", "5"], None),
    ("sweep_errors", ["sweep", "--a", "1", "--b=-1,3,40,800,inf"], None),
    ("gen_exact", ["gen", "--a", "1", "--b", "6", "--mode", "exact"], None),
    ("gen_exact_k_cap", ["gen", "--a", "1.5", "--b", "8", "--mode", "exact", "--k-cap", "40"], None),
    ("gen_rounded", ["gen", "--a", "1", "--b", "3"], None),
    ("gen_rounded_k_cap", ["gen", "--a", "1.2", "--b", "4", "--k-cap", "6"], None),
    ("gen_refused", ["gen", "--a", "1", "--b", "14"], None),
    ("gen_small_slope", ["gen", "--a", "0.5", "--b", "1"], None),
]


def run(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv), run inside inputs/."""
    out, err = io.StringIO(), io.StringIO()
    cwd, saved_stdin = os.getcwd(), sys.stdin
    os.chdir(HERE / "inputs")
    try:
        if stdin is not None:
            sys.stdin = io.TextIOWrapper(io.BytesIO(Path(stdin).read_bytes()), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def record() -> list[dict]:
    cases = []
    for name, argv, stdin in CASES:
        code, out, err = run(argv, stdin)
        cases.append({"name": name, "argv": argv, "stdin": stdin, "code": code, "stdout": out, "stderr": err})
    return cases


if __name__ == "__main__":
    text = json.dumps(record(), indent=1, ensure_ascii=False) + "\n"
    (HERE / "cases.json").write_text(text, encoding="utf-8")
