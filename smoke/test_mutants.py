"""Mutants of the code that counts, routes and exchanges words, each killed by the tier-1 test named beside it.

Each mutant is a one-line edit of a copy of this checkout's src/ in a temporary directory.  The tier-1 test that
kills it runs against that copy in a subprocess with a timeout, and must fail; the files of this checkout are never
edited.  A mutant whose line is no longer in its file fails here, so that a change to the code updates its mutant.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name: (file under src/zipfent, a line of it, the mutant's line, the tier-1 test that kills the mutant)
MUTANTS = {
    "the histogram keeps short words": (
        "corpus.py",
        "return Counter(compress(table.values(), map(n.__le__, map(len, table))) if n > 1 else table.values())",
        "return Counter(table.values())",
        "tests/test_corpus.py::test_count_spectrum_drops_words_shorter_than_the_minimum",
    ),
    "a word's owner is computed from its count": (
        "corpus.py",
        "dest = bytes(map(mod, map(hash, words), repeat(owners)))",
        "dest = bytes(map(mod, map(hash, ns), repeat(owners)))",
        "tests/test_corpus.py::test_a_shares_words_go_to_their_owners_in_batches",
    ),
    "the exchange posts a job's bytes to the job before it": (
        "_exchange.py",
        "mail[to].append(data)",
        "mail[to - 1].append(data)",
        "tests/test_corpus.py::test_fork_map_exchanges_in_job_order_with_the_parent_taking_job_zero",
    ),
    "an owner adds every word it is sent straight into its kept table": (
        "corpus.py",
        "known = list(map(table.__contains__, words))",
        "known = [True] * len(words)",
        "tests/test_corpus.py::test_an_owner_counts_the_words_its_table_lacks_in_a_second_table",
    ),
    "a fork map starts while other threads run": (
        "corpus.py",
        'if not hasattr(os, "fork") or threading and threading.active_count() > 1:',
        'if not hasattr(os, "fork"):',
        "tests/test_corpus.py::test_a_large_file_is_one_share_counted_in_process_while_another_thread_runs",
    ),
    "a long piece is split into a list of its words": (
        "corpus.py",
        r'return text.split() if len(text) <= 2 * CHUNK_SIZE else map(re.Match.group, re.finditer(r"\S+", text))',
        "return text.split()",
        "tests/test_corpus.py::test_the_words_of_a_long_piece_are_counted_not_listed",
    ),
    # adding every term (last = k_hi) lists 8.9M floats twice at b=16, about 740 MB; 4096 times the direct
    # terms costs about as much time against b=4's few, in little memory
    "the power sums add 4096 times the terms directly": (
        "synth.py",
        "last = min(k_hi, k_lo + _DIRECT_TERMS - 1)",
        "last = min(k_hi, k_lo + 4096 * _DIRECT_TERMS - 1)",
        "tests/test_synth.py::test_the_exact_cell_of_b_16_costs_about_what_b_4_costs",
    ),
}


def copy_src(tmp_path) -> str:
    """A copy of this checkout's src/ under tmp_path; its path."""
    src = str(tmp_path / "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(src, *argv, timeout=90):
    """Exit code and output of python argv, run beside src with the package in src imported first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # in the directory above src, so that the Hypothesis database is written there
    proc = subprocess.run([sys.executable, *argv], cwd=os.path.dirname(src), env=env, capture_output=True,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout + proc.stderr


def tier1(src, *nodes):
    """Exit code and output of pytest running the tier-1 test nodes of this checkout against the package in src."""
    return run(src, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(os.path.join(ROOT, node) for node in nodes))


def test_every_killing_test_passes_on_the_code_as_it_is(tmp_path):
    src = copy_src(tmp_path)
    imported = run(src, "-c", "import zipfent; print(zipfent.__file__)")
    assert imported == (0, os.path.join(src, "zipfent", "__init__.py") + "\n")
    code, out = tier1(src, *dict.fromkeys(node for _, _, _, node in MUTANTS.values()))
    assert code == 0, out


@pytest.mark.parametrize("name", MUTANTS)
def test_the_mutant_is_killed(tmp_path, name):
    file, line, mutant, node = MUTANTS[name]
    src = copy_src(tmp_path)
    path = os.path.join(src, "zipfent", file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    assert text.count(line) == 1, f"{file} holds {text.count(line)} copies of {line!r}"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(line, mutant))
    code, out = tier1(src, node)
    # 1: a test failed; not 2 or 4, where the copy did not import or the node was not found
    assert code == 1 and " failed" in out, f"{name}: {node} exited {code}\n{out}"
