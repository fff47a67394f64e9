"""What each subcommand imports, and the package's public names, which are
imported from their submodules on first access."""

import ast
import subprocess
import sys

import pytest

import zipfent
import zipfent.cli

# The public API, as the package listed it when it imported every submodule
PUBLIC = {
    "BoundNotApplicableError", "ChainDiagnostics", "EmptyCorpusError", "EntropyValue", "FreqSpectrum",
    "FrequencyTable", "InequalityResult", "InsufficientPointsError", "PowerLawFit", "SweepRow",
    "SyntheticSpec", "TokenizerConfig", "build_report", "chain_check", "count_frequencies", "count_stream",
    "entropy", "entropy_from_spectrum", "entropy_upper_bound", "fit_loglog", "freq_of_freq",
    "generate_spectrum", "merge", "read_text", "report_json", "report_schema", "report_text",
    "spectrum_csv", "spectrum_to_corpus", "sweep", "sweep_csv", "tokenize",
}

# Modules of the analyze stack that neither sweep nor gen runs
ANALYZE_ONLY = ("zipfent.corpus", "zipfent.report", "zipfent.fit", "json", "statistics")


def fresh_modules(code: str) -> set[str]:
    """The names in sys.modules after code runs in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(sorted(sys.modules), file=sys.stderr)"],
        capture_output=True, text=True, check=True,
    )
    return set(ast.literal_eval(done.stderr.splitlines()[-1]))


def run_main(argv: list[str]) -> str:
    return f"from zipfent.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("argv", [
    ["sweep", "--a", "1,1.5", "--b", "2,4"],
    ["sweep", "--a", "1", "--b", "3", "--mode", "rounded"],
    ["gen", "--a", "1", "--b", "3"],
    ["gen", "--a", "1", "--b", "3", "--mode", "exact"],
])
def test_sweep_and_gen_load_none_of_the_analyze_stack(argv):
    modules = fresh_modules(run_main(argv))
    assert "zipfent.synth" in modules
    assert modules.isdisjoint(ANALYZE_ONLY), sorted(modules.intersection(ANALYZE_ONLY))


@pytest.mark.parametrize("flags", [[], ["--per-file", "--format", "text"], ["--format", "csv"]])
def test_analyze_does_not_load_synth(tmp_path, flags):
    path = tmp_path / "words.txt"
    path.write_text("a a a b b c " * 3, encoding="utf-8")
    modules = fresh_modules(run_main(["analyze", *flags, "--out", str(tmp_path / "out"), str(path)]))
    assert "zipfent.corpus" in modules
    assert "zipfent.synth" not in modules


# Modules whose import costs a command more than its own work: dataclasses
# imports inspect, ast, dis and tokenize
HEAVY = ("dataclasses", "inspect")

# main(argv), which ends in argparse's SystemExit(0) for --help
RUN_OR_EXIT = """\
from zipfent.cli import main
try:
    assert main({argv!r}) == 0
except SystemExit as exc:
    assert exc.code == 0
"""


@pytest.mark.parametrize("argv", [
    ["sweep", "--a", "1,1.5", "--b", "2,4"],
    ["gen", "--a", "1", "--b", "3"],
    ["analyze"],
    ["analyze", "--per-file", "--format", "text"],
    ["analyze", "--format", "csv"],
    ["--help"],
])
def test_no_command_loads_dataclasses_or_inspect(tmp_path, argv):
    path = tmp_path / "words.txt"
    path.write_text("a a a b b c " * 3, encoding="utf-8")
    if argv[0] == "analyze":
        argv = [*argv, "--out", str(tmp_path / "out"), str(path)]
    modules = fresh_modules(RUN_OR_EXIT.format(argv=argv))
    assert "zipfent.cli" in modules
    assert modules.isdisjoint(HEAVY), sorted(modules.intersection(HEAVY))


def test_importing_the_package_loads_no_submodule():
    modules = fresh_modules("import zipfent")
    assert not {m for m in modules if m.startswith("zipfent.")}


def test_star_import_in_a_fresh_interpreter_binds_every_public_name():
    done = subprocess.run([sys.executable, "-c", "from zipfent import *\nprint(dir())"],
                          capture_output=True, text=True, check=True)
    assert PUBLIC <= set(ast.literal_eval(done.stdout))


def test_public_names_are_unchanged_and_resolve_to_their_defining_module():
    assert set(zipfent.__all__) == PUBLIC
    assert len(zipfent.__all__) == len(PUBLIC)
    namespace: dict = {}
    exec("from zipfent import *", namespace)
    for name in zipfent.__all__:
        obj = getattr(zipfent, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert obj.__module__.startswith("zipfent.")
        assert namespace[name] is obj
    from zipfent import SyntheticSpec, count_stream
    from zipfent.corpus import count_stream as defined
    from zipfent.synth import SyntheticSpec as defined_class

    assert (count_stream, SyntheticSpec) == (defined, defined_class)


def test_dir_covers_every_public_name_before_any_is_loaded():
    done = subprocess.run([sys.executable, "-c", "import zipfent\nprint(dir(zipfent))"],
                          capture_output=True, text=True, check=True)
    names = set(ast.literal_eval(done.stdout))
    assert PUBLIC | {"__version__", "__all__"} <= names
    assert set(dir(zipfent)) >= PUBLIC


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(zipfent, "no_such_name")
    with pytest.raises(ImportError):
        from zipfent import no_such_name  # noqa: F401
    assert not hasattr(zipfent, "MAX_WORKERS")
    assert not hasattr(zipfent.cli, "no_such_name")
    assert not hasattr(zipfent.cli, "sweep")


@pytest.mark.parametrize("name", ["read_text", "tokenize", "count_frequencies", "merge", "build_report", "report_json"])
def test_the_names_bench_tracer_wraps_on_cli_resolve(name):
    assert getattr(zipfent.cli, name) is getattr(zipfent, name)


@pytest.mark.parametrize("name", ["freq_of_freq", "entropy", "fit_loglog", "chain_check"])
def test_the_names_bench_tracer_wraps_on_report_resolve(name):
    assert getattr(zipfent.report, name) is getattr(zipfent, name)
