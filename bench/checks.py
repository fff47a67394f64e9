"""Output checks for the benchmark's workloads.

Each check compares one zipfent output with values the benchmark worked out
itself (see ``inputs``) and raises ``CheckError`` on the first mismatch.
Nothing here imports zipfent; the report schema is read as a plain file.
"""

from __future__ import annotations

import json
import math

import jsonschema

from inputs import TextStats

ENTROPY_REL_TOL = 1e-12
SLACK_TOL = 1e-9
N_REL_TOL = 1e-12

SWEEP_HEADER = "a,b,N,M,entropy_nats,bound_nats,margin_nats,sandwich_lo,sandwich_hi,n_bound,ratio"


class CheckError(Exception):
    """An output differs from what the benchmark expects."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _expect_close(what: str, got: float, want: float, rel: float) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=0.0):
        raise CheckError(f"{what}: got {got!r}, expected {want!r} within {rel:g} relative")


def load_validator(schema_path):
    with open(schema_path, encoding="utf-8") as f:
        schema = json.load(f)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def check_report(report: dict, want: TextStats, label: str, validator) -> None:
    """One ``analyze`` JSON report against the generator's statistics."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(report))
    if error is not None:
        raise CheckError(f"{label}: report violates the schema: {error.message}")
    _expect(f"{label}: n_tokens", report["n_tokens"], want.n_tokens)
    _expect(f"{label}: vocab_size", report["vocab_size"], want.vocab_size)
    _expect(f"{label}: max_frequency", report["max_frequency"], want.max_frequency)
    _expect(f"{label}: spectrum.distinct_k", report["spectrum"]["distinct_k"], want.distinct_k)
    _expect(f"{label}: spectrum.k_max", report["spectrum"]["k_max"], want.k_max)
    _expect_close(f"{label}: entropy.nats", report["entropy"]["nats"], want.entropy_nats, ENTROPY_REL_TOL)
    _expect(f"{label}: config.inputs", report["config"]["inputs"], [label])


def check_analyze(output: bytes, want: TextStats, label: str, validator) -> None:
    """Output of a pooled ``analyze`` of one file."""
    check_report(json.loads(output), want, label, validator)


def check_analyze_per_file(output: bytes, want: list[TextStats], labels: list[str], validator) -> None:
    """Output of ``analyze --per-file``: one report per file, in argument order."""
    reports = json.loads(output)
    if not isinstance(reports, list):
        raise CheckError("--per-file output is not a JSON array")
    _expect("number of reports", len(reports), len(want))
    for report, stats, label in zip(reports, want, labels):
        check_report(report, stats, label, validator)


def check_sweep(output: bytes, cells: list[tuple[float, float]], expected: dict) -> None:
    """Exact-mode ``sweep`` CSV.

    ``cells`` lists (a, b) in grid order; ``expected`` maps each cell with
    b >= 0 to its (k_max, N).  Cells with b < 0 must be error rows.
    """
    lines = output.decode("utf-8").splitlines()
    _expect("sweep header", lines[0] if lines else None, SWEEP_HEADER)
    rows = [line.split(",") for line in lines[1:]]
    _expect("sweep row count", len(rows), len(cells))
    for row, (a, b) in zip(rows, cells):
        where = f"sweep row a={a} b={b}"
        _expect(f"{where}: field count", len(row), 11)
        _expect(f"{where}: (a, b)", (float(row[0]), float(row[1])), (a, b))
        if b < 0:
            _expect(f"{where}: error row fields", row[2:], [""] * 9)
            continue
        if "" in row:
            raise CheckError(f"{where}: unexpected empty field")
        k_max, n = expected[(a, b)]
        _expect(f"{where}: M", int(row[3]), k_max)
        _expect_close(f"{where}: N", float(row[2]), n, N_REL_TOL)
        if not float(row[6]) >= 0:
            raise CheckError(f"{where}: margin {row[6]} < 0")
        for name, value in zip(("sandwich_lo", "sandwich_hi", "n_bound", "ratio"), row[7:]):
            if not float(value) >= -SLACK_TOL:
                raise CheckError(f"{where}: {name} slack {value} < -{SLACK_TOL}")


def check_gen_corpus(path, tokens: int, words: int) -> None:
    """Rounded-mode ``gen`` corpus: one token per line, counted without loading it whole."""
    seen: set[bytes] = set()
    n = 0
    tail = b""
    with open(path, "rb") as f:
        while chunk := f.read(1 << 23):
            lines = (tail + chunk).split(b"\n")
            tail = lines.pop()
            n += len(lines)
            seen.update(lines)
    if tail:
        raise CheckError("gen output does not end with a newline")
    if b"" in seen:
        raise CheckError("gen output holds an empty line")
    _expect("gen token count", n, tokens)
    _expect("gen distinct words", len(seen), words)
