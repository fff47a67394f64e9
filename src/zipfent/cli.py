"""Command-line front end: analyze, gen, and sweep subcommands.

Reports go to stdout (or --out), diagnostics to stderr, so the tool composes
in pipelines.  Exit codes: 0 success, 1 usage error, 2 data error (empty
corpus, insufficient fit points), 3 I/O error.

Each command imports the modules it runs when it starts: ``analyze`` the
corpus, report and spectrum modules, ``gen`` and ``sweep`` the synth module.
So a sweep never loads the corpus, fit or report code, nor ``json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator

from .errors import EmptyCorpusError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

_MODE_NAMES = {"exact": "exact_real", "rounded": "rounded_integer"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2 for
    # data errors and uses 1 for usage
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zipfent",
        description="Word-frequency spectra, power-law fits, and entropy bounds for text corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="tokenize text and report spectrum, fit, entropy, and bound")
    p.add_argument("paths", nargs="*", metavar="FILE", help="input text files; stdin when omitted")
    p.add_argument("--lowercase", action=argparse.BooleanOptionalAction, default=True,
                   help="case-fold tokens (default on)")
    p.add_argument("--token-rule", choices=("unicode_words", "whitespace"), default="unicode_words",
                   help="how text is split into words")
    p.add_argument("--min-token-len", type=int, default=1, metavar="N",
                   help="drop tokens shorter than N characters")
    p.add_argument("--fit-kmin", type=int, default=None, metavar="K",
                   help="lowest frequency included in the fit")
    p.add_argument("--fit-kmax", type=int, default=None, metavar="K",
                   help="highest frequency included in the fit")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json",
                   help="json report (default), csv spectrum, or human-readable text")
    p.add_argument("--bits", action="store_true",
                   help="also show bit-denominated entropy in text output")
    p.add_argument("--per-file", action="store_true",
                   help="one report per input file instead of pooling")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p = sub.add_parser("gen", help="emit a deterministic synthetic power-law corpus or spectrum")
    p.add_argument("--a", type=float, required=True, help="slope magnitude, must be >= 1")
    p.add_argument("--b", type=float, required=True, help="intercept in natural-log units, must be >= 0")
    p.add_argument("--mode", choices=("exact", "rounded"), default="rounded",
                   help="rounded emits corpus text, exact emits the real-valued spectrum as CSV")
    p.add_argument("--k-cap", type=int, default=None, metavar="K", help="truncate the spectrum at K")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p = sub.add_parser("sweep", help="entropy vs bound over an (a, b) grid, as CSV")
    p.add_argument("--a", required=True, metavar="LIST", help="comma-separated slopes, all >= 1")
    p.add_argument("--b", required=True, metavar="LIST", help="comma-separated intercepts")
    p.add_argument("--mode", choices=("exact", "rounded"), default="exact")
    p.add_argument("--k-cap", type=int, default=None, metavar="K")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    return parser


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks, as they are made, to out_path or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    elif sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError("stdout is closed")
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError:
            # what stays buffered is flushed again at exit, outside main's
            # handlers; with /dev/null under the descriptor that flush passes
            try:
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
            except OSError:  # a stream without a descriptor
                pass
            raise


def _cmd_analyze(args) -> int:
    from . import corpus
    from .fit import _check_window
    from .report import build_report, report_json, report_json_array, report_text
    from .spectrum import spectrum_csv

    if args.per_file and args.format == "csv":
        raise ValueError("--per-file cannot be combined with --format csv")
    config = corpus.TokenizerConfig(
        lowercase=args.lowercase,
        min_token_length=args.min_token_len,
        token_rule=args.token_rule,
    )
    _check_window(args.fit_kmin if args.fit_kmin is not None else 1, args.fit_kmax)
    if not args.paths and sys.stdin is None:  # started with file descriptor 0 closed
        raise OSError("stdin is closed")
    # pooled is one group of every input, --per-file one group per input;
    # stdin is one input, read as it is
    inputs = args.paths or [sys.stdin.buffer]
    groups = [[p] for p in inputs] if args.per_file else [inputs]

    def report_group(g: int, spec) -> tuple[str, str | None, str | None]:
        """(label, output, fit error) of group g, made where its spectrum is made.

        The output is the report rendered in the chosen format, or the
        spectrum for csv; it is None when the group has no words.
        """
        labels = groups[g] if args.paths else ["-"]
        if spec is None:
            return labels[0], None, None
        report = build_report(spec, config, labels, args.fit_kmin, args.fit_kmax)
        if args.format == "json":
            output = report_json(report)
        elif args.format == "csv":
            output = "".join(spectrum_csv(spec))
        else:
            output = report_text(report, args.bits)
        return labels[0], output, report["fit"].get("error")

    # the messages wait until every input is read, so an I/O error on a
    # later input takes precedence
    reports = corpus._count_groups(groups, config, report_group)
    empty = [label for label, output, _ in reports if output is None]
    if empty:
        raise EmptyCorpusError(f"empty corpus: {empty[0]}" if args.per_file else "empty corpus")

    status = EXIT_OK
    for label, _, fit_error in reports:
        if fit_error is not None:
            where = f"{label}: " if args.per_file else ""
            print(f"zipfent: {where}{fit_error}", file=sys.stderr)
            status = EXIT_DATA
    # each report is held once: the array and the text blocks are made a
    # report at a time as they are written
    outputs = (output for _, output, _ in reports)
    if not args.per_file:
        chunks = outputs
    elif args.format == "json":
        chunks = report_json_array(outputs)
    else:
        chunks = _text_blocks(reports)
    _emit(chunks, args.out)
    return status


def _text_blocks(reports: list[tuple[str, str, str | None]]) -> Iterator[str]:
    """The text reports of --per-file, each under its "== label ==" line, with an empty line between two."""
    for i, (label, output, _) in enumerate(reports):
        yield ("\n" if i else "") + f"== {label} ==\n"
        yield output


def _cmd_gen(args) -> int:
    from . import synth

    spec = synth.SyntheticSpec(a=args.a, b=args.b, mode=_MODE_NAMES[args.mode], k_cap=args.k_cap)
    make = synth.generate_corpus if spec.mode == "rounded_integer" else synth.generate_csv
    _emit(make(spec), args.out)
    return EXIT_OK


def _parse_grid(raw: str) -> list[float]:
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"invalid grid value {part!r}: expected a number") from None
    return values


def _cmd_sweep(args) -> int:
    from . import synth

    rows = synth.sweep(
        _parse_grid(args.a), _parse_grid(args.b), mode=_MODE_NAMES[args.mode], k_cap=args.k_cap
    )
    for row in rows:
        if row.error is not None:
            print(f"zipfent: sweep cell a={row.a} b={row.b}: {row.error}", file=sys.stderr)
    _emit([synth.sweep_csv(rows)], args.out)
    return EXIT_OK


# bench/tracer.py wraps these names on this module.  The commands import what
# they run, so no call goes through these names and their spans stay empty.
# They resolve from the package on first access, and read_text,
# count_frequencies and merge, which the package no longer has, to _removed.
_TRACER_NAMES = ("read_text", "tokenize", "count_frequencies", "merge", "build_report", "report_json")


def _removed(*args, **kwargs):
    raise NotImplementedError("zipfent no longer has this function")


def __getattr__(name: str):
    if name not in _TRACER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name, _removed)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_sweep(args)
    except ValueError as exc:
        print(f"zipfent: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyCorpusError as exc:
        print(f"zipfent: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"zipfent: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
