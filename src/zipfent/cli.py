"""Command-line front end: analyze, gen, and sweep subcommands.

Reports go to stdout (or --out), diagnostics to stderr, so the tool composes
in pipelines.  Exit codes: 0 success, 1 usage error, 2 data error (empty
corpus, insufficient fit points), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import BinaryIO, Iterator

from . import synth
from .corpus import TokenizerConfig, count_stream
# Not used here, but bench/tracer.py wraps these names on this module.
from .corpus import count_frequencies, merge, read_text, tokenize  # noqa: F401
from .errors import EmptyCorpusError
from .report import build_report, report_json, report_text
from .spectrum import freq_of_freq, spectrum_csv

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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _open_inputs(paths: list[str]) -> Iterator[tuple[str, BinaryIO]]:
    """(label, binary file) pairs, opened one at a time; "-" labels stdin."""
    if not paths:
        yield "-", sys.stdin.buffer
        return
    for p in paths:
        with open(p, "rb") as f:
            yield p, f


def _cmd_analyze(args) -> int:
    if args.per_file and args.format == "csv":
        raise ValueError("--per-file cannot be combined with --format csv")
    config = TokenizerConfig(
        lowercase=args.lowercase,
        min_token_length=args.min_token_len,
        token_rule=args.token_rule,
    )
    status = EXIT_OK

    if args.per_file:
        # every input is read before an empty one is reported, so an I/O
        # error on a later input takes precedence
        reports, empty = [], []
        for label, f in _open_inputs(args.paths):
            table = count_stream([f], config)
            if table.is_empty():
                empty.append(label)
            else:
                reports.append(build_report(table, config, [label], args.fit_kmin, args.fit_kmax))
        if empty:
            raise EmptyCorpusError(f"empty corpus: {empty[0]}")
        for rep in reports:
            if "error" in rep["fit"]:
                print(f"zipfent: {rep['config']['inputs'][0]}: {rep['fit']['error']}", file=sys.stderr)
                status = EXIT_DATA
        if args.format == "json":
            _emit(report_json(reports), args.out)
        else:
            blocks = [f"== {r['config']['inputs'][0]} ==\n" + report_text(r, args.bits) for r in reports]
            _emit("\n".join(blocks), args.out)
        return status

    table = count_stream((f for _, f in _open_inputs(args.paths)), config)
    if table.is_empty():
        raise EmptyCorpusError("empty corpus")
    rep = build_report(table, config, args.paths or ["-"], args.fit_kmin, args.fit_kmax)
    if "error" in rep["fit"]:
        print(f"zipfent: {rep['fit']['error']}", file=sys.stderr)
        status = EXIT_DATA
    if args.format == "json":
        _emit(report_json(rep), args.out)
    elif args.format == "csv":
        _emit(spectrum_csv(freq_of_freq(table)), args.out)
    else:
        _emit(report_text(rep, args.bits), args.out)
    return status


def _cmd_gen(args) -> int:
    spec = synth.SyntheticSpec(a=args.a, b=args.b, mode=_MODE_NAMES[args.mode], k_cap=args.k_cap)
    spectrum = synth.generate_spectrum(spec)
    if spec.mode == "rounded_integer":
        text = "\n".join(synth.spectrum_to_corpus(spectrum)) + "\n"
    else:
        text = spectrum_csv(spectrum)
    _emit(text, args.out)
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
    rows = synth.sweep(
        _parse_grid(args.a), _parse_grid(args.b), mode=_MODE_NAMES[args.mode], k_cap=args.k_cap
    )
    for row in rows:
        if row.error is not None:
            print(f"zipfent: sweep cell a={row.a} b={row.b}: {row.error}", file=sys.stderr)
    _emit(synth.sweep_csv(rows), args.out)
    return EXIT_OK


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
