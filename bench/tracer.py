"""Run ``zipfent.cli.main(argv)`` in this process with a span around each layer.

Usage: python tracer.py SPANS_JSON ARG...

The public functions are wrapped where the calling modules look them up
(``zipfent.cli.tokenize``, ``zipfent.report.entropy``,
``zipfent.synth.generate_spectrum``, ...), so zipfent itself is unchanged.
Each span records its name, start, end, parent span, the counts taken from
the call's result and, for the layers that may set the peak, ``ru_maxrss``
at its end.  Spans stay in memory and are written to SPANS_JSON when main
returns; the process exits with main's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

import zipfent.cli
import zipfent.report
import zipfent.synth


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, counts=None, rss: bool = False) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``counts`` maps a count name to a function of (result, args).
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if rss:
                span["rss_mb"] = _rss_mb()
            if counts:
                span["counts"] = {k: f(result, args) for k, f in counts.items()}
            return result

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    cli, report, synth = zipfent.cli, zipfent.report, zipfent.synth
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "read_text", "corpus.read_text", {"bytes": lambda r, a: os.path.getsize(a[0])})
    tracer.wrap(cli, "tokenize", "corpus.tokenize", {"tokens": lambda r, a: len(r)}, rss=True)
    tracer.wrap(cli, "count_frequencies", "corpus.count_frequencies",
                {"vocab": lambda r, a: r.vocab_size}, rss=True)
    tracer.wrap(cli, "merge", "corpus.merge")
    tracer.wrap(cli, "build_report", "report.build_report")
    tracer.wrap(cli, "report_json", "report.report_json", {"bytes": lambda r, a: len(r.encode("utf-8"))})
    tracer.wrap(report, "freq_of_freq", "spectrum.freq_of_freq", {"distinct_k": lambda r, a: len(r.points)})
    tracer.wrap(report, "entropy", "bound.entropy")
    tracer.wrap(report, "fit_loglog", "fit.fit_loglog", {"points": lambda r, a: r.points_used})
    tracer.wrap(report, "chain_check", "bound.chain_check")
    tracer.wrap(synth, "generate_spectrum", "synth.generate_spectrum",
                {"points": lambda r, a: len(r.points)}, rss=True)
    tracer.wrap(synth, "entropy_from_spectrum", "bound.entropy_from_spectrum")
    tracer.wrap(synth, "chain_check", "bound.chain_check")
    tracer.wrap(synth, "sweep", "synth.sweep",
                {"cells": lambda r, a: len(r), "error_cells": lambda r, a: sum(x.error is not None for x in r)})
    tracer.wrap(synth, "sweep_csv", "synth.sweep_csv")
    tracer.wrap(synth, "spectrum_to_corpus", "synth.spectrum_to_corpus",
                {"tokens": lambda r, a: len(r)}, rss=True)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = zipfent.cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"exit_code": code, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
