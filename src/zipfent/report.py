"""Assembly and rendering of the machine-readable analysis report."""

from __future__ import annotations

import json

from .bound import chain_check, entropy, entropy_upper_bound
from .errors import InsufficientPointsError
from .fit import fit_loglog
from .spectrum import FreqSpectrum, freq_of_freq  # noqa: F401

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from .corpus import TokenizerConfig

# bench/tracer.py wraps freq_of_freq on this module; build_report, given the
# spectrum, does not call it.


def build_report(
    spec: FreqSpectrum,
    config: TokenizerConfig,
    inputs: list[str],
    fit_kmin: int | None = None,
    fit_kmax: int | None = None,
) -> dict:
    """Run entropy -> fit -> bound -> chain on the spectrum of a counted corpus.

    spec is integer-valued, as ``freq_of_freq`` and the analyze command
    make it: N, V and M are its total, the sum of its F(k) and its largest
    k, and the entropy needs only p = k / N.  Fit failure and bound
    inapplicability are recorded inside the report rather than raised, so
    callers can still show everything that was computable.  The report
    contains no timestamps or environment state: identical input and config
    reproduce it byte for byte.
    """
    ent = entropy(spec)
    report: dict = {
        "n_tokens": spec.total_tokens,
        "vocab_size": sum(spec.points.values()),
        "max_frequency": spec.max_k,
        "spectrum": {
            "distinct_k": len(spec.points),
            "k_min": min(spec.points),
            "k_max": spec.max_k,
        },
        # records as dicts: their field order is the schema's key order
        "entropy": ent._asdict(),
        # filled in below; set here so the keys keep the schema's order
        "fit": None,
        "bound": None,
        "chain": None,
    }
    try:
        fit = fit_loglog(spec, k_min=fit_kmin if fit_kmin is not None else 1, k_max=fit_kmax)
    except InsufficientPointsError as exc:
        report["fit"] = {"error": str(exc)}
    else:
        report["fit"] = fit._asdict()
        if fit.a >= 1:
            value = entropy_upper_bound(fit.a, fit.b)
            report["bound"] = {
                "applicable": True,
                "value_nats": value,
                "margin_nats": value - ent.nats,
                "a": fit.a,
                "b": fit.b,
            }
            report["chain"] = chain_check(spec, fit.a, fit.b)._asdict()
        else:
            report["bound"] = {"applicable": False, "a": fit.a, "b": fit.b}
    report["config"] = {
        "inputs": list(inputs),
        "lowercase": config.lowercase,
        "min_token_length": config.min_token_length,
        "token_rule": config.token_rule,
        "fit_k_min": fit_kmin,
        "fit_k_max": fit_kmax,
    }
    return report


def report_json(report: dict | list[dict]) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_json_array(texts: Iterable[str]) -> Iterator[str]:
    """The JSON array of reports rendered one by one with ``report_json``, in pieces.

    Joined, the pieces are the bytes of ``report_json`` of the list of the
    reports: a rendered report holds newlines only between its items, so
    each line is indented one more level.  Each report is re-indented as its
    piece is yielded, so no copy of the whole array is made.
    """
    sep = "[\n"
    for text in texts:
        yield sep + "  " + text[:-1].replace("\n", "\n  ")
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def report_text(report: dict, show_bits: bool = False) -> str:
    """Human-readable rendering of a report dict."""
    spectrum = report["spectrum"]
    lines = [
        f"tokens:        {report['n_tokens']}",
        f"vocabulary:    {report['vocab_size']}",
        f"max frequency: {report['max_frequency']}",
        f"spectrum:      {spectrum['distinct_k']} distinct k in [{spectrum['k_min']}, {spectrum['k_max']}]",
    ]
    ent = f"entropy:       {report['entropy']['nats']:.6f} nats"
    if show_bits:
        ent += f" ({report['entropy']['bits']:.6f} bits)"
    lines.append(ent)
    fit = report["fit"]
    if "error" in fit:
        lines.append(f"fit:           error: {fit['error']}")
    else:
        lines.append(
            f"fit:           a={fit['a']:.6f} b={fit['b']:.6f} rmse={fit['rmse']:.3e}"
            f" ({fit['points_used']} points, k in [{fit['k_min']}, {fit['k_max']}])"
        )
    bound = report["bound"]
    if bound is None:
        lines.append("bound:         unavailable (no fit)")
    elif not bound["applicable"]:
        lines.append(f"bound:         not applicable (a = {bound['a']:.6f} < 1)")
    else:
        lines.append(
            f"bound:         {bound['value_nats']:.6f} nats, margin {bound['margin_nats']:+.6f}"
        )
    chain = report["chain"]
    if chain is not None:
        for name in ("sandwich_lower", "sandwich_upper", "n_bound", "ratio"):
            c = chain[name]
            status = "ok" if c["ok"] else "VIOLATED"
            lines.append(f"chain:         {name} {status} (slack {c['slack']:+.3e})")
    return "\n".join(lines) + "\n"


def report_schema() -> dict:
    """The JSON schema that analyze reports validate against."""
    # imported here: on Python 3.12+ importlib.resources imports inspect
    from importlib import resources

    text = resources.files("zipfent").joinpath("schemas/analysis_report.schema.json").read_text()
    return json.loads(text)
