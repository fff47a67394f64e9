"""Corpus statistics: word-frequency spectra, log-log power-law fits, Shannon
entropy, and the closed-form entropy ceiling e^(b(1-1/a)) (b/a + 1) with its
chain of supporting inequalities.

The public names below are imported from their submodules on first access
(PEP 562), so ``import zipfent`` loads no submodule and the command line
loads only the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it
_EXPORTS = {
    "BoundNotApplicableError": "errors",
    "ChainDiagnostics": "bound",
    "EmptyCorpusError": "errors",
    "EntropyValue": "bound",
    "FreqSpectrum": "spectrum",
    "InequalityResult": "bound",
    "InsufficientPointsError": "errors",
    "PowerLawFit": "fit",
    "SweepRow": "synth",
    "SyntheticSpec": "synth",
    "TokenizerConfig": "corpus",
    "build_report": "report",
    "chain_check": "bound",
    "count_spectrum": "corpus",
    "entropy": "bound",
    "entropy_upper_bound": "bound",
    "fit_loglog": "fit",
    "freq_of_freq": "spectrum",
    "generate_spectrum": "synth",
    "report_json": "report",
    "report_schema": "report",
    "report_text": "report",
    "spectrum_csv": "spectrum",
    "spectrum_to_corpus": "synth",
    "sweep": "synth",
    "sweep_csv": "synth",
    "tokenize": "corpus",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
