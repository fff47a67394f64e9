"""Corpus statistics: word-frequency spectra, log-log power-law fits, Shannon
entropy, and the closed-form entropy ceiling e^(b(1-1/a)) (b/a + 1) with its
chain of supporting inequalities."""

from .bound import (
    BoundReport,
    ChainDiagnostics,
    EntropyValue,
    InequalityResult,
    bound_report,
    chain_check,
    entropy,
    entropy_from_spectrum,
    entropy_upper_bound,
)
from .corpus import (
    FrequencyTable,
    TokenizerConfig,
    count_frequencies,
    count_stream,
    merge,
    read_text,
    tokenize,
)
from .errors import BoundNotApplicableError, EmptyCorpusError, InsufficientPointsError
from .fit import PowerLawFit, fit_loglog, predicted_F
from .report import build_report, report_json, report_schema, report_text
from .spectrum import FreqSpectrum, freq_of_freq, spectrum_csv, spectrum_to_points
from .synth import (
    SweepRow,
    SyntheticSpec,
    generate_spectrum,
    spectrum_to_corpus,
    sweep,
    sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundNotApplicableError",
    "BoundReport",
    "ChainDiagnostics",
    "EmptyCorpusError",
    "EntropyValue",
    "FreqSpectrum",
    "FrequencyTable",
    "InequalityResult",
    "InsufficientPointsError",
    "PowerLawFit",
    "SweepRow",
    "SyntheticSpec",
    "TokenizerConfig",
    "bound_report",
    "build_report",
    "chain_check",
    "count_frequencies",
    "count_stream",
    "entropy",
    "entropy_from_spectrum",
    "entropy_upper_bound",
    "fit_loglog",
    "freq_of_freq",
    "generate_spectrum",
    "merge",
    "predicted_F",
    "read_text",
    "report_json",
    "report_schema",
    "report_text",
    "spectrum_csv",
    "spectrum_to_corpus",
    "spectrum_to_points",
    "sweep",
    "sweep_csv",
    "tokenize",
]
