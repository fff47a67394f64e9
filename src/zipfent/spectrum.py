"""Frequency-of-frequencies spectra: how many distinct words occur exactly k times."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from .errors import EmptyCorpusError

if TYPE_CHECKING:
    from .corpus import FrequencyTable

# spectrum_csv writes at most this many rows per block, so a large spectrum
# never builds one huge string.
_CSV_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class FreqSpectrum:
    """Map k -> F(k) over the frequencies that actually occur.

    Frequencies with F(k) = 0 are never stored, which keeps log F(k)
    well-defined at every stored point.  Corpus-derived spectra hold positive
    integers; synthetic law-valued spectra may hold positive reals.  Points
    are kept sorted by k.  ``points`` is a read-only ``Mapping``: a dict for
    corpus spectra, a compact view over the law's values for synthetic ones.
    """

    points: Mapping[int, float]
    total_tokens: float  # sum of k * F(k) over the stored points
    max_k: int

    @classmethod
    def from_points(cls, points: dict[int, float]) -> "FreqSpectrum":
        if not points:
            raise EmptyCorpusError("spectrum has no points")
        for k, f in points.items():
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"frequency k must be a positive integer, got {k!r}")
            if not (isinstance(f, (int, float)) and math.isfinite(f) and f > 0):
                raise ValueError(f"F({k}) must be a positive finite number, got {f!r}")
        ordered = dict(sorted(points.items()))
        integer = all(isinstance(f, int) for f in ordered.values())
        total = _exact_sum((k * f for k, f in ordered.items()), integer)
        return cls(points=ordered, total_tokens=total, max_k=max(ordered))

    def is_integer_valued(self) -> bool:
        return all(isinstance(f, int) for f in self.points.values())


def _exact_sum(terms: Iterable[float], integer: bool) -> float:
    """Sum with no rounding error: int arithmetic when every term is an int
    (word counts can pass 2^53), else the correctly rounded ``math.fsum``."""
    return sum(terms) if integer else math.fsum(terms)


def freq_of_freq(table: FrequencyTable) -> FreqSpectrum:
    """Histogram the counts: F(k) = number of distinct words occurring exactly k times."""
    if table.is_empty():
        raise EmptyCorpusError("cannot build a spectrum from an empty table")
    # positive int F(k) at positive int k, sorted here: valid by
    # construction, so FreqSpectrum.from_points is skipped
    points = dict(sorted(Counter(table.counts.values()).items()))
    total = sum(k * f for k, f in points.items())
    return FreqSpectrum(points=points, total_tokens=total, max_k=next(reversed(points)))


def spectrum_csv(spec: FreqSpectrum) -> Iterator[str]:
    """Spectrum as CSV rows "k,F(k)" in ascending k: the header, then blocks of rows."""
    yield "k,F(k)\n"
    rows = iter(spec.points.items())
    while block := [f"{k},{f}\n" for k, f in islice(rows, _CSV_BLOCK_ROWS)]:
        yield "".join(block)
