"""Frequency-of-frequencies spectra: how many distinct words occur exactly k times."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import islice

from ._record import Record
from .errors import EmptyCorpusError

_FLOAT_MAX = math.nextafter(math.inf, 0.0)  # no F(k) or token total may be larger

# _csv_blocks writes at most this many rows per block, so a large spectrum
# never builds one huge string.
_CSV_BLOCK_ROWS = 1 << 16


class FreqSpectrum(Record):
    """Map k -> F(k) over the frequencies that actually occur.

    Frequencies with F(k) = 0 are never stored, which keeps log F(k)
    well-defined at every stored point.  Corpus-derived spectra hold positive
    integers; synthetic law-valued spectra may hold positive reals.  Points
    are kept sorted by k.
    """

    points: dict[int, float]
    total_tokens: float  # sum of k * F(k) over the stored points
    max_k: int

    @classmethod
    def from_points(cls, points: dict[int, float]) -> "FreqSpectrum":
        if not points:
            raise EmptyCorpusError("spectrum has no points")
        for k, f in points.items():
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"frequency k must be a positive integer, got {k!r}")
            # compared, not converted: an int past the float range is refused, not an OverflowError
            if not (isinstance(f, (int, float)) and 0 < f <= _FLOAT_MAX):
                raise ValueError(f"F({k}) must be a positive finite float, got {f!r}")
        ordered = dict(sorted(points.items()))
        integer = all(isinstance(f, int) for f in ordered.values())
        total = _exact_sum((k * f for k, f in ordered.items()), integer)
        return cls(points=ordered, total_tokens=total, max_k=max(ordered))

    def is_integer_valued(self) -> bool:
        return all(isinstance(f, int) for f in self.points.values())


def _exact_sum(terms: Iterable[float], integer: bool) -> float:
    """Sum with no rounding error: int arithmetic when every term is an int
    (word counts can pass 2^53), else the correctly rounded ``math.fsum``.
    A total past the float range is a ValueError: the entropy and chain take N as a float."""
    try:
        total = sum(terms) if integer else math.fsum(terms)
    except OverflowError:  # fsum's, where finite terms sum past the float range
        total = math.inf
    if not total <= _FLOAT_MAX:
        raise ValueError("token total overflows a float")
    return total


def freq_of_freq(counts: Mapping[str, int]) -> FreqSpectrum:
    """Histogram a word -> count mapping, such as ``Counter(tokenize(text))``:
    F(k) = number of distinct words occurring exactly k times.

    Built with ``FreqSpectrum.from_points``, so an empty mapping is an
    ``EmptyCorpusError`` and a count that is not a positive int a ValueError.
    """
    # each count is checked here: 2 and 2.0 are one key of the histogram,
    # which holds whichever comes first
    for n in counts.values():
        if not isinstance(n, int):
            raise ValueError(f"frequency k must be a positive integer, got {n!r}")
    return FreqSpectrum.from_points(Counter(counts.values()))


def _from_histogram(hist: Counter[int]) -> FreqSpectrum:
    """The spectrum of a non-empty histogram of word counts, which maps each count k to F(k)."""
    # positive int F(k) at positive int k, sorted here: valid by
    # construction, so FreqSpectrum.from_points is skipped
    points = dict(sorted(hist.items()))
    total = sum(k * f for k, f in points.items())
    return FreqSpectrum(points=points, total_tokens=total, max_k=next(reversed(points)))


def spectrum_csv(spec: FreqSpectrum) -> Iterator[str]:
    """Spectrum as CSV rows "k,F(k)" in ascending k: the header, then blocks of rows."""
    return _csv_blocks(spec.points.items())


def _csv_blocks(points: Iterable[tuple[int, float]]) -> Iterator[str]:
    """The header "k,F(k)", then the (k, F(k)) pairs as rows in blocks of _CSV_BLOCK_ROWS."""
    yield "k,F(k)\n"
    rows = iter(points)
    # each block is joined before the next is built, so no two row lists are held at once
    while block := "".join([f"{k},{f}\n" for k, f in islice(rows, _CSV_BLOCK_ROWS)]):
        yield block
