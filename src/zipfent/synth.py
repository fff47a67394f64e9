"""Deterministic synthetic spectra and corpora that follow the power law.

``exact_real`` mode keeps the real-valued law F(k) = e^b k^-a, the regime
where the entropy ceiling and every inequality behind it hold by
construction; ``rounded_integer`` rounds half-up to realizable word counts,
which perturbs the law by up to 0.5 per point.  No randomness anywhere: the
same parameters always produce the same spectrum and the same corpus.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView
from dataclasses import astuple, dataclass

from .bound import (
    DEFAULT_CHAIN_TOLERANCE,
    chain_check,
    entropy_from_spectrum,
    entropy_upper_bound,
)
from .spectrum import FreqSpectrum, _exact_sum

MODES = ("exact_real", "rounded_integer")

# Most points generate_spectrum builds (k_max after k_cap), checked before
# anything is allocated: 80 MB of doubles.  Admits a=1, b=16 (8.9M points).
MAX_LAW_POINTS = 10_000_000

# Most tokens a corpus may hold, checked before any text is made: about
# 10 GB of text.  Admits a=1, b=8.5 (23.4M tokens).
MAX_CORPUS_TOKENS = 1_000_000_000

# Corpus text is made in blocks of at most this many tokens (or one word),
# so a large F(k) never builds one huge string.
_BLOCK_TOKENS = 1 << 16

SWEEP_CSV_HEADER = "a,b,N,M,entropy_nats,bound_nats,margin_nats,sandwich_lo,sandwich_hi,n_bound,ratio"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a generated power-law spectrum F(k) = e^b k^-a.

    Generation is refused for a < 1 (outside the regime the entropy ceiling
    covers), for b < 0 (no k would reach F(k) >= 1, leaving the spectrum
    empty) and for infinite b (no finite spectrum).
    """

    a: float
    b: float
    mode: str = "rounded_integer"
    k_cap: int | None = None

    def __post_init__(self):
        if not self.a >= 1:
            raise ValueError(f"slope a must be >= 1, got {self.a}")
        if not self.b >= 0:
            raise ValueError(
                f"intercept b must be >= 0 (smaller values yield an empty spectrum), got {self.b}"
            )
        if not math.isfinite(self.b):
            raise ValueError(f"intercept b must be finite, got {self.b}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k_cap is not None and self.k_cap < 1:
            raise ValueError(f"k_cap must be >= 1, got {self.k_cap}")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _law_k_max(a: float, b: float, cap: int = MAX_LAW_POINTS + 1) -> int:
    # Largest k with e^b k^-a >= 1, i.e. floor(e^(b/a)), or cap if that is
    # smaller; seeded from the closed form and nudged so the cut sits exactly
    # where the evaluated law crosses 1.  When the seed exceeds 2 cap, the law
    # at cap is still about 2^a >= 2, so the cut lies past cap and is not
    # walked to: beyond 2^53 one float covers many k and the walk may not end.
    try:
        k = max(1, math.floor(math.exp(b / a)))
        eb = math.exp(b)
    except OverflowError:
        raise ValueError(f"e^b overflows a float for a={a}, b={b}") from None
    if k > 2 * cap:
        return cap
    while eb * (k + 1) ** (-a) >= 1.0:
        k += 1
    while k > 1 and eb * k ** (-a) < 1.0:
        k -= 1
    return min(k, cap)


def _law_points(spec: SyntheticSpec) -> int:
    """Points of the law spectrum: k_max capped by k_cap, refused above MAX_LAW_POINTS."""
    cap = MAX_LAW_POINTS + 1 if spec.k_cap is None else min(spec.k_cap, MAX_LAW_POINTS + 1)
    n = _law_k_max(spec.a, spec.b, cap)
    if n > MAX_LAW_POINTS:
        raise ValueError(
            f"spectrum would hold more than {MAX_LAW_POINTS} points; lower b or cap k with --k-cap"
        )
    return n


class _LawPoints(Mapping):
    """Read-only k -> F(k) over one flat sequence F(1), ..., F(n): k = index + 1."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[float]):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self._values) + 1))

    def __getitem__(self, k: int) -> float:
        if isinstance(k, int) and 1 <= k <= len(self._values):
            return self._values[k - 1]
        raise KeyError(k)

    def items(self) -> ItemsView:
        return _LawItems(self)

    def values(self) -> ValuesView:
        return _LawValues(self)


class _LawItems(ItemsView):
    def __iter__(self):
        return zip(range(1, len(self._mapping) + 1), self._mapping._values)


class _LawValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values)


def generate_spectrum(spec: SyntheticSpec) -> FreqSpectrum:
    """F(k) = e^b k^-a for k = 1 .. floor(e^(b/a)), capped by k_cap.

    Beyond that domain the law drops below one word and the spectrum ends.
    In rounded_integer mode every value on the domain is >= 1 before
    rounding, so rounding never produces an empty bin.  The values are held
    flat, 8 bytes per point, and a spectrum of more than MAX_LAW_POINTS
    points is refused before anything is allocated.
    """
    n = _law_points(spec)
    eb = math.exp(spec.b)
    law = (eb * k ** (-spec.a) for k in range(1, n + 1))
    rounded = spec.mode == "rounded_integer"
    # rounded values can pass 2^63, which array("q") cannot hold
    values = [_round_half_up(f) for f in law] if rounded else array("d", law)
    # valid and sorted by construction, so FreqSpectrum.from_points is skipped
    total = _exact_sum((k * f for k, f in enumerate(values, 1)), rounded)
    return FreqSpectrum(points=_LawPoints(values), total_tokens=total, max_k=n)


def _check_corpus_tokens(tokens: int) -> None:
    if tokens > MAX_CORPUS_TOKENS:
        raise ValueError(
            f"corpus would hold more than {MAX_CORPUS_TOKENS} tokens; lower b or cap k with --k-cap"
        )


def _corpus_blocks(points: Mapping[int, int]) -> Iterator[str]:
    first = 0  # number of the next fresh word
    for k, count in points.items():
        step = max(1, _BLOCK_TOKENS // k)
        for lo in range(first, first + count, step):
            yield "".join(f"w{i}\n" * k for i in range(lo, min(lo + step, first + count)))
        first += count


def corpus_text(spec: FreqSpectrum) -> Iterator[str]:
    """Text of the corpus realizing an integer spectrum, one token per line.

    For each stored k (ascending), emits F(k) fresh synthetic words (w0, w1,
    ...) repeated k times each, so counting the result reproduces the
    spectrum exactly.  The text comes in blocks of one k's words, at most
    _BLOCK_TOKENS tokens or one word each.  Real-valued spectra have no
    realizable corpus, and corpora above MAX_CORPUS_TOKENS tokens are
    refused; both before any text is made.
    """
    if not spec.is_integer_valued():
        raise ValueError("only integer-valued spectra can be materialized as a corpus")
    _check_corpus_tokens(spec.total_tokens)
    return _corpus_blocks(spec.points)


def spectrum_to_corpus(spec: FreqSpectrum) -> list[str]:
    """Token stream realizing an integer spectrum: the tokens of corpus_text(spec)."""
    return "".join(corpus_text(spec)).split()


def generate_corpus(spec: SyntheticSpec) -> Iterator[str]:
    """corpus_text of the law spectrum of spec, made as it is consumed.

    Every point holds at least one word, so n points make at least n(n+1)/2
    tokens: a corpus that this already puts above MAX_CORPUS_TOKENS is
    refused before its spectrum is built.
    """
    n = _law_points(spec)
    _check_corpus_tokens(n * (n + 1) // 2)
    return corpus_text(generate_spectrum(spec))


def rounding_tolerance(a: float, b: float) -> float:
    """Chain-check slack allowance for rounded spectra.

    Half-up rounding moves F(k) by up to 0.5, hence k F(k) by up to 0.5 k,
    which is 0.5 max(1, e^(b/a)) at the largest stored frequency.
    """
    return 0.5 * max(1.0, math.exp(b / a))


@dataclass(frozen=True)
class SweepRow:
    """One grid cell of a ceiling-tightness sweep; numeric fields are None
    when the cell's generator parameters were rejected."""

    a: float
    b: float
    n_tokens: float | None = None
    max_k: int | None = None
    entropy_nats: float | None = None
    bound_nats: float | None = None
    margin_nats: float | None = None
    sandwich_lo: float | None = None
    sandwich_hi: float | None = None
    n_bound: float | None = None
    ratio: float | None = None
    error: str | None = None


def sweep(
    a_grid: Sequence[float],
    b_grid: Sequence[float],
    mode: str = "exact_real",
    k_cap: int | None = None,
) -> list[SweepRow]:
    """Entropy vs ceiling over a parameter grid, one row per (a, b) in grid order.

    Every slope must be >= 1 up front; other per-cell generator rejections
    (e.g. negative b) are recorded in the row instead of aborting the sweep.
    Cells are independent pure computations.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    for a in a_grid:
        if not a >= 1:
            raise ValueError(f"slope grid must satisfy a >= 1, got {a}")
    rows: list[SweepRow] = []
    for a in a_grid:
        for b in b_grid:
            try:
                sp = generate_spectrum(SyntheticSpec(a=a, b=b, mode=mode, k_cap=k_cap))
            except ValueError as exc:
                rows.append(SweepRow(a=a, b=b, error=str(exc)))
                continue
            ent = entropy_from_spectrum(sp).nats
            bound = entropy_upper_bound(a, b)
            tol = DEFAULT_CHAIN_TOLERANCE if mode == "exact_real" else rounding_tolerance(a, b)
            chain = chain_check(sp, a, b, tolerance=tol)
            rows.append(
                SweepRow(
                    a=a,
                    b=b,
                    n_tokens=sp.total_tokens,
                    max_k=sp.max_k,
                    entropy_nats=ent,
                    bound_nats=bound,
                    margin_nats=bound - ent,
                    sandwich_lo=chain.sandwich_lower.slack,
                    sandwich_hi=chain.sandwich_upper.slack,
                    n_bound=chain.n_bound.slack,
                    ratio=chain.ratio.slack,
                )
            )
    return rows


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    """Sweep table as CSV; errored cells keep a and b and leave the rest empty."""
    lines = [SWEEP_CSV_HEADER]
    # every field but the trailing error, in the header's order
    lines.extend(",".join("" if v is None else str(v) for v in astuple(r)[:-1]) for r in rows)
    return "\n".join(lines) + "\n"
