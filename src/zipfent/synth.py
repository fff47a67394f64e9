"""Deterministic synthetic spectra and corpora that follow the power law.

``exact_real`` mode keeps the real-valued law F(k) = e^b k^-a, the regime
where the entropy ceiling and every inequality behind it hold by
construction; ``rounded_integer`` rounds half-up to realizable word counts,
which perturbs the law by up to 0.5 per point.  No randomness anywhere: the
same parameters always produce the same spectrum and the same corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bound import (
    DEFAULT_CHAIN_TOLERANCE,
    chain_check,
    entropy_from_spectrum,
    entropy_upper_bound,
)
from .spectrum import FreqSpectrum

MODES = ("exact_real", "rounded_integer")

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


def _law_k_max(a: float, b: float) -> int:
    # Largest k with e^b k^-a >= 1, i.e. floor(e^(b/a)); seeded from the
    # closed form and nudged so the cut sits exactly where the evaluated law
    # crosses 1.
    try:
        k = max(1, math.floor(math.exp(b / a)))
        eb = math.exp(b)
    except OverflowError:
        raise ValueError(f"e^b overflows a float for a={a}, b={b}") from None
    while eb * (k + 1) ** (-a) >= 1.0:
        k += 1
    while k > 1 and eb * k ** (-a) < 1.0:
        k -= 1
    return k


def generate_spectrum(spec: SyntheticSpec) -> FreqSpectrum:
    """Materialize F(k) = e^b k^-a for k = 1 .. floor(e^(b/a)), capped by k_cap.

    Beyond that domain the law drops below one word and the spectrum ends.
    In rounded_integer mode every value on the domain is >= 1 before
    rounding, so rounding never produces an empty bin.
    """
    k_max = _law_k_max(spec.a, spec.b)
    if spec.k_cap is not None:
        k_max = min(k_max, spec.k_cap)
    eb = math.exp(spec.b)
    law = {k: eb * k ** (-spec.a) for k in range(1, k_max + 1)}
    if spec.mode == "exact_real":
        return FreqSpectrum.from_points(law)
    return FreqSpectrum.from_points({k: _round_half_up(f) for k, f in law.items()})


def spectrum_to_corpus(spec: FreqSpectrum) -> list[str]:
    """Token stream realizing an integer spectrum.

    For each stored k (ascending), emits F(k) fresh synthetic words (w0, w1,
    ...) repeated k times each, so counting the result reproduces the
    spectrum exactly.  Real-valued spectra have no realizable corpus and are
    rejected.
    """
    if not spec.is_integer_valued():
        raise ValueError("only integer-valued spectra can be materialized as a corpus")
    tokens: list[str] = []
    next_word = 0
    for k, count in spec.points.items():
        for _ in range(count):
            tokens.extend([f"w{next_word}"] * k)
            next_word += 1
    return tokens


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

    def cell(v) -> str:
        return "" if v is None else str(v)

    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                cell(v)
                for v in (
                    r.a,
                    r.b,
                    r.n_tokens,
                    r.max_k,
                    r.entropy_nats,
                    r.bound_nats,
                    r.margin_nats,
                    r.sandwich_lo,
                    r.sandwich_hi,
                    r.n_bound,
                    r.ratio,
                )
            )
        )
    return "\n".join(lines) + "\n"
