"""Shannon entropy, its closed-form power-law ceiling, and the derivation's
intermediate inequalities as runnable diagnostics.

Everything is in nats internally; the e^b terms of the ceiling force base e.
Entropy uses the standard non-negative convention -sum p ln p.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import BoundNotApplicableError
from .spectrum import FreqSpectrum

_LN2 = math.log(2)

# The relative tolerance of every chain check (ChainDiagnostics)
CHAIN_TOLERANCE = 1e-9


class EntropyValue(Record):
    """Entropy in nats, with the derived bit value (nats / ln 2)."""

    nats: float
    bits: float

    @classmethod
    def from_nats(cls, nats: float) -> "EntropyValue":
        return cls(nats=nats, bits=nats / _LN2)


def entropy(spec: FreqSpectrum) -> EntropyValue:
    """-sum_w p(w) ln p(w) with p(w) = fr(w) / N, regrouped by frequency: -sum_k F(k) (k/N) ln(k/N).

    Every word with count k contributes the same term, which is computed
    once.  On an integer-valued spectrum the exact multiples F(k) * term are
    summed as integers over the largest power-of-two denominator of the
    terms.  The division rounds that exact sum once, as fsum of the
    word-by-word terms does, so the two agree bit for bit; a product
    F(k) * term, rounded on its own, would not.  A real-valued spectrum is
    summed with fsum of F(k)-weighted terms, ascending in k.
    """
    n = spec.total_tokens
    if spec.is_integer_valued():
        ratios = [(f, (-(p := k / n) * math.log(p)).as_integer_ratio()) for k, f in spec.points.items()]
        d = max(den for _, (_, den) in ratios)
        return EntropyValue.from_nats(sum(f * num * (d // den) for f, (num, den) in ratios) / d + 0.0)
    terms = (-f * (p := k / n) * math.log(p) for k, f in spec.points.items())
    return EntropyValue.from_nats(math.fsum(terms) + 0.0)


def entropy_upper_bound(a: float, b: float) -> float:
    """Closed-form entropy ceiling e^(b(1-1/a)) (b/a + 1), in nats.

    Holds for any corpus whose spectrum satisfies F(k) = e^b k^-a with
    a >= 1; below that slope the derivation breaks down and the request is
    refused rather than answered with a meaningless number.
    """
    if not a >= 1:
        raise BoundNotApplicableError(a)
    return math.exp(b * (1 - 1 / a)) * (b / a + 1)


class InequalityResult(Record):
    slack: float
    ok: bool


class ChainDiagnostics(Record):
    """Worst-case slack of each inequality the ceiling's derivation relies on.

    Slacks are oriented so that >= 0 means satisfied.  Each slack is a
    difference of quantities on its own scale, so the tolerance is relative:
    a check passes when its slack >= -CHAIN_TOLERANCE * scale.

      check           slack                   scale
      sandwich_lower  min_k  k F(k) - e^(b/a)  max(1, e^b)
      sandwich_upper  min_k  e^b - k F(k)      max(1, e^b)
      n_bound         N - M e^(b/a)            max(1, N)
      ratio           e^(-b/a) - M/N           1
    """

    sandwich_lower: InequalityResult
    sandwich_upper: InequalityResult
    n_bound: InequalityResult
    ratio: InequalityResult
    tolerance: float


def chain_check(spec: FreqSpectrum, a: float, b: float) -> ChainDiagnostics:
    """Evaluate e^(b/a) <= k F(k) <= e^b, N >= M e^(b/a), and M/N <= e^(-b/a)
    over the stored frequencies.

    On data satisfying the law exactly all four pass with zero slack (up to
    float rounding).  Real corpora need not satisfy the law's hypothesis, so
    failures here are diagnostics, not defects.
    """
    # rounding is monotone, so these equal min(kF - e_lo) and min(e_hi - kF) bit for bit
    kf_min = min(k * f for k, f in spec.points.items())
    kf_max = max(k * f for k, f in spec.points.items())
    return chain_diagnostics(a, b, kf_min, kf_max, spec.total_tokens, spec.max_k)


def chain_diagnostics(a: float, b: float, kf_min: float, kf_max: float, n: float, m: int) -> ChainDiagnostics:
    """The chain checks of a spectrum given by its extremes: the smallest and
    largest k F(k), the token total N and the largest frequency M."""
    if not a >= 1:
        raise BoundNotApplicableError(a)
    e_lo = math.exp(b / a)
    e_hi = math.exp(b)
    sandwich_scale = max(1.0, e_hi)

    def check(slack: float, scale: float) -> InequalityResult:
        return InequalityResult(slack=slack, ok=slack >= -CHAIN_TOLERANCE * scale)

    return ChainDiagnostics(
        sandwich_lower=check(kf_min - e_lo, sandwich_scale),
        sandwich_upper=check(e_hi - kf_max, sandwich_scale),
        n_bound=check(n - m * e_lo, max(1, n)),
        ratio=check(math.exp(-b / a) - m / n, 1.0),
        tolerance=CHAIN_TOLERANCE,
    )
