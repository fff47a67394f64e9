"""Deterministic synthetic spectra and corpora that follow the power law.

``exact_real`` mode keeps the real-valued law F(k) = e^b k^-a, the regime
where the entropy ceiling and every inequality behind it hold by
construction; ``rounded_integer`` rounds half-up to realizable word counts,
which perturbs the law by up to 0.5 per point.  No randomness anywhere: the
same parameters always produce the same spectrum and the same corpus.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from ._record import Record
from .bound import chain_diagnostics, entropy_upper_bound
# bench/tracer.py wraps these names on this module.  Nothing here calls them
# (sweep works from power sums), so their spans stay empty.
from .bound import chain_check, entropy_from_spectrum  # noqa: F401
from .spectrum import FreqSpectrum, _csv_blocks, _exact_sum

MODES = ("exact_real", "rounded_integer")

# Most points of a law (k_max after k_cap), checked before anything is
# allocated: gen writes no more rows, generate_spectrum builds no larger dict
# (about 880 MB at this size), and sweep admits no larger cell.  Admits a=1,
# b=16 (8.9M points).
MAX_LAW_POINTS = 10_000_000

# Most tokens a corpus may hold, checked before any text is made: about
# 10 GB of text.  Admits a=1, b=8.5 (23.4M tokens).
MAX_CORPUS_TOKENS = 1_000_000_000

# Corpus text is made in blocks of at most this many tokens (or one word),
# so a large F(k) never builds one huge string.
_BLOCK_TOKENS = 1 << 16

# Terms _power_sums adds one by one before its Euler-Maclaurin tail, and the
# tail's coefficients B_2j / (2j)!, j = 1 .. 6
_DIRECT_TERMS = 64
_EM_COEFFS = tuple(
    bern / math.factorial(2 * j)
    for j, bern in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1)
)

_FLOAT_MAX = math.nextafter(math.inf, 0.0)

SWEEP_CSV_HEADER = "a,b,N,M,entropy_nats,bound_nats,margin_nats,sandwich_lo,sandwich_hi,n_bound,ratio"


class SyntheticSpec(Record):
    """Parameters of a generated power-law spectrum F(k) = e^b k^-a.

    Generation is refused for a < 1 (outside the regime the entropy ceiling
    covers), for b < 0 (no k would reach F(k) >= 1, leaving the spectrum
    empty), for infinite b (no finite spectrum) and for infinite a (the
    a -> infinity limit is not a power law).
    """

    a: float
    b: float
    mode: str = "rounded_integer"
    k_cap: int | None = None

    def __post_init__(self):
        if not self.a >= 1:
            raise ValueError(f"slope a must be >= 1, got {self.a}")
        if not math.isfinite(self.a):
            raise ValueError(f"slope a must be finite, got {self.a}")
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


def _law(spec: SyntheticSpec, n: int) -> Iterator[tuple[int, float]]:
    """(k, F(k)) for k = 1 .. n: F(k) = e^b k^-a, rounded half-up in rounded_integer mode."""
    eb, a = math.exp(spec.b), spec.a
    law = ((k, eb * k ** (-a)) for k in range(1, n + 1))
    if spec.mode == "exact_real":
        return law
    return ((k, _round_half_up(f)) for k, f in law)


def generate_spectrum(spec: SyntheticSpec) -> FreqSpectrum:
    """F(k) = e^b k^-a for k = 1 .. floor(e^(b/a)), capped by k_cap.

    Beyond that domain the law drops below one word and the spectrum ends.
    In rounded_integer mode every value on the domain is >= 1 before
    rounding, so rounding never produces an empty bin.  The points are a
    dict, up to 100 bytes per point (gen and sweep never build it), and a
    spectrum of more than MAX_LAW_POINTS points is refused before anything
    is allocated.
    """
    n = _law_points(spec)
    # valid and sorted by construction, so FreqSpectrum.from_points is skipped
    points = dict(_law(spec, n))
    try:
        total = _exact_sum((k * f for k, f in points.items()), spec.mode == "rounded_integer")
    except OverflowError:  # fsum's, where finite points sum past the float range
        raise ValueError(f"token total overflows a float for a={spec.a}, b={spec.b}") from None
    return FreqSpectrum(points=points, total_tokens=total, max_k=n)


def generate_csv(spec: SyntheticSpec) -> Iterator[str]:
    """spectrum_csv of the law spectrum of spec, made as it is consumed."""
    return _csv_blocks(_law(spec, _law_points(spec)))


def _check_corpus_tokens(tokens: int) -> None:
    if tokens > MAX_CORPUS_TOKENS:
        raise ValueError(
            f"corpus would hold more than {MAX_CORPUS_TOKENS} tokens; lower b or cap k with --k-cap"
        )


def _corpus_blocks(points: Iterable[tuple[int, int]]) -> Iterator[str]:
    first = 0  # number of the next fresh word
    for k, count in points:
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
    return _corpus_blocks(spec.points.items())


def spectrum_to_corpus(spec: FreqSpectrum) -> list[str]:
    """Token stream realizing an integer spectrum: the tokens of corpus_text(spec)."""
    return "".join(corpus_text(spec)).split()


def generate_corpus(spec: SyntheticSpec) -> Iterator[str]:
    """corpus_text of the law spectrum of spec, made as it is consumed.

    Every point holds at least one word, so n points make at least n(n+1)/2
    tokens: a corpus that this already puts above MAX_CORPUS_TOKENS is
    refused before any point is evaluated.  The exact token total is then
    summed over the law, at most 44,720 points, before any text is made.
    """
    n = _law_points(spec)
    _check_corpus_tokens(n * (n + 1) // 2)
    if spec.mode != "rounded_integer":
        raise ValueError("only integer-valued spectra can be materialized as a corpus")
    _check_corpus_tokens(sum(k * f for k, f in _law(spec, n)))
    return _corpus_blocks(_law(spec, n))


class SweepRow(Record):
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


def _power_sums(s: float, k_lo: int, k_hi: int) -> tuple[float, float]:
    """(sum k^-s, sum k^-s ln k) over k = k_lo .. k_hi, for 1 <= k_lo <= k_hi.

    The first _DIRECT_TERMS terms are summed directly.  The rest, from
    m = k_lo + _DIRECT_TERMS on, is the Euler-Maclaurin formula with six
    Bernoulli terms: integral + (f(m) + f(n)) / 2 + sum_j B_2j / (2j)!
    (f^(2j-1)(n) - f^(2j-1)(m)).  At m >= 65 its remainder, of the order of
    B_14 / 14! f^(13)(m), is far below one unit in the last place of the
    sum.  All pieces go through one fsum.
    """
    last = min(k_hi, k_lo + _DIRECT_TERMS - 1)
    sum0 = [k ** -s for k in range(k_lo, last + 1)]
    sum1 = [f * math.log(k) for k, f in zip(range(k_lo, last + 1), sum0)]
    if last < k_hi:
        m, n = last + 1, k_hi
        # integrals over [m, n] of x^-s and x^-s ln x, with t = 1 - s and
        # L = ln(n/m); each is a difference of x^t terms, which cancel when
        # z = tL is small, so there x = m e^u gives m^t int_0^L e^(tu) (1, ln m + u) du
        t = 1.0 - s
        ln_m, ln_n = math.log(m), math.log(n)
        big_l = math.log1p((n - m) / m)
        z = t * big_l
        if abs(z) <= 1.0:
            # int_0^1 e^(zv) dv and int_0^1 v e^(zv) dv
            e1 = math.expm1(z) / z if z else 1.0
            e2, term = 0.0, 1.0
            for i in range(20):
                e2 += term / (i + 2)
                term *= z / (i + 1)
            mt = m**t
            sum0.append(mt * big_l * e1)
            sum1.append(mt * (ln_m * big_l * e1 + big_l * big_l * e2))
        else:
            mt, nt = m**t, n**t
            sum0.append((nt - mt) / t)
            sum1.append((nt * (t * ln_n - 1.0) - mt * (t * ln_m - 1.0)) / (t * t))
        fm, fn = m**-s, n**-s
        sum0 += (fm / 2, fn / 2)
        sum1 += (fm * ln_m / 2, fn * ln_n / 2)
        # odd derivatives: f^(r)(x) = -p x^(-s-r), and for f ln x,
        # -(p ln x - dp) x^(-s-r), where p = s (s+1) .. (s+r-1) and dp = dp/ds
        p, dp = 1.0, 0.0
        for r in range(1, 2 * len(_EM_COEFFS)):
            p, dp = p * (s + r - 1), dp * (s + r - 1) + p
            if r % 2:
                c = _EM_COEFFS[r // 2]
                xm, xn = m ** (-s - r), n ** (-s - r)
                sum0 += (-c * p * xn, c * p * xm)
                sum1 += (-c * (p * ln_n - dp) * xn, c * (p * ln_m - dp) * xm)
    return math.fsum(sum0), math.fsum(sum1)


def _exact_cell(a: float, b: float, n: int) -> tuple[float, float, float, float]:
    """(N, entropy, min k F(k), max k F(k)) of the exact law on k = 1 .. n.

    With S0 = sum k^(1-a) and S1 = sum k^(1-a) ln k: N = e^b S0 and the
    entropy is b + (ln S0 - S1/S0), whose two small terms are added first.
    k F(k) = e^b k^(1-a) does not grow with k, so its extremes sit at k = n
    and k = 1; at a = 1 both are e^b exactly.
    """
    eb = math.exp(b)
    s0, s1 = _power_sums(a - 1.0, 1, n)
    total = eb * s0
    _check_float_total(total, a, b)
    return total, b + (math.log(s0) - s1 / s0), eb * n ** (1.0 - a), eb


def _rounded_runs(a: float, b: float, n: int) -> Iterator[tuple[int, int, int]]:
    """(first k, last k, F) of each run of equal rounded law values on k = 1 .. n.

    F is evaluated as _law does.  Where F(k + 1) = F(k), the run's end is
    seeded from the inverse law, k <= (e^b / (F - 1/2))^(1/a), and nudged to
    where the evaluated F changes.
    """
    eb = math.exp(b)

    def value(k: int) -> int:
        return _round_half_up(eb * k ** (-a))

    k, v = 1, value(1)
    while k <= n:
        end, after = k, value(k + 1)
        if after == v:
            x = (eb / (v - 0.5)) ** (1 / a)
            end = n if x >= n else max(k, math.floor(x))
            while end < n and value(end + 1) == v:
                end += 1
            while value(end) != v:
                end -= 1
            after = value(end + 1)
        yield k, end, v
        k, v = end + 1, after


def _rounded_cell(a: float, b: float, n: int) -> tuple[int, float, int, int]:
    """(N, entropy, min k F(k), max k F(k)) of the rounded law on k = 1 .. n.

    Within a run of equal F, k F(k) is smallest at the run's first k and
    largest at its last, so N and both extremes are the per-point values
    exactly.  The entropy is ln N - sum F(k) k ln k / N.
    """
    total, kf_min, kf_max = 0, math.inf, 0
    # F scaled by 2^-e, exactly, with e^b < 2^e: sum F k ln k can pass the
    # float range where N does not
    e = math.frexp(math.exp(b))[1]

    def k_ln_k_terms() -> Iterator[float]:
        # F sum k ln k over each run, fed to fsum as N and the extremes add up;
        # a one-point run skips _power_sums, as every run does when k_cap < e^(b/2)
        nonlocal total, kf_min, kf_max
        for lo, hi, v in _rounded_runs(a, b, n):
            total += v * (hi * (hi + 1) - (lo - 1) * lo) // 2
            kf_min = min(kf_min, lo * v)
            kf_max = max(kf_max, hi * v)
            yield math.ldexp(v, -e) * (lo * math.log(lo) if lo == hi else _power_sums(-1.0, lo, hi)[1])

    k_ln_k = math.fsum(k_ln_k_terms())
    _check_float_total(total, a, b)
    return total, math.log(total) - k_ln_k / math.ldexp(total, -e), kf_min, kf_max


def _check_float_total(total: float, a: float, b: float) -> None:
    # the entropy and the chain slacks are floats, and so must N be
    if total > _FLOAT_MAX:
        raise ValueError(f"token total overflows a float for a={a}, b={b}")


def sweep(
    a_grid: list[float],
    b_grid: list[float],
    mode: str = "exact_real",
    k_cap: int | None = None,
) -> list[SweepRow]:
    """Entropy vs ceiling over a parameter grid, one row per (a, b) in grid order.

    The mode, k_cap and every slope (finite, >= 1) are checked up front; other
    per-cell generator rejections (e.g. negative b, or more than
    MAX_LAW_POINTS points) are recorded in the row instead of aborting the
    sweep.  Each cell's statistics come in closed form from power sums,
    without building its spectrum: O(1) in exact mode and one step per run
    of equal values in rounded mode.  They equal those of generate_spectrum's
    spectrum: in rounded mode N, M and every chain slack bit for bit,
    otherwise to float rounding.
    """
    SyntheticSpec(a=1.0, b=0.0, mode=mode, k_cap=k_cap)  # checks the mode and k_cap every cell shares
    for a in a_grid:
        if not a >= 1:
            raise ValueError(f"slope grid must satisfy a >= 1, got {a}")
        if not math.isfinite(a):
            raise ValueError(f"slope grid must be finite, got {a}")
    cell = _exact_cell if mode == "exact_real" else _rounded_cell
    rows: list[SweepRow] = []
    for a in a_grid:
        for b in b_grid:
            try:
                n = _law_points(SyntheticSpec(a=a, b=b, mode=mode, k_cap=k_cap))
                total, ent, kf_min, kf_max = cell(a, b, n)
            except ValueError as exc:
                rows.append(SweepRow(a=a, b=b, error=str(exc)))
                continue
            bound = entropy_upper_bound(a, b)
            chain = chain_diagnostics(a, b, kf_min, kf_max, total, n)
            rows.append(
                SweepRow(
                    a=a,
                    b=b,
                    n_tokens=total,
                    max_k=n,
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
    lines.extend(",".join("" if v is None else str(v) for v in r._values()[:-1]) for r in rows)
    return "\n".join(lines) + "\n"
