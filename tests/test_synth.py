"""Synthetic power-law generator, round-trips, and the sweep."""

import contextlib
import io
import math
import os
import tempfile
import timeit
from collections import Counter
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zipfent import synth
from zipfent.bound import chain_check, entropy, entropy_upper_bound
from zipfent.cli import _MODE_NAMES, main
from zipfent.errors import InsufficientPointsError
from zipfent.fit import fit_loglog
from zipfent.spectrum import FreqSpectrum, freq_of_freq, spectrum_csv
from zipfent.synth import (
    MAX_CORPUS_TOKENS,
    MAX_LAW_POINTS,
    MODES,
    SWEEP_CSV_HEADER,
    SyntheticSpec,
    _law_k_max,
    _law_points,
    _power_sums,
    corpus_text,
    generate_corpus,
    generate_spectrum,
    spectrum_to_corpus,
    sweep,
    sweep_csv,
)


def law_oracle(spec: SyntheticSpec) -> FreqSpectrum:
    """The dict construction generate_spectrum replaced, kept as its reference."""
    k_max = _law_k_max(spec.a, spec.b)
    if spec.k_cap is not None:
        k_max = min(k_max, spec.k_cap)
    eb = math.exp(spec.b)
    law = {k: eb * k ** (-spec.a) for k in range(1, k_max + 1)}
    if spec.mode == "exact_real":
        return FreqSpectrum.from_points(law)
    return FreqSpectrum.from_points({k: math.floor(f + 0.5) for k, f in law.items()})


def corpus_oracle(spec: FreqSpectrum) -> list[str]:
    """The token list construction corpus_text replaced, kept as its reference."""
    tokens: list[str] = []
    next_word = 0
    for k, count in spec.points.items():
        for _ in range(count):
            tokens.extend([f"w{next_word}"] * k)
            next_word += 1
    return tokens


def fit_or_error(spec):
    try:
        return fit_loglog(spec)
    except InsufficientPointsError as exc:
        return str(exc)


def assert_same_spectrum(new: FreqSpectrum, old: FreqSpectrum, a: float, b: float):
    assert new.points == old.points
    assert list(new.points) == list(old.points)
    assert list(new.points.items()) == list(old.points.items())
    assert [new.points[k] for k in old.points] == list(old.points.values())
    assert 0 not in new.points and new.max_k + 1 not in new.points
    assert type(new.total_tokens) is type(old.total_tokens)
    assert new.total_tokens == old.total_tokens
    assert new.max_k == old.max_k
    assert entropy(new).nats == entropy(old).nats
    assert chain_check(new, a, b) == chain_check(old, a, b)
    assert fit_or_error(new) == fit_or_error(old)
    assert "".join(spectrum_csv(new)) == "".join(spectrum_csv(old))  # repr of every value: types too


def test_rounded_hand_example():
    # 4/k rounded half-up for k = 1..4, token total hand-summed
    spec = generate_spectrum(SyntheticSpec(a=1.0, b=math.log(4), mode="rounded_integer"))
    assert spec.points == {1: 4, 2: 2, 3: 1, 4: 1}
    assert spec.total_tokens == 15
    assert spec.max_k == 4


def test_rounded_minimal_spectrum():
    spec = generate_spectrum(SyntheticSpec(a=2.0, b=0.0, mode="rounded_integer"))
    assert spec.points == {1: 1}
    assert spec.total_tokens == 1


def test_exact_sandwich_holds_on_domain():
    # independent check of e^(b/a) <= k F(k) <= e^b at 50-digit precision
    mpmath.mp.dps = 50
    spec = generate_spectrum(SyntheticSpec(a=1.5, b=6.0, mode="exact_real"))
    lo = float(mpmath.exp(mpmath.mpf(6) / mpmath.mpf(1.5)))
    hi = float(mpmath.exp(6))
    products = [k * f for k, f in spec.points.items()]
    assert all(lo - 1e-9 <= p <= hi + 1e-9 for p in products)
    assert all(u > v for u, v in zip(products, products[1:]))  # decreasing in k


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(a=0.9, b=2.0)
    with pytest.raises(ValueError):
        SyntheticSpec(a=1.0, b=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(a=1.0, b=2.0, mode="approximate")
    with pytest.raises(ValueError):
        SyntheticSpec(a=1.0, b=2.0, k_cap=0)


def test_k_cap_truncates():
    spec = generate_spectrum(SyntheticSpec(a=1.0, b=4.0, mode="exact_real", k_cap=10))
    assert spec.max_k == 10
    assert len(spec.points) == 10


def test_domain_ends_where_law_reaches_one():
    for a, b in [(1.0, 4.0), (1.5, 6.0), (2.0, 8.0)]:
        spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="exact_real"))
        m = spec.max_k
        assert math.exp(b) * m ** (-a) >= 1.0
        assert math.exp(b) * (m + 1) ** (-a) < 1.0


def test_corpus_single_repeated_word():
    assert spectrum_to_corpus(freq_of_freq(Counter(["x", "x"]))) == ["w0", "w0"]


def test_corpus_round_trip_small():
    from zipfent.spectrum import FreqSpectrum

    spec = FreqSpectrum.from_points({1: 2, 3: 1})
    tokens = spectrum_to_corpus(spec)
    assert len(tokens) == 5
    assert len(set(tokens)) == 3
    assert freq_of_freq(Counter(tokens)).points == spec.points


def test_corpus_round_trip_generated():
    spec = generate_spectrum(SyntheticSpec(a=1.0, b=math.log(4), mode="rounded_integer"))
    tokens = spectrum_to_corpus(spec)
    assert len(tokens) == 15
    assert freq_of_freq(Counter(tokens)).points == spec.points


def test_corpus_rejects_real_valued_spectrum():
    spec = generate_spectrum(SyntheticSpec(a=1.5, b=4.0, mode="exact_real"))
    with pytest.raises(ValueError):
        spectrum_to_corpus(spec)


def test_round_trip_identity_across_grid():
    for a in (1.0, 1.5, 2.0):
        for b in (2.0, 4.0):
            spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="rounded_integer"))
            tokens = spectrum_to_corpus(spec)
            assert freq_of_freq(Counter(tokens)).points == spec.points


def test_fit_recovers_generator_parameters():
    for a in (1.0, 1.5, 2.0, 2.5):
        for b in (2.0, 4.0, 6.0):
            spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="exact_real"))
            fit = fit_loglog(spec)
            assert fit.a == pytest.approx(a, abs=1e-9)
            assert fit.b == pytest.approx(b, abs=1e-9)
            assert fit.rmse <= 1e-9


def test_chain_passes_on_exact_spectra():
    for a in (1.0, 1.5, 2.0):
        for b in (2.0, 4.0, 6.0):
            spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="exact_real"))
            assert chain_check(spec, a, b, tolerance=1e-9).all_ok()


def test_entropy_never_exceeds_ceiling_on_exact_spectra():
    for a in (1.0, 1.25, 1.5, 2.0, 3.0):
        for b in (0.5, 2.0, 4.0, 6.0, 8.0):
            spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="exact_real"))
            assert entropy(spec).nats <= entropy_upper_bound(a, b)


@settings(deadline=None)
@given(st.floats(1.0, 3.0), st.floats(0.0, 40.0), st.integers(1, 2000))
@example(1.0, 16.0, 2000)
def test_chain_passes_on_exact_law_at_any_scale(a, b, k_cap):
    # the sandwich slacks are float noise on the scale of e^b: -1.86e-9 at a = 1, b = 16
    spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="exact_real", k_cap=k_cap))
    assert chain_check(spec, a, b).all_ok()


def test_sweep_single_cell_closed_form():
    rows = sweep([1.0], [math.log(2)], mode="exact_real")
    assert len(rows) == 1
    assert rows[0].bound_nats == pytest.approx(1 + math.log(2), abs=1e-12)
    assert rows[0].error is None


def test_sweep_grid_margins_nonnegative():
    rows = sweep([1.0, 2.0], [4.0, 6.0], mode="exact_real")
    assert len(rows) == 4
    assert [(r.a, r.b) for r in rows] == [(1.0, 4.0), (1.0, 6.0), (2.0, 4.0), (2.0, 6.0)]
    assert all(r.margin_nats >= 0 for r in rows)


def test_sweep_empty_grid():
    assert sweep([], [4.0]) == []
    assert sweep_csv(sweep([], [])) == SWEEP_CSV_HEADER + "\n"


def test_sweep_rejects_bad_slope_grid():
    with pytest.raises(ValueError):
        sweep([1.0, 0.5], [4.0])


def test_sweep_records_cell_errors_in_row():
    rows = sweep([1.0], [2.0, -1.0], mode="rounded_integer")
    assert rows[0].error is None
    assert rows[1].error is not None and rows[1].entropy_nats is None
    csv = sweep_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[2].startswith("1.0,-1.0,")
    assert lines[2].count(",") == 10 and lines[2].endswith(",,,")


def test_sweep_rounded_mode_populates_diagnostics():
    rows = sweep([1.5], [4.0], mode="rounded_integer")
    (row,) = rows
    assert row.error is None
    assert row.n_tokens > 0 and isinstance(row.max_k, int)
    assert row.sandwich_lo is not None and row.ratio is not None


def test_sweep_deterministic():
    r1 = sweep_csv(sweep([1.0, 1.5], [2.0, 4.0], mode="exact_real"))
    r2 = sweep_csv(sweep([1.0, 1.5], [2.0, 4.0], mode="exact_real"))
    assert r1 == r2


@pytest.mark.parametrize("a, b", [(1.0, 800.0), (2.0, 800.0), (1.0, 1e308)])
def test_law_k_max_overflow_is_value_error(a, b):
    with pytest.raises(ValueError, match="overflows"):
        _law_k_max(a, b)


def test_generate_spectrum_whose_token_total_overflows_is_value_error():
    # both points are finite, near the largest float, and their fsum is not
    spec = SyntheticSpec(a=1, b=709.7, mode="exact_real", k_cap=2)
    with pytest.raises(ValueError, match="token total overflows"):
        generate_spectrum(spec)

@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_spec_rejects_non_finite_intercept(b):
    with pytest.raises(ValueError):
        SyntheticSpec(a=1.0, b=b)


def test_spec_rejects_infinite_slope():
    with pytest.raises(ValueError, match="slope a must be finite"):
        SyntheticSpec(a=math.inf, b=1.0)


@settings(deadline=None)
@given(
    st.floats(1.0, 3.0),
    st.floats(0.0, 10.0),
    st.sampled_from(MODES),
    st.one_of(st.none(), st.integers(1, 5000)),
)
def test_compact_spectrum_equals_dict_construction(a, b, mode, k_cap):
    spec = SyntheticSpec(a=a, b=b, mode=mode, k_cap=k_cap)
    assert_same_spectrum(generate_spectrum(spec), law_oracle(spec), a, b)


@settings(deadline=None)
@given(
    st.floats(1.0, 3.0),
    st.floats(0.0, 6.0),
    st.sampled_from(sorted(_MODE_NAMES)),
    st.one_of(st.none(), st.integers(1, 5000)),
)
# values past 2^63: float rows in exact mode, a corpus refused by its exact total in rounded mode
@example(1.0, 50.0, "exact", 2)
@example(1.0, 50.0, "rounded", 2)
@example(1.0, 700.0, "exact", 2)
# refused by the n(n+1)/2 lower bound
@example(1.0, 25.0, "rounded", 50_000)
def test_gen_streams_what_the_dict_spectrum_writes(a, b, mode, k_cap):
    oracle = law_oracle(SyntheticSpec(a=a, b=b, mode=_MODE_NAMES[mode], k_cap=k_cap))
    try:
        expected = "".join(spectrum_csv(oracle) if mode == "exact" else corpus_text(oracle)), 0, ""
    except ValueError as exc:
        expected = None, 1, f"zipfent: error: {exc}\n"
    argv = ["gen", f"--a={a}", f"--b={b}", "--mode", mode] + ([] if k_cap is None else [f"--k-cap={k_cap}"])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = os.path.join(tmp, "out")
        code = main(argv + ["--out", out])
        written = Path(out).read_text(encoding="utf-8") if os.path.exists(out) else None
    assert (written, code, err.getvalue()) == expected


def test_rounded_values_past_int64():
    spec = SyntheticSpec(a=1.0, b=50.0, mode="rounded_integer", k_cap=2)
    new = generate_spectrum(spec)
    assert new.points[1] > 2**63 and isinstance(new.points[1], int)
    assert_same_spectrum(new, law_oracle(spec), 1.0, 50.0)


def test_law_point_limit_admits_b16_without_building():
    assert _law_points(SyntheticSpec(a=1.0, b=16.0, mode="exact_real")) == 8_886_110 <= MAX_LAW_POINTS


def test_the_exact_cell_of_b_16_costs_about_what_b_4_costs():
    # each cell comes from power sums in closed form, so a=1, b=16 (8.9M
    # points) takes about as long as b=4 (54 points); a walk over every
    # point would take 10^5 times as long.  A ratio of two times on one
    # host holds on any host, where a time bound measures the host
    def per_call(b, number):
        n = _law_k_max(1.0, b)
        return min(timeit.repeat(lambda: synth._exact_cell(1.0, b, n), number=number, repeat=5)) / number

    assert _law_k_max(1.0, 16.0) == 8_886_110 and _law_k_max(1.0, 4.0) == 54
    assert per_call(16.0, 1) < 50 * per_call(4.0, 20)


@pytest.mark.parametrize(
    "a, b, k_cap",
    [(1.0, 17.0, None), (1.0, 40.0, None), (1.0, 100.0, None), (1.0, 700.0, 10**30), (2.0, 40.0, None)],
)
def test_oversized_spectrum_refused(a, b, k_cap):
    with pytest.raises(ValueError, match="--k-cap"):
        generate_spectrum(SyntheticSpec(a=a, b=b, k_cap=k_cap))


@pytest.mark.parametrize("b", [100.0, 700.0])
def test_k_cap_reaches_huge_intercepts(b):
    # the walk to k_max = floor(e^(b/a)) would never end here; k_cap stops short of it
    spec = generate_spectrum(SyntheticSpec(a=1.0, b=b, mode="exact_real", k_cap=3))
    eb = math.exp(b)
    assert dict(spec.points) == {1: eb, 2: eb * 2.0**-1, 3: eb * 3.0**-1}
    assert spec.max_k == 3


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_corpus_text_equals_token_list_construction(monkeypatch, block):
    monkeypatch.setattr(synth, "_BLOCK_TOKENS", block)
    spectra = [FreqSpectrum.from_points({1: 5, 3: 2, 7: 1})] + [
        generate_spectrum(SyntheticSpec(a=a, b=b, k_cap=k_cap))
        for a, b, k_cap in [(1.0, 4.0, None), (1.5, 5.0, None), (2.0, 3.0, 2), (1.0, 6.0, 40)]
    ]
    for spec in spectra:
        expected = corpus_oracle(spec)
        blocks = list(corpus_text(spec))
        assert "".join(blocks) == "".join(t + "\n" for t in expected)
        assert max(b.count("\n") for b in blocks) <= max(block, spec.max_k)
        assert spectrum_to_corpus(spec) == expected


def test_corpus_token_limit():
    assert generate_spectrum(SyntheticSpec(a=1.0, b=8.5)).total_tokens == 23_364_700 <= MAX_CORPUS_TOKENS
    spec = generate_spectrum(SyntheticSpec(a=1.0, b=50.0, k_cap=2))
    for make in (corpus_text, spectrum_to_corpus):
        with pytest.raises(ValueError, match="--k-cap"):
            make(spec)


def test_generate_corpus_refuses_before_building_the_spectrum(monkeypatch):
    def unreachable(*args):
        raise AssertionError("spectrum built")

    monkeypatch.setattr(synth, "generate_spectrum", unreachable)
    monkeypatch.setattr(synth, "_law", unreachable)
    # 1.2M points make at least 7.2e11 tokens
    with pytest.raises(ValueError, match="--k-cap"):
        generate_corpus(SyntheticSpec(a=1.0, b=14.0))


def generic_cell(a, b, mode, k_cap):
    """A sweep cell the way sweep built it before its closed form: the whole law
    spectrum, then entropy and chain_check over every point."""
    spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode=mode, k_cap=k_cap))
    chain = chain_check(spec, a, b)
    ent = entropy(spec).nats
    bound = entropy_upper_bound(a, b)
    return synth.SweepRow(
        a, b, spec.total_tokens, spec.max_k, ent, bound, bound - ent,
        chain.sandwich_lower.slack, chain.sandwich_upper.slack, chain.n_bound.slack, chain.ratio.slack,
    )


# relative agreement of the closed form with the point-by-point path: a few
# roundings of fsum-accurate sums
CELL_REL = 1e-14


@settings(deadline=None)
@given(
    st.floats(1.0, 3.0),
    st.floats(0.0, 12.0),
    st.sampled_from(MODES),
    st.one_of(st.none(), st.integers(1, 5000)),
)
# N = 7.6e307 fits a float, sum F(k) k ln k = 4.5e308 does not
@example(1.0, 702.0, "rounded_integer", 1000)
def test_sweep_cell_equals_generic_path(a, b, mode, k_cap):
    (new,) = sweep([a], [b], mode=mode, k_cap=k_cap)
    old = generic_cell(a, b, mode, k_cap)
    assert new.max_k == old.max_k and new.bound_nats == old.bound_nats
    # the entropy is ln N less a mean of ln k, so its rounding is on the scale of ln N
    h_scale = max(1.0, math.log(old.n_tokens))
    assert abs(new.entropy_nats - old.entropy_nats) <= CELL_REL * h_scale
    assert abs(new.margin_nats - old.margin_nats) <= CELL_REL * max(h_scale, old.bound_nats)
    slacks = ("sandwich_lo", "sandwich_hi", "n_bound", "ratio")
    if mode == "rounded_integer":
        assert type(new.n_tokens) is int and new.n_tokens == old.n_tokens
        assert [getattr(new, f) for f in slacks] == [getattr(old, f) for f in slacks]
        return
    assert new.n_tokens == pytest.approx(old.n_tokens, rel=CELL_REL)
    # each slack is a difference of quantities on its own scale
    e_b = max(1.0, math.exp(b))
    for field, scale in zip(slacks, (e_b, e_b, max(1.0, old.n_tokens), 1.0)):
        assert abs(getattr(new, field) - getattr(old, field)) <= CELL_REL * scale, field


def mp_power_sums(a, n):
    """(sum k^(1-a), sum k^(1-a) ln k) over k = 1 .. n, at 40 digits, by mpmath alone."""
    s = mpmath.mpf(a) - 1
    if s == 0:
        return mpmath.mpf(n), mpmath.loggamma(n + 1)
    if s == 1:
        return mpmath.harmonic(n), mpmath.fsum(mpmath.log(k) / k for k in range(1, n + 1))
    # Hurwitz zeta: sum_(k=1..n) k^-s = zeta(s, 1) - zeta(s, n + 1), and -d/ds of it
    return (
        mpmath.zeta(s, 1) - mpmath.zeta(s, n + 1),
        mpmath.zeta(s, n + 1, 1) - mpmath.zeta(s, 1, 1),
    )


@pytest.mark.parametrize(
    "a, b",
    [(1.0, 8.0), (1.0, 12.0), (1.0, 16.0), (1.5, 10.0), (1.5, 20.0), (2.0, 8.0), (2.0, 12.0), (3.0, 20.0),
     (2.0 - 1e-7, 12.0), (2.0 + 1e-7, 12.0), (1.0 + 1e-7, 12.0)],
)
def test_sweep_exact_cell_matches_mpmath(a, b):
    (row,) = sweep([a], [b], mode="exact_real")
    with mpmath.workdps(40):
        s0, s1 = mp_power_sums(a, row.max_k)
        n_tokens = mpmath.exp(b) * s0
        ent = b + mpmath.log(s0) - s1 / s0
        assert row.max_k == _law_k_max(a, b)
        assert abs(row.n_tokens - n_tokens) <= 2e-15 * n_tokens
        assert abs(row.entropy_nats - ent) <= 2e-15 * ent


_SHORT_RANGES = [(1, 1), (1, 64), (1, 65), (3, 70), (70, 5000), (1000, 1001)]


# s = -1 is the rounded mode's sum k ln k over a run; s = a - 1 the exact mode's
@pytest.mark.parametrize(
    "s, k_lo, k_hi",
    [(s, lo, hi) for s in (-1.0, 0.0, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0) for lo, hi in _SHORT_RANGES]
    + [(s, 7, 10**6) for s in (-1.0, 0.5, 1.0 - 1e-7, 1.0 + 1e-7, 2.0)],
)
def test_power_sums_match_mpmath(s, k_lo, k_hi):
    got = _power_sums(s, k_lo, k_hi)
    with mpmath.workdps(40):
        x = mpmath.mpf(s)
        if k_hi - k_lo < 6000:
            ks = range(k_lo, k_hi + 1)
            want = (mpmath.fsum(mpmath.mpf(k) ** -x for k in ks), mpmath.fsum(mpmath.mpf(k) ** -x * mpmath.log(k) for k in ks))
        else:
            want = (mpmath.zeta(x, k_lo) - mpmath.zeta(x, k_hi + 1), mpmath.zeta(x, k_hi + 1, 1) - mpmath.zeta(x, k_lo, 1))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * abs(w)


def test_sweep_a1_b16_without_building_the_spectrum(monkeypatch):
    def unreachable(spec):
        raise AssertionError("spectrum built")

    monkeypatch.setattr(synth, "generate_spectrum", unreachable)
    exact, rounded = (sweep([1.0], [16.0], mode=mode)[0] for mode in MODES)
    assert exact.max_k == rounded.max_k == 8_886_110
    # k F(k) = e^b at every k, and N = M e^b: the exact slacks vanish outright
    assert (exact.sandwich_lo, exact.sandwich_hi, exact.n_bound) == (0.0, 0.0, 0.0)
    assert rounded.n_tokens == 76_388_849_494_290


@pytest.mark.parametrize("mode, b, k_cap", [("exact_real", 709.0, 3), ("rounded_integer", 709.7, 2)])
def test_sweep_token_total_past_float_range_is_cell_error(mode, b, k_cap):
    (row,) = sweep([1.0], [b], mode=mode, k_cap=k_cap)
    assert row.n_tokens is None and "overflows" in row.error
