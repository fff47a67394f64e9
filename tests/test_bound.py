"""Entropy, the closed-form ceiling, and the chain diagnostics."""

import math
import random
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from conftest import random_tokens
from zipfent.bound import chain_check, entropy, entropy_upper_bound
from zipfent.errors import BoundNotApplicableError
from zipfent.spectrum import FreqSpectrum, freq_of_freq


def entropy_oracle(counts):
    """Direct -sum p log p via numpy, independent of the library path."""
    arr = np.array(list(counts), dtype=float)
    p = arr / arr.sum()
    return float(-(p * np.log(p)).sum())


# frozen via 50-digit evaluation of -(3/4 ln 3/4 + 1/4 ln 1/4)
ENTROPY_3_1 = 0.56233514461880835


def test_entropy_uniform_is_log_n():
    for n in (2, 5, 24):
        spec = freq_of_freq({f"w{i}": 1 for i in range(n)})
        assert entropy(spec).nats == pytest.approx(math.log(n), abs=1e-12)


def test_entropy_degenerate_is_zero():
    assert entropy(freq_of_freq({"a": 7})).nats == 0.0


def test_entropy_frozen_value():
    assert entropy(freq_of_freq({"a": 3, "b": 1})).nats == pytest.approx(ENTROPY_3_1, abs=1e-12)


def test_entropy_bits_conversion():
    val = entropy(freq_of_freq({"a": 3, "b": 1}))
    assert val.bits == pytest.approx(val.nats / math.log(2), abs=1e-12)


def test_entropy_of_spectrum_uniform():
    assert entropy(FreqSpectrum.from_points({1: 16})).nats == pytest.approx(math.log(16), abs=1e-12)


def test_entropy_of_spectrum_frozen_value():
    assert entropy(FreqSpectrum.from_points({3: 1, 1: 1})).nats == pytest.approx(ENTROPY_3_1, abs=1e-12)


def test_entropy_of_spectrum_two_words():
    assert entropy(FreqSpectrum.from_points({2: 2})).nats == pytest.approx(math.log(2), abs=1e-12)


def entropy_word_by_word(counts):
    """The entropy loop over a word -> count mapping, one term per word."""
    n = sum(counts.values())
    terms = []
    for c in sorted(counts.values()):
        p = c / n
        terms.append(-p * math.log(p))
    return math.fsum(terms) + 0.0


def test_entropy_matches_oracle_and_the_word_by_word_sum():
    rng = random.Random(42)
    for _ in range(200):
        counts = Counter(random_tokens(rng))
        nats = entropy(freq_of_freq(counts)).nats
        assert nats == pytest.approx(entropy_oracle(counts.values()), abs=1e-12)
        assert nats == pytest.approx(entropy_word_by_word(counts), abs=1e-12)


@example([33, 12, 40, 29, 29, 35, 29])
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=1, max_value=2**70),
            st.integers(min_value=2**53 - 3, max_value=2**53 + 3),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_entropy_equals_the_word_by_word_sum_bit_for_bit(counts):
    # an integer-valued spectrum is summed exactly and rounded once, so the
    # library and the report agree in the last bit with fsum over the words
    counts = {f"w{i}": c for i, c in enumerate(counts)}
    expected = entropy_word_by_word(counts)
    value = entropy(freq_of_freq(counts))
    assert value.nats.hex() == expected.hex()
    assert value.bits.hex() == (expected / math.log(2)).hex()


def test_entropy_of_a_huge_integer_spectrum():
    # F(1) past 2**63, as a rounded synthetic law makes it: summed per distinct k
    spec = FreqSpectrum.from_points({1: 2**64, 2: 3})
    n = 2**64 + 6
    expected = math.fsum([-(2**64) * (1 / n) * math.log(1 / n), -3 * (2 / n) * math.log(2 / n)])
    assert entropy(spec).nats == pytest.approx(expected, rel=1e-15)


@given(st.dictionaries(st.integers(1, 10**6), st.floats(1.0, 1e9), min_size=1, max_size=40))
def test_entropy_of_a_real_valued_spectrum_matches_a_50_digit_sum(points):
    spec = FreqSpectrum.from_points(points)
    with mpmath.workdps(50):
        n = mpmath.fsum(k * mpmath.mpf(f) for k, f in points.items())
        expected = -mpmath.fsum(f * (k / n) * mpmath.log(k / n) for k, f in points.items())
    # F(k) >= 1 keeps every p <= 1, so every term is >= 0 and none cancels
    assert entropy(spec).nats == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


@given(st.dictionaries(st.integers(1, 10**6), st.integers(1, 2**40), min_size=1, max_size=40))
def test_an_integer_spectrum_and_its_float_copy_have_the_same_entropy(points):
    # the exact integer sum and the fsum of F(k)-weighted terms agree
    exact = entropy(FreqSpectrum.from_points(points)).nats
    real = entropy(FreqSpectrum.from_points({k: float(f) for k, f in points.items()})).nats
    assert real == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_entropy_range():
    rng = random.Random(43)
    for _ in range(100):
        counts = Counter(random_tokens(rng))
        nats = entropy(freq_of_freq(counts)).nats
        assert -1e-12 <= nats <= math.log(len(counts)) + 1e-12


@given(st.dictionaries(st.text("ab", min_size=1, max_size=3), st.integers(1, 50), min_size=1),
       st.sampled_from([2, 3, 10]))
def test_entropy_scale_invariance(counts, c):
    scaled = {w: c * n for w, n in counts.items()}
    assert entropy(freq_of_freq(scaled)).nats == pytest.approx(entropy(freq_of_freq(counts)).nats, abs=1e-12)


def test_bound_at_slope_one_collapses_to_b_plus_1():
    for b in (0.0, math.log(2), 5.0, 17.5):
        assert entropy_upper_bound(1.0, b) == b + 1


def test_bound_frozen_values():
    # high-precision: 1 + ln 2 and 6 e^5
    assert entropy_upper_bound(1.0, math.log(2)) == pytest.approx(1.6931471805599453, abs=1e-12)
    mpmath.mp.dps = 50
    assert entropy_upper_bound(2.0, 10.0) == pytest.approx(float(6 * mpmath.exp(5)), rel=1e-9)


def test_bound_rejects_small_slope():
    with pytest.raises(BoundNotApplicableError) as exc:
        entropy_upper_bound(0.8, 3.0)
    assert exc.value.a == 0.8


def test_bound_monotone_in_b():
    rng = random.Random(9)
    for _ in range(50):
        a = 1 + 2 * rng.random()
        b1 = 8 * rng.random()
        b2 = b1 + 1e-3 + 4 * rng.random()
        assert entropy_upper_bound(a, b1) < entropy_upper_bound(a, b2)


def law_spectrum(a, b):
    kmax = math.floor(math.exp(b / a))
    return FreqSpectrum.from_points({k: math.exp(b) * k ** (-a) for k in range(1, kmax + 1)})


def test_chain_passes_on_exact_law():
    for a, b in [(1.0, 4.0), (1.5, 6.0), (2.0, 5.0)]:
        diag = chain_check(law_spectrum(a, b), a, b, tolerance=1e-9)
        assert diag.all_ok()
        # independent evaluation of the worst sandwich slacks
        e_lo, e_hi = math.exp(b / a), math.exp(b)
        products = [k * math.exp(b) * k ** (-a) for k in law_spectrum(a, b).points]
        assert diag.sandwich_lower.slack == pytest.approx(min(products) - e_lo, abs=1e-9)
        assert diag.sandwich_upper.slack == pytest.approx(e_hi - max(products), abs=1e-9)


def test_chain_tight_at_slope_one():
    # a = 1 makes k F(k) = e^b on every point: both sandwich slacks vanish
    diag = chain_check(law_spectrum(1.0, 4.0), 1.0, 4.0, tolerance=0.0)
    assert abs(diag.sandwich_lower.slack) <= 1e-11
    assert abs(diag.sandwich_upper.slack) <= 1e-11
    assert diag.n_bound.slack == pytest.approx(0.0, abs=1e-9)
    assert diag.ratio.slack == pytest.approx(0.0, abs=1e-12)


def test_chain_reports_deliberate_violation():
    # k F(k) = 200 at k = 2 while e^b = 4: upper sandwich fails by 196
    spec = FreqSpectrum.from_points({1: 1, 2: 100})
    diag = chain_check(spec, 1.0, math.log(4), tolerance=1e-9)
    assert not diag.sandwich_upper.ok
    assert diag.sandwich_upper.slack == pytest.approx(-196.0, abs=1e-9)
    assert not diag.sandwich_lower.ok
    assert diag.sandwich_lower.slack == pytest.approx(-3.0, abs=1e-9)
    # N = 201, M = 2: the tail inequalities still hold
    assert diag.n_bound.ok and diag.ratio.ok
    assert not diag.all_ok()


def test_chain_fit_of_rising_spectrum_is_inapplicable():
    # the {1:1, 2:100} spectrum fits with slope a = -ln(100)/ln(2) < 1,
    # so the chain (like the bound) refuses it
    from zipfent.fit import fit_loglog

    fit = fit_loglog(FreqSpectrum.from_points({1: 1, 2: 100}))
    assert fit.a == pytest.approx(-math.log(100) / math.log(2), abs=1e-12)
    with pytest.raises(BoundNotApplicableError):
        chain_check(FreqSpectrum.from_points({1: 1, 2: 100}), fit.a, fit.b)


def test_chain_tolerance_validation():
    with pytest.raises(ValueError):
        chain_check(law_spectrum(1.0, 2.0), 1.0, 2.0, tolerance=-1e-3)


def _old_sandwich_slacks(spec, a, b):
    """The two-min sandwich slacks chain_check computed term by term."""
    e_lo = math.exp(b / a)
    e_hi = math.exp(b)
    lower = min(k * f - e_lo for k, f in spec.points.items())
    upper = min(e_hi - k * f for k, f in spec.points.items())
    return lower, upper


_ks = st.integers(1, 10**9)
# integer spectra (counts past 2^53 included), and real or mixed ones
_spectra = st.one_of(
    st.dictionaries(_ks, st.integers(1, 10**30), min_size=1, max_size=30),
    st.dictionaries(
        _ks,
        st.one_of(st.integers(1, 10**6), st.floats(1e-300, 1e300)),
        min_size=1,
        max_size=30,
    ),
)


@given(_spectra, st.floats(1.0, 50.0), st.floats(0.0, 300.0))
def test_chain_sandwich_equals_termwise_min_bit_for_bit(points, a, b):
    try:
        spec = FreqSpectrum.from_points(points)
    except ValueError:  # a token total past the float range
        reject()
    chain = chain_check(spec, a, b)
    lower, upper = _old_sandwich_slacks(spec, a, b)
    assert chain.sandwich_lower.slack.hex() == lower.hex()
    assert chain.sandwich_upper.slack.hex() == upper.hex()
