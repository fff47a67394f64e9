"""Synthetic power-law generator, round-trips, and the sweep."""

import math

import mpmath
import pytest

from zipfent.bound import chain_check, entropy_from_spectrum, entropy_upper_bound
from zipfent.corpus import count_frequencies
from zipfent.fit import fit_loglog
from zipfent.spectrum import freq_of_freq
from zipfent.synth import (
    SWEEP_CSV_HEADER,
    SyntheticSpec,
    _law_k_max,
    generate_spectrum,
    spectrum_to_corpus,
    sweep,
    sweep_csv,
)


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
    assert spectrum_to_corpus(freq_of_freq(count_frequencies(["x", "x"]))) == ["w0", "w0"]


def test_corpus_round_trip_small():
    from zipfent.spectrum import FreqSpectrum

    spec = FreqSpectrum.from_points({1: 2, 3: 1})
    tokens = spectrum_to_corpus(spec)
    assert len(tokens) == 5
    assert len(set(tokens)) == 3
    assert freq_of_freq(count_frequencies(tokens)).points == spec.points


def test_corpus_round_trip_generated():
    spec = generate_spectrum(SyntheticSpec(a=1.0, b=math.log(4), mode="rounded_integer"))
    tokens = spectrum_to_corpus(spec)
    assert len(tokens) == 15
    assert freq_of_freq(count_frequencies(tokens)).points == spec.points


def test_corpus_rejects_real_valued_spectrum():
    spec = generate_spectrum(SyntheticSpec(a=1.5, b=4.0, mode="exact_real"))
    with pytest.raises(ValueError):
        spectrum_to_corpus(spec)


def test_round_trip_identity_across_grid():
    for a in (1.0, 1.5, 2.0):
        for b in (2.0, 4.0):
            spec = generate_spectrum(SyntheticSpec(a=a, b=b, mode="rounded_integer"))
            tokens = spectrum_to_corpus(spec)
            assert freq_of_freq(count_frequencies(tokens)).points == spec.points


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
            assert entropy_from_spectrum(spec).nats <= entropy_upper_bound(a, b)


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


@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_spec_rejects_non_finite_intercept(b):
    with pytest.raises(ValueError):
        SyntheticSpec(a=1.0, b=b)
