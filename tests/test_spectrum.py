"""Frequency-of-frequencies spectrum construction and export."""

import random
from collections import Counter

import pytest

from conftest import random_tokens
from zipfent.errors import EmptyCorpusError
from zipfent import spectrum
from zipfent.spectrum import FreqSpectrum, freq_of_freq, spectrum_csv
from zipfent.synth import SyntheticSpec, generate_spectrum


def test_freq_of_freq_hand_enumeration():
    spec = freq_of_freq({"a": 3, "b": 2, "c": 1})
    assert spec.points == {1: 1, 2: 1, 3: 1}
    assert spec.total_tokens == 6
    assert spec.max_k == 3


def test_freq_of_freq_singleton():
    assert freq_of_freq({"a": 5}).points == {5: 1}


def test_freq_of_freq_uniform_corpus():
    assert freq_of_freq({f"w{i}": 1 for i in range(9)}).points == {1: 9}


@pytest.mark.parametrize("counts, error", [
    ({}, EmptyCorpusError),
    ({"a": 0}, ValueError),
    ({"a": 2, "b": -1}, ValueError),
    ({"a": 2.5}, ValueError),
    ({"a": "2"}, ValueError),
    ({"a": None}, ValueError),
])
def test_freq_of_freq_refuses_an_empty_mapping_or_a_count_that_is_not_a_positive_int(counts, error):
    with pytest.raises(error):
        freq_of_freq(counts)


@pytest.mark.parametrize("counts", [{"a": 2, "b": 2.0}, {"a": 2.0, "b": 2}, {"a": 1, "b": 2, "c": 2.0}])
def test_freq_of_freq_refuses_a_float_count_equal_to_an_int_one_wherever_it_is(counts):
    # 2 and 2.0 are one key of a Counter of the counts
    with pytest.raises(ValueError, match=r"frequency k must be a positive integer, got 2\.0"):
        freq_of_freq(counts)


def test_from_points_validation():
    with pytest.raises(EmptyCorpusError):
        FreqSpectrum.from_points({})
    with pytest.raises(ValueError):
        FreqSpectrum.from_points({0: 3})
    with pytest.raises(ValueError):
        FreqSpectrum.from_points({1.5: 3})
    with pytest.raises(ValueError):
        FreqSpectrum.from_points({2: 0})
    with pytest.raises(ValueError):
        FreqSpectrum.from_points({2: float("nan")})


@pytest.mark.parametrize("points", [
    {1: 10**400},  # an F(k) past the float range
    {2: 1e308},  # a finite F(k) whose k * F(k) is not
    {36287216: 7.346603430671997e299, 954293521: 1.6044385879333452e299},  # finite terms whose fsum is not
    {2: 10**308},  # an int total past the float range
])
def test_from_points_refuses_a_spectrum_whose_f_or_token_total_is_not_a_finite_float(points):
    with pytest.raises(ValueError):
        FreqSpectrum.from_points(points)


def test_conservation_on_random_corpora():
    rng = random.Random(7)
    for _ in range(100):
        tokens = random_tokens(rng, max_tokens=400, alphabet=30)
        counts = Counter(tokens)
        spec = freq_of_freq(counts)
        assert sum(k * f for k, f in spec.points.items()) == len(tokens) == spec.total_tokens
        assert sum(spec.points.values()) == len(counts)
        assert spec.max_k == max(spec.points) == max(counts.values())


def test_invariant_under_word_relabeling():
    rng = random.Random(11)
    counts = Counter(random_tokens(rng, max_tokens=300, alphabet=20))
    relabeled = {f"q{i}": c for i, (_, c) in enumerate(sorted(counts.items()))}
    assert freq_of_freq(relabeled).points == freq_of_freq(counts).points


def test_csv_export_ascending_k():
    spec = FreqSpectrum.from_points({2: 2, 1: 4, 10: 1})
    assert "".join(spectrum_csv(spec)) == "k,F(k)\n1,4\n2,2\n10,1\n"


def csv_oracle(spec: FreqSpectrum) -> str:
    """The CSV as one string, built the way spectrum_csv once did."""
    lines = ["k,F(k)"]
    lines.extend(f"{k},{f}" for k, f in spec.points.items())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_csv_blocks_join_to_the_single_string(monkeypatch, block):
    monkeypatch.setattr(spectrum, "_CSV_BLOCK_ROWS", block)
    spectra = [
        FreqSpectrum.from_points({2: 2, 1: 4, 10: 1}),
        FreqSpectrum.from_points({1: 2.5, 2: 1.25}),
        generate_spectrum(SyntheticSpec(a=1.0, b=12.0, mode="exact_real")),  # 162,754 rows
        generate_spectrum(SyntheticSpec(a=1.5, b=9.0, mode="rounded_integer")),
    ]
    for spec in spectra:
        blocks = list(spectrum_csv(spec))
        assert "".join(blocks) == csv_oracle(spec)
        assert blocks[0] == "k,F(k)\n"
        assert len(blocks) == 1 + (len(spec.points) + block - 1) // block
        assert max(b.count("\n") for b in blocks[1:]) == min(block, len(spec.points))


def test_real_valued_spectrum_aggregates():
    spec = FreqSpectrum.from_points({1: 2.5, 2: 1.25})
    assert not spec.is_integer_valued()
    assert spec.total_tokens == pytest.approx(2.5 + 2 * 1.25, abs=1e-15)
    assert spec.max_k == 2
