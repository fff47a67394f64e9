"""Frequency-of-frequencies spectrum construction and export."""

import random

import pytest

from conftest import random_tokens
from zipfent.corpus import FrequencyTable, count_frequencies
from zipfent.errors import EmptyCorpusError
from zipfent import spectrum
from zipfent.spectrum import FreqSpectrum, freq_of_freq, spectrum_csv
from zipfent.synth import SyntheticSpec, generate_spectrum


def test_freq_of_freq_hand_enumeration():
    spec = freq_of_freq(FrequencyTable.from_counts({"a": 3, "b": 2, "c": 1}))
    assert spec.points == {1: 1, 2: 1, 3: 1}
    assert spec.total_tokens == 6
    assert spec.max_k == 3


def test_freq_of_freq_singleton():
    assert freq_of_freq(FrequencyTable.from_counts({"a": 5})).points == {5: 1}


def test_freq_of_freq_uniform_corpus():
    table = FrequencyTable.from_counts({f"w{i}": 1 for i in range(9)})
    assert freq_of_freq(table).points == {1: 9}


def test_freq_of_freq_rejects_empty_table():
    with pytest.raises(EmptyCorpusError):
        freq_of_freq(count_frequencies([]))


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


def test_conservation_on_random_corpora():
    rng = random.Random(7)
    for _ in range(100):
        table = count_frequencies(random_tokens(rng, max_tokens=400, alphabet=30))
        spec = freq_of_freq(table)
        assert sum(k * f for k, f in spec.points.items()) == table.total_tokens
        assert sum(spec.points.values()) == table.vocab_size
        assert spec.max_k == max(spec.points) == table.max_frequency


def test_invariant_under_word_relabeling():
    rng = random.Random(11)
    table = count_frequencies(random_tokens(rng, max_tokens=300, alphabet=20))
    relabeled = FrequencyTable.from_counts(
        {f"q{i}": c for i, (_, c) in enumerate(sorted(table.counts.items()))}
    )
    assert freq_of_freq(relabeled).points == freq_of_freq(table).points


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
