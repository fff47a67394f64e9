"""Tokenizer and frequency-table behavior."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipfent.corpus import (
    TOKEN_RULES,
    FrequencyTable,
    TokenizerConfig,
    count_frequencies,
    count_stream,
    merge,
    tokenize,
)


def test_tokenize_case_folds_and_splits_punctuation():
    assert tokenize("A a b.") == ["a", "a", "b"]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_whitespace_rule():
    # hand-enumerated: three whitespace-separated chunks survive unchanged
    config = TokenizerConfig(token_rule="whitespace")
    assert tokenize("x1 y2 x1", config) == ["x1", "y2", "x1"]


def test_tokenize_numbers_count_as_words():
    assert tokenize("voltage is 42 not 7") == ["voltage", "is", "42", "not", "7"]


def test_tokenize_min_length_filter():
    config = TokenizerConfig(min_token_length=2)
    assert tokenize("a bb ccc d", config) == ["bb", "ccc"]


def test_tokenize_lowercase_off():
    config = TokenizerConfig(lowercase=False)
    assert tokenize("The the THE", config) == ["The", "the", "THE"]


def test_tokenize_non_ascii():
    assert tokenize("Naïve café 北京") == ["naïve", "café", "北京"]


def test_config_validation():
    with pytest.raises(ValueError):
        TokenizerConfig(min_token_length=0)
    with pytest.raises(ValueError):
        TokenizerConfig(token_rule="bytes")


def test_count_frequencies_hand_count():
    table = count_frequencies(["a", "a", "b"])
    assert table.counts == {"a": 2, "b": 1}
    assert table.total_tokens == 3
    assert table.max_frequency == 2
    assert table.vocab_size == 2


def test_count_frequencies_empty():
    table = count_frequencies([])
    assert table.is_empty()
    assert table.total_tokens == 0
    assert table.max_frequency == 0
    assert table.vocab_size == 0


def test_count_frequencies_single_word():
    table = count_frequencies(["a"] * 7)
    assert table.counts == {"a": 7}
    assert (table.total_tokens, table.max_frequency, table.vocab_size) == (7, 7, 1)


def test_from_counts_rejects_nonpositive_and_noninteger():
    with pytest.raises(ValueError):
        FrequencyTable.from_counts({"a": 0})
    with pytest.raises(ValueError):
        FrequencyTable.from_counts({"a": 2.5})


def test_merge_hand_sum():
    merged = merge(
        [FrequencyTable.from_counts({"a": 1}), FrequencyTable.from_counts({"a": 2, "b": 1})]
    )
    assert merged.counts == {"a": 3, "b": 1}
    assert merged.total_tokens == 4
    assert merged.max_frequency == 3


def test_merge_identity_element():
    table = count_frequencies(["x", "y", "x"])
    assert merge([table, count_frequencies([])]).counts == table.counts


def test_merge_commutes():
    t1 = count_frequencies(["x", "y", "x"])
    t2 = count_frequencies(["y", "z"])
    assert merge([t1, t2]).counts == merge([t2, t1]).counts


@given(st.lists(st.sampled_from("abcdef"), max_size=200))
def test_token_conservation(tokens):
    assert count_frequencies(tokens).total_tokens == len(tokens)


@given(
    st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=80),
    st.integers(min_value=0, max_value=80),
)
def test_merge_equals_counting_the_concatenation(tokens, cut):
    cut = min(cut, len(tokens))
    merged = merge([count_frequencies(tokens[:cut]), count_frequencies(tokens[cut:])])
    assert merged.counts == count_frequencies(tokens).counts


@given(st.text(max_size=200))
def test_tokenize_deterministic(text):
    config = TokenizerConfig()
    assert tokenize(text, config) == tokenize(text, config)


# Byte fragments that stress chunked decoding and tokenizing: ASCII words,
# separators and whitespace (including non-ASCII whitespace), astral letters
# and symbols, combining marks, letters whose case fold changes their length,
# and invalid or truncated UTF-8 sequences.
_FRAGMENTS = [
    s.encode("utf-8")
    for s in ["a", "Zq", "_", "7", " ", "\n", "\t", ".", "-", "\u00a0", "\u3000", "\x1c",
              "\U0001d518", "\U00010400", "\U0001f600", "\u00e9", "\u0301", "\u0332",
              "\u00df", "\u0130", "\ufb01", "\u00c9", "\u5317"]
] + [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f", b"\xf0\x9f\x98", b"\xed\xa0\x80", b"\xc0\xaf"]

_stream_bytes = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.binary(max_size=3)), max_size=25
).map(b"".join)

_configs = st.builds(
    TokenizerConfig,
    lowercase=st.booleans(),
    min_token_length=st.integers(min_value=1, max_value=3),
    token_rule=st.sampled_from(TOKEN_RULES),
)


def _one_shot(data: bytes, config: TokenizerConfig) -> dict[str, int]:
    return count_frequencies(tokenize(data.decode("utf-8", "replace"), config)).counts


@given(_stream_bytes, _configs)
def test_count_stream_equals_one_shot_count_at_every_chunk_size(data, config):
    expected = _one_shot(data, config)
    for chunk_size in range(1, len(data) + 2):
        assert count_stream([io.BytesIO(data)], config, chunk_size).counts == expected


@given(st.lists(_stream_bytes, min_size=1, max_size=4), _configs)
def test_count_stream_pools_files_like_their_newline_joined_concatenation(parts, config):
    # files are separate texts: no word or byte sequence runs from one into
    # the next, which is what joining them with a newline gives
    expected = _one_shot(b"\n".join(parts), config)
    for chunk_size in range(1, max(map(len, parts)) + 2):
        files = [io.BytesIO(p) for p in parts]
        assert count_stream(files, config, chunk_size).counts == expected


def test_count_stream_hand_count_across_chunk_edges():
    data = "Stra\u00dfe STRASSE caf\u00e9\u0301 x".encode("utf-8")
    table = count_stream([io.BytesIO(data)], TokenizerConfig(), chunk_size=3)
    assert table.counts == {"strasse": 2, "café": 1, "x": 1}
    assert count_stream([], TokenizerConfig()).is_empty()
