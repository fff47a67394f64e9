"""Tokenizer and frequency-table behavior."""

import bz2
import contextlib
import gzip
import io
import lzma
import os
import multiprocessing
import pickle
import random
import re
import sys
import tempfile
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipfent import corpus
from zipfent.corpus import (
    TOKEN_RULES,
    FrequencyTable,
    TokenizerConfig,
    count_frequencies,
    count_stream,
    merge,
    tokenize,
)
from zipfent.spectrum import freq_of_freq


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
# separators and whitespace (including non-ASCII whitespace), ASCII and
# non-ASCII punctuation, non-ASCII digits and numbers, astral letters and
# symbols, combining marks, letters whose case fold changes their length,
# characters whose case fold changes which characters are word characters
# (U+0130, U+0345, U+0390, U+1FB7), the fold of U+0130 ("i" and the
# combining U+0307), letters that fold onto an ASCII letter (U+212A to "k",
# U+017F to "s"), and invalid or truncated UTF-8 sequences.
_FRAGMENTS = [
    s.encode("utf-8")
    for s in ["a", "Zq", "_", "7", " ", "\n", "\t", ".", "-", ",", "'", "(", "\u2014", "\u00ab",
              "\u00b2", "\u00bd", "A_b", "\u00a0", "\u3000", "\x1c", "\r", "\x0b", "\x0c", "\x1d",
              "\x1f", "\x85", "\u2028",
              "\U0001d518", "\U00010400", "\U0001f600", "\u00e9", "\u0301", "\u0332",
              "\u00df", "\u0130", "i\u0307", "\u0345", "\u0390", "\u1fb7", "\ufb01", "\u00c9", "\u5317",
              "K", "\u212a", "s", "\u017f"]
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


@pytest.mark.parametrize("text", [
    # a folded chunk's last word goes on into a chunk that is counted unfolded
    "Ab Cd\u0130e Fg",
    # and a word from an unfolded chunk goes on into a folded one
    "\u0130b Cd Ef GH",
    "X\u0345Y Z\u0390W A_B, \u2014\u1fb7Q \u00abR\u00bb",
    # the fold of a word from an unfolded chunk is a token of a folded
    # chunk that splits in two ("i" and the combining U+0307)
    "\u0130x a a a a a i\u0307x q",
])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_count_stream_folds_words_that_cross_into_or_out_of_an_unfolded_chunk(text, token_rule):
    data = text.encode("utf-8")
    config = TokenizerConfig(token_rule=token_rule)
    expected = _one_shot(data, config)
    assert len(expected) > 1
    for chunk_size in range(1, len(data) + 2):
        assert count_stream([io.BytesIO(data)], config, chunk_size).counts == expected


@pytest.mark.parametrize(
    "data", [b"x" * (1 << 21), "\u5317".encode("utf-8") * 700_000], ids=["ascii", "three_byte"]
)
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_count_stream_counts_a_long_token_in_linear_time(data, token_rule):
    # one token of 2 MiB read in 64-byte chunks, which cut the three-byte
    # sequences of U+5317; re-joining and re-folding the token with every
    # chunk would take seconds
    config = TokenizerConfig(token_rule=token_rule)
    start = time.perf_counter()
    table = count_stream([io.BytesIO(data)], config, 64)
    assert time.perf_counter() - start < 2
    assert table.counts == _one_shot(data, config)


def test_fold_splits_holds_every_character_whose_case_fold_changes_its_word_runs():
    # chunks are case-folded whole and then split; that counts the words a
    # fold of each word would give only where folding keeps every
    # character's word-ness and whitespace-ness; a fold is its own fold, so
    # a folded token that is not one word can be folded again when it is
    # converted with the byte tokens; byte tokens are folded joined by
    # spaces, which needs that no character folds to a space; and under
    # whitespace a str.isprintable token is taken as one word, which needs
    # that every whitespace character but the space is unprintable
    def is_word(c):
        return c.isalnum() or c == "_"

    chars = list(map(chr, range(sys.maxunicode + 1)))
    changed = [(c, c.casefold()) for c in chars if c.casefold() != c]
    splits = {c for c, f in changed if not f or any(is_word(x) != is_word(c) for x in f)}
    assert "\u0130" in splits and "\u0345" in splits
    assert all(re.fullmatch(corpus._FOLD_SPLITS, c) for c in splits)
    assert all(x.isspace() == c.isspace() for c, f in changed for x in f)
    assert all(f.casefold() == f for _, f in changed)
    assert not any(" " in f for _, f in changed)
    assert not any(is_word(c) for c in chars if c.isspace())
    assert [c for c in chars if c.isspace() and c.isprintable()] == [" "]


@given(
    st.dictionaries(st.sampled_from("abcdefgh"), st.integers(min_value=1, max_value=2**70), max_size=4),
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers(min_value=1, max_value=2**70)), max_size=30),
)
def test_add_equals_a_per_key_loop_where_keys_repeat(start, pairs):
    # _words_of_tokens adds the words of a batch with one _add, and two
    # tokens of a batch can fold to one word
    expected = dict(start)
    for key, n in pairs:
        expected[key] = expected.get(key, 0) + n
    counts = Counter(start)
    corpus._add(counts, [key for key, _ in pairs], (n for _, n in pairs))
    assert counts == expected


# the fragments above with many space and newline bytes, where ranges are cut
_cuttable_bytes = st.lists(
    st.one_of(_stream_bytes, st.sampled_from([b" ", b"\n"])), max_size=8
).map(b"".join)


@given(
    st.binary(max_size=4),
    _cuttable_bytes,
    _configs,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_byte_ranges_count_to_the_count_of_the_whole_file(prefix, data, config, parts, chunk_size):
    # the ranges start at the file's current position, here after a prefix
    start, end = len(prefix), len(prefix) + len(data)
    with tempfile.TemporaryFile() as f:
        f.write(prefix + data)
        f.flush()
        fd = f.fileno()
        ranges = corpus._byte_ranges(fd, start, end, parts)
        total: Counter[str] = Counter()
        for lo, hi in ranges:
            # a forked child pickles the table as batches of words joined by spaces
            for words, ns in pickle.loads(pickle.dumps(corpus._count_range((fd, lo, hi, config, chunk_size)))):
                total.update(dict(zip(words.split(" "), ns, strict=True)))
    assert 1 <= len(ranges) <= parts
    assert ranges[0][0] == start and ranges[-1][1] == end
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo and data[lo - start] in b" \n"
    n = config.min_token_length
    whole = count_stream([io.BytesIO(data)], config).counts
    assert {w: c for w, c in total.items() if len(w) >= n} == whole == _one_shot(data, config)


@pytest.mark.parametrize("token_rule", TOKEN_RULES)
@pytest.mark.parametrize("lowercase, expected", [
    (True, {"k": 3, "s": 3}),
    (False, {"k": 1, "K": 1, "\u212a": 1, "s": 1, "S": 1, "\u017f": 1}),
])
def test_count_range_adds_a_token_that_folds_onto_an_ascii_word_to_its_count(token_rule, lowercase, expected):
    # U+212A (KELVIN SIGN) folds to "k" and U+017F (LONG S) to "s"; their
    # counts add to those of the ASCII tokens, and never replace them
    data = "k K \u212a s S \u017f".encode("utf-8")
    config = TokenizerConfig(lowercase=lowercase, token_rule=token_rule)
    with tempfile.TemporaryFile() as f:
        f.write(data)
        f.flush()
        table = corpus._count_range((f.fileno(), 0, len(data), config, corpus.CHUNK_SIZE))
    assert table.counts == expected


def test_byte_ranges_of_a_file_without_a_space_or_newline_is_one_range(tmp_path, monkeypatch):
    # tabs and other whitespace end words too, but are not cut at
    data = "w\u00f6rd\tn\u00e4chstes\u00a0Wort\r".encode("utf-8") * 4000
    path = tmp_path / "no_cut.txt"
    path.write_bytes(data)
    with open(path, "rb") as f:
        assert corpus._byte_ranges(f.fileno(), 0, len(data), 4) == [(0, len(data))]
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 4)
    with open(path, "rb") as f:
        assert corpus._parallel_ranges(f) == [(0, len(data))]
        assert count_stream([f]).counts == {"wörd": 4000, "nächstes": 4000, "wort": 4000}


@pytest.mark.parametrize("offset, cut", [(0, True), (corpus._CUT_SEARCH_BYTES - 1, True),
                                         (corpus._CUT_SEARCH_BYTES, False)])
def test_a_cut_is_dropped_without_a_space_or_newline_in_the_search_window(tmp_path, offset, cut):
    size = 4 * corpus._CUT_SEARCH_BYTES
    data = bytearray(b"x" * size)
    data[size // 2 + offset] = ord("\n")
    path = tmp_path / "long_word.txt"
    path.write_bytes(data)
    with open(path, "rb") as f:
        ranges = corpus._byte_ranges(f.fileno(), 0, size, 2)
    if cut:
        assert ranges == [(0, size // 2 + offset), (size // 2 + offset, size)]
    else:
        assert ranges == [(0, size)]


def _random_text(seed: int, words: int) -> bytes:
    rng = random.Random(seed)
    vocab = ["café", "Straße", "naïve", "\U0001d518x", "to", "a", "x_1", "«b»", "c—d"]
    return " ".join(rng.choice(vocab) + rng.choice(["", "\n"]) for _ in range(words)).encode("utf-8")


def _split_in_three(monkeypatch):
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)


def test_count_stream_in_workers_counts_from_the_position_and_leaves_f_at_its_end(tmp_path, monkeypatch):
    data = _random_text(1, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    with open(path, "rb") as f:
        f.read(7)
        assert len(corpus._parallel_ranges(f)) == 3
        table = count_stream([f])
        assert f.tell() == len(data)
    assert table.counts == count_stream([io.BytesIO(data[7:])]).counts


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_pooled_ranges_and_stream_pieces_count_to_the_tokens_of_their_join(tmp_path, monkeypatch, cpus,
                                                                          lowercase, token_rule):
    # the words of a file's byte ranges, the string path's words and the
    # byte tokens of its fold-split pieces and non-word tokens meet in one
    # table; 64-byte chunks make some pieces hold İ and others only twins
    big = _random_text(6, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(big)
    plain = "Istanbul K k a b x 1 a—b x_1 \u212a\n" * 4
    stream = (plain + "\u0130stanbul \u212a a—b x_1\n").encode("utf-8") * 20
    config = TokenizerConfig(lowercase=lowercase, token_rule=token_rule)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    with open(path, "rb") as f:
        assert len(corpus._parallel_ranges(f)) == cpus
        table = count_stream([f, io.BytesIO(stream)], config, 64)
    assert table.counts == _one_shot(big + b"\n" + stream, config)


@pytest.mark.parametrize("min_token_length", [1, 3])
@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_a_childs_table_crosses_the_pipe_in_batches(tmp_path, monkeypatch, lowercase, token_rule, min_token_length):
    # batches of 3 words; the middle range holds only punctuation and
    # spaces, so under unicode_words its child sends an empty table.  A
    # range's table drops its short words before a child pickles it
    rng = random.Random(7)
    marks = " ".join(rng.choice([".", ",", "--", "!?", "\u00ab\u00bb", "\u2014", "(", ")"]) for _ in range(600))
    data = _random_text(8, 150) + b"\n" + marks.encode("utf-8") + b"\n" + _random_text(9, 150)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    monkeypatch.setattr(corpus, "_CONVERT_BATCH", 3)
    config = TokenizerConfig(lowercase=lowercase, min_token_length=min_token_length, token_rule=token_rule)
    with open(path, "rb") as f:
        ranges = corpus._parallel_ranges(f)
        (_, lo), (_, hi), (_, end) = ranges
        assert not re.search(r"\w", data[lo:hi].decode("utf-8"))
        batches = pickle.loads(pickle.dumps(corpus._count_range((f.fileno(), hi, end, config, 64))))
        assert len(batches) > 1
        assert min(len(word) for words, _ in batches for word in words.split(" ")) >= min_token_length
        table = count_stream([f], config, 64)
    assert table.counts == _one_shot(data, config)


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_ranges_of_two_large_files_pool_into_a_counter_that_pickles_as_itself(tmp_path, monkeypatch, cpus):
    # the first file's own range is kept as the table, and the second's is
    # added to it; no packing of a child's table leaks into the result
    texts = [_random_text(11, 3000), _random_text(12, 3000)]
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    with open(paths[0], "rb") as f, open(paths[1], "rb") as g:
        assert len(corpus._parallel_ranges(f)) == len(corpus._parallel_ranges(g)) == cpus
        table = count_stream([f, g])
    assert table.counts == _one_shot(b"\n".join(texts), TokenizerConfig())
    assert type(table.counts) is Counter
    copy = pickle.loads(pickle.dumps(table))
    assert type(copy.counts) is Counter and copy == table


# words that fold onto one another, a fold-split one and short ones, so that
# one converted batch repeats a word and the length filter drops some
_SPECTRUM_VOCAB = ["caf\u00e9", "Caf\u00e9", "CAF\u00c9", "Stra\u00dfe", "STRASSE", "K", "k", "\u212a", "to", "a",
                   "x_1", "\u00abb\u00bb", "c\u2014d", "\u0130stanbul", "\U0001d518x", "na\u00efve"]


def _spectrum_text(rng: random.Random, words: int) -> bytes:
    suffixes = ["", "\n", ","]
    return " ".join(rng.choice(_SPECTRUM_VOCAB) + rng.choice(suffixes) + rng.choice(["", str(rng.randrange(300))])
                    for _ in range(words)).encode("utf-8")


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    cpus=st.integers(min_value=1, max_value=4),
    config=st.builds(TokenizerConfig, lowercase=st.booleans(), min_token_length=st.sampled_from([1, 3]),
                     token_rule=st.sampled_from(TOKEN_RULES)),
    separators=st.booleans(),
)
def test_count_spectrum_is_the_spectrum_of_count_stream(tmp_path_factory, seed, cpus, config, separators):
    # two large files cut into up to 4 byte ranges each and a small file in
    # one pooled group: with 3 or more ranges a file's last child takes up
    # the batches held from the child before it.  With separators and 3 or
    # more ranges a range of the first file holds no word under unicode_words
    rng = random.Random(seed)
    marks = " ".join(rng.choice([".", ",", "--", "!?", "\u00ab\u00bb", "\u2014"]) for _ in range(2000)).encode("utf-8")
    first = _spectrum_text(rng, 300) + (b"\n" + marks + b"\n" if separators else b" ") + _spectrum_text(rng, 300)
    texts = [first, _spectrum_text(rng, 600), _spectrum_text(rng, 20)]
    paths = [tmp_path_factory.mktemp("spectrum") / name for name in ("a.txt", "b.txt", "c.txt")]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    with mock.patch.object(corpus, "PARALLEL_MIN_BYTES", 1 << 10), \
            mock.patch.object(corpus, "_cpu_count", lambda: cpus):
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "rb")) for path in paths]
            ranges = [corpus._parallel_ranges(f) for f in files]
            assert list(map(len, ranges)) == [cpus, cpus, 0]
            if separators and cpus >= 3:
                assert any(not re.search(r"\w", first[lo:hi].decode("utf-8")) for lo, hi in ranges[0])
            spec = corpus._count_spectrum(files, config)
        with contextlib.ExitStack() as stack:
            table = count_stream([stack.enter_context(open(path, "rb")) for path in paths], config)
    assert spec == freq_of_freq(table)
    assert table.counts == _one_shot(b"\n".join(texts), config)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_count_spectrum_of_words_all_shorter_than_the_minimum_is_none(tmp_path, monkeypatch, cpus, token_rule):
    path = tmp_path / "short.txt"
    path.write_bytes(b"a bb c. d\n" * 500)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    config = TokenizerConfig(min_token_length=3, token_rule=token_rule)
    with open(path, "rb") as f:
        assert len(corpus._parallel_ranges(f)) == cpus
        assert corpus._count_spectrum([f], config) is None


def test_a_large_file_is_one_range_counted_in_process_where_no_fork_may_start(tmp_path, monkeypatch):
    data = _random_text(4, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    expected = count_stream([io.BytesIO(data[7:])]).counts
    _split_in_three(monkeypatch)
    monkeypatch.setattr(corpus, "_can_fork", lambda: False)

    def refuse(*args):
        raise AssertionError("not the byte range path")

    monkeypatch.setattr(corpus, "_count_into", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    with open(path, "rb") as f:
        f.read(7)
        assert corpus._parallel_ranges(f) == [(7, len(data))]
        assert count_stream([f]).counts == expected
        assert f.tell() == len(data)


def test_a_large_file_counted_in_a_fork_map_share_starts_no_fork_map(tmp_path, monkeypatch):
    path = tmp_path / "big.txt"
    path.write_bytes(_random_text(5, 4000))
    _split_in_three(monkeypatch)

    def share(_):
        for _ in range(2):
            with open(path, "rb") as f:
                assert len(corpus._parallel_ranges(f)) == 1
                count_stream([f])
        return corpus._can_fork()

    assert list(corpus._fork_map(share, range(2), 2)) == [False, False]


@pytest.mark.parametrize("codec", [gzip, bz2, lzma])
def test_a_compressed_file_is_counted_in_process(tmp_path, monkeypatch, codec):
    # its fileno() and tell() work, but the file's bytes are not the ones it reads
    data = _random_text(2, 20000)
    path = tmp_path / "big.txt.z"
    with codec.open(path, "wb") as f:
        f.write(data)
    _split_in_three(monkeypatch)
    assert path.stat().st_size >= 2 * corpus.PARALLEL_MIN_BYTES
    with codec.open(path, "rb") as f:
        assert corpus._parallel_ranges(f) == []
        assert count_stream([f]).counts == count_stream([io.BytesIO(data)]).counts


def _count_file(path: str) -> dict[str, int]:
    with open(path, "rb") as f:
        return count_stream([f]).counts


def test_count_stream_runs_in_a_pool_worker(tmp_path, monkeypatch):
    # a pool's workers are daemonic and may not start processes of their own
    data = _random_text(3, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        (counts,) = pool.map(_count_file, [str(path)])
    assert counts == count_stream([io.BytesIO(data)]).counts


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_fork_map_yields_in_job_order_with_the_parent_taking_share_zero(workers):
    parent = os.getpid()
    results = list(corpus._fork_map(lambda j: (j * j, os.getpid() == parent), range(11), workers))
    assert [r for r, _ in results] == [j * j for j in range(11)]
    # the parent computes jobs 0, workers, 2 * workers, ...
    assert [in_parent for _, in_parent in results] == [j % workers == 0 for j in range(11)]
    _assert_no_child_left()


def test_fork_map_forbids_a_fork_map_inside_one():
    assert corpus._can_fork()
    assert list(corpus._fork_map(lambda j: corpus._can_fork(), range(6), 3)) == [False] * 6
    assert corpus._can_fork()
    _assert_no_child_left()


def _fail_at(bad: int, exc: Exception):
    def fn(j):
        if j == bad:
            raise exc
        return j

    return fn


@pytest.mark.parametrize("bad", [0, 4, 7])  # in the parent's share, then two children's
def test_fork_map_raises_the_first_failure_and_reaps_every_child(bad):
    fn = _fail_at(bad, FileNotFoundError(2, "No such file or directory", f"doc{bad}.txt"))
    seen = []
    with pytest.raises(FileNotFoundError) as exc:
        for r in corpus._fork_map(fn, range(12), 3):
            seen.append(r)
    assert seen == list(range(bad))
    assert str(exc.value) == f"[Errno 2] No such file or directory: 'doc{bad}.txt'"
    _assert_no_child_left()


def test_fork_map_child_without_a_result_is_an_os_error():
    def fn(j):
        if j == 1:
            os._exit(0)  # in a child: it leaves without writing
        return j

    with pytest.raises(ChildProcessError, match="ended without a result"):
        list(corpus._fork_map(fn, range(4), 2))
    _assert_no_child_left()


def test_fork_map_closed_early_stops_and_reaps_its_children():
    results = corpus._fork_map(lambda j: j, range(100), 3)
    assert next(results) == 0 and next(results) == 1
    # suspended between two results, the map still forbids another
    assert not corpus._can_fork()
    results.close()
    assert corpus._can_fork()
    _assert_no_child_left()
