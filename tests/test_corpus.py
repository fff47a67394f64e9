"""Tokenizer and counting behavior."""

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
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_table
from zipfent import corpus
from zipfent.corpus import TOKEN_RULES, TokenizerConfig, count_spectrum, tokenize
from zipfent.errors import EmptyCorpusError
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


def _one_shot(data: bytes, config: TokenizerConfig) -> Counter[str]:
    return Counter(tokenize(data.decode("utf-8", "replace"), config))


@given(_stream_bytes, _configs)
def test_counting_equals_one_shot_count_at_every_chunk_size(data, config):
    expected = _one_shot(data, config)
    for chunk_size in range(1, len(data) + 2):
        with mock.patch.object(corpus, "CHUNK_SIZE", chunk_size):
            assert count_table([io.BytesIO(data)], config) == expected


@given(st.lists(_stream_bytes, min_size=1, max_size=4), _configs)
def test_counting_pools_files_like_their_newline_joined_concatenation(parts, config):
    # files are separate texts: no word or byte sequence runs from one into
    # the next, which is what joining them with a newline gives
    expected = _one_shot(b"\n".join(parts), config)
    for chunk_size in range(1, max(map(len, parts)) + 2):
        files = [io.BytesIO(p) for p in parts]
        with mock.patch.object(corpus, "CHUNK_SIZE", chunk_size):
            assert count_table(files, config) == expected


def test_counting_hand_count_across_chunk_edges(monkeypatch):
    data = "Stra\u00dfe STRASSE caf\u00e9\u0301 x".encode("utf-8")
    monkeypatch.setattr(corpus, "CHUNK_SIZE", 3)
    table = count_table([io.BytesIO(data)], TokenizerConfig())
    assert table == {"strasse": 2, "café": 1, "x": 1}
    assert count_spectrum([io.BytesIO(data)]) == freq_of_freq(table)
    assert count_table([]) == {}
    with pytest.raises(EmptyCorpusError):
        count_spectrum([])


@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_count_spectrum_hand_count(token_rule):
    # the: 3, and: 2, cat, dog, end: 1
    spec = count_spectrum([io.BytesIO(b"The cat and the dog and THE end")], TokenizerConfig(token_rule=token_rule))
    assert spec.points == {1: 3, 2: 1, 3: 1}
    assert (spec.total_tokens, spec.max_k) == (8, 3)


def test_count_spectrum_single_word():
    spec = count_spectrum([io.BytesIO(b"a " * 7)])
    assert (spec.points, spec.total_tokens, spec.max_k) == ({7: 1}, 7, 7)


@pytest.mark.parametrize("min_token_length, expected", [
    (1, {1: 1, 2: 1, 3: 1}), (2, {2: 1, 3: 1}), (3, {3: 1}), (4, None),
])
def test_count_spectrum_drops_words_shorter_than_the_minimum(min_token_length, expected):
    data = io.BytesIO(b"a bb ccc bb ccc ccc")
    config = TokenizerConfig(min_token_length=min_token_length)
    if expected is None:
        with pytest.raises(EmptyCorpusError):
            count_spectrum([data], config)
    else:
        assert count_spectrum([data], config).points == expected


@pytest.mark.parametrize("parts", [[], [b""], [b" \n\t "], [b"", b"-- ... !?"]])
def test_count_spectrum_of_files_with_no_word_raises_empty_corpus_error(parts):
    with pytest.raises(EmptyCorpusError):
        count_spectrum([io.BytesIO(p) for p in parts])


@given(st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=1, max_size=200))
def test_count_spectrum_conserves_tokens(tokens):
    spec = count_spectrum([io.BytesIO(" ".join(tokens).encode())])
    assert spec.total_tokens == len(tokens)
    assert sum(spec.points.values()) == len(set(tokens))
    assert spec.max_k == max(Counter(tokens).values())


@given(
    st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=1, max_size=40),
    st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=40),
)
def test_count_spectrum_of_two_files_commutes(first, second):
    a, b = (" ".join(tokens).encode() for tokens in (first, second))
    assert count_spectrum([io.BytesIO(a), io.BytesIO(b)]) == count_spectrum([io.BytesIO(b), io.BytesIO(a)])


def test_count_spectrum_with_an_empty_file_added_is_unchanged():
    expected = count_spectrum([io.BytesIO(b"x y x")])
    assert expected.points == {1: 1, 2: 1}
    assert count_spectrum([io.BytesIO(b"x y x"), io.BytesIO(b"")]) == expected
    assert count_spectrum([io.BytesIO(b""), io.BytesIO(b"x y x")]) == expected


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
def test_counting_folds_words_that_cross_into_or_out_of_an_unfolded_chunk(monkeypatch, text, token_rule):
    data = text.encode("utf-8")
    config = TokenizerConfig(token_rule=token_rule)
    expected = _one_shot(data, config)
    assert len(expected) > 1
    for chunk_size in range(1, len(data) + 2):
        monkeypatch.setattr(corpus, "CHUNK_SIZE", chunk_size)
        assert count_table([io.BytesIO(data)], config) == expected


@pytest.mark.parametrize(
    "data", [b"x" * (1 << 21), "\u5317".encode("utf-8") * 700_000], ids=["ascii", "three_byte"]
)
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_counting_counts_a_long_token_in_linear_time(monkeypatch, data, token_rule):
    # one token of 2 MiB read in 64-byte chunks, which cut the three-byte
    # sequences of U+5317; re-joining and re-folding the token with every
    # chunk would take seconds
    config = TokenizerConfig(token_rule=token_rule)
    monkeypatch.setattr(corpus, "CHUNK_SIZE", 64)
    start = time.perf_counter()
    table = count_table([io.BytesIO(data)], config)
    assert time.perf_counter() - start < 2
    assert table == _one_shot(data, config)


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
    # so _count_into searches for one only in a piece whose fold is longer,
    # or that holds U+0345: no character folds to none, and every one of
    # them but U+0345 folds to more than one
    assert all(f for _, f in changed)
    assert [c for c in splits if len(c.casefold()) == 1] == ["\u0345"]
    assert all(x.isspace() == c.isspace() for c, f in changed for x in f)
    assert all(f.casefold() == f for _, f in changed)
    assert not any(" " in f for _, f in changed)
    assert not any(is_word(c) for c in chars if c.isspace())
    assert [c for c in chars if c.isspace() and c.isprintable()] == [" "]


# Characters whose fold is longer: U+00DF ("ss"), which is not fold-split,
# so a piece searched for one may hold none, and U+0130 and U+1FB6, which
# are.  U+0345 is fold-split but folds to one character.  Unicode whitespace,
# a non-word character and invalid bytes, which decode to U+FFFD, check that
# the fallback's split at whitespace and its UTF-8 give the byte tokens' words.
_FOLD_MIX = [s.encode("utf-8") for s in ["\u00df", "\u0345", "\u0130", "\u1fb6", "\u2014", "a", "Q", "7", " ", "\n",
                                         "\u00a0", "\u2028", "\x85", "\ufffd"]] + [b"\xff", b"\xc3", b"\xe2\x82"]


@given(st.lists(st.sampled_from(_FOLD_MIX), max_size=40).map(b"".join), st.integers(min_value=1, max_value=16),
       _configs)
@example("Q\u0345a \u00df\u2014\u00df".encode("utf-8"), 16, TokenizerConfig())
@example("\u00df\u0130a \u1fb6\xff\u00df".encode("utf-8"), 3, TokenizerConfig())
def test_counting_a_mix_of_fold_split_and_longer_folding_characters_equals_tokenize(data, chunk_size, config):
    expected = _one_shot(data, config)
    with mock.patch.object(corpus, "CHUNK_SIZE", chunk_size):
        assert count_table([io.BytesIO(data)], config) == expected
        if expected:
            assert count_spectrum([io.BytesIO(data)], config) == freq_of_freq(expected)
        else:
            with pytest.raises(EmptyCorpusError):
                count_spectrum([io.BytesIO(data)], config)


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


# The 10 ASCII whitespace bytes, where ranges are cut
_ASCII_WHITESPACE = bytes(b for b in range(0x80) if chr(b).isspace())

# the fragments above with many ASCII whitespace bytes
_cuttable_bytes = st.lists(
    st.one_of(_stream_bytes, st.sampled_from([bytes([b]) for b in _ASCII_WHITESPACE])), max_size=8
).map(b"".join)


@given(
    st.binary(max_size=4),
    _cuttable_bytes,
    _configs,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_byte_ranges_count_to_the_count_of_the_whole_file(prefix, data, config, parts, chunk_size):
    # the ranges start at the file's current position, here after a prefix;
    # a file of 2 bytes or more is cut into one range per byte and CPU
    start, end = len(prefix), len(prefix) + len(data)
    with tempfile.TemporaryFile() as f:
        f.write(prefix + data)
        f.seek(start)
        with mock.patch.object(corpus, "PARALLEL_MIN_BYTES", 2), mock.patch.object(corpus, "_cpu_count", lambda: parts):
            shares = corpus._plan([[f]])
        # a cut is searched for CHUNK_SIZE bytes at a time, wherever it is
        with mock.patch.object(corpus, "CHUNK_SIZE", chunk_size):
            ranges = _ranges(shares, f)
            total: Counter[str] = Counter()
            for w, share in enumerate(shares):
                # each share keeps the words it owns and sends the others to
                # their owners, pickled, as batches of words joined by spaces
                table, sent = corpus._count_part(share, config, w, len(shares))
                assert all(hash(word) % len(shares) == w for word in table)
                total.update(table)
                for owner, batches in enumerate(sent):
                    for words, ns in pickle.loads(pickle.dumps(batches)):
                        assert owner != w and all(hash(word) % len(shares) == owner for word in words.split(" "))
                        corpus._add(total, words.split(" "), ns)
    assert len(shares) == (min(parts, len(data)) if len(data) >= 2 else 1)
    assert len(ranges) == len(shares)
    assert ranges[0][0] == start and ranges[-1][1] == end
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo and (lo == end or data[lo - start] in _ASCII_WHITESPACE)
    assert total == count_table([io.BytesIO(data)], config) == _one_shot(data, config)


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
        # a file of at least PARALLEL_MIN_BYTES is read as a byte range
        with mock.patch.object(corpus, "PARALLEL_MIN_BYTES", 1):
            table, sent = corpus._count_part([(0, f, (0, 0, len(data), len(data)))], config)
    assert table == expected and sent == [[]]


def _ranges(shares, f) -> list[tuple[int, int]]:
    """The byte ranges of the open file f in the shares of a plan, each cut inside it moved as its share moves it."""
    ranges = []
    for share in shares:
        for _, source, span in share:
            if source is f and span:
                start, lo, hi, end = span
                ranges.append(tuple(corpus._cut(f.fileno(), at, end) if start < at < end else at for at in (lo, hi)))
    return ranges


def test_byte_ranges_of_a_file_without_ascii_whitespace_is_one_range(tmp_path, monkeypatch):
    # ASCII punctuation and non-ASCII whitespace end words too, but are not
    # cut at: every cut moves to the file's end, and the shares after the
    # first count nothing
    data = "w\u00f6rd,n\u00e4chstes\u00a0Wort\u3000".encode("utf-8") * 4000
    path = tmp_path / "no_cut.txt"
    path.write_bytes(data)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 4)
    with open(path, "rb") as f:
        shares = corpus._plan([[f]])
        assert len(shares) == 4
        assert _ranges(shares, f) == [(0, len(data))] + [(len(data), len(data))] * 3
        assert count_table([f]) == {"wörd": 4000, "nächstes": 4000, "wort": 4000}


@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_a_file_separated_only_by_tabs_and_crs_is_cut_into_ranges(tmp_path, monkeypatch, token_rule, lowercase):
    rng = random.Random(5)
    vocab = ["caf\u00e9", "Stra\u00dfe", "na\u00efve", "\U0001d518x", "to", "a", "x_1", "\u00abb\u00bb", "c\u2014d"]
    data = "".join(rng.choice(vocab) + rng.choice(["\t", "\r"]) for _ in range(4000)).encode("utf-8")
    assert b" " not in data and b"\n" not in data
    path = tmp_path / "tabs.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    config = TokenizerConfig(lowercase=lowercase, token_rule=token_rule)
    with open(path, "rb") as f:
        ranges = _ranges(corpus._plan([[f]]), f)
        table = count_table([f], config)
    assert len(ranges) == 3
    assert all(data[lo] in b"\t\r" for lo, _ in ranges[1:])
    assert table == _one_shot(data, config)


@pytest.mark.parametrize("offset", [0, corpus.CHUNK_SIZE - 1, corpus.CHUNK_SIZE, None])
def test_a_cut_moves_to_the_next_ascii_whitespace_byte_or_the_files_end(tmp_path, offset):
    # the search goes on past its first CHUNK_SIZE bytes, so that the share
    # ending at a cut and the one starting there move it to the same byte
    size = 4 * corpus.CHUNK_SIZE
    data = bytearray(b"x" * size)
    if offset is not None:
        data[size // 2 + offset] = ord("\t")
    path = tmp_path / "long_word.txt"
    path.write_bytes(data)
    with open(path, "rb") as f:
        at = corpus._cut(f.fileno(), size // 2, size)
    assert at == (size if offset is None else size // 2 + offset)


def _random_text(seed: int, words: int) -> bytes:
    rng = random.Random(seed)
    vocab = ["café", "Straße", "naïve", "\U0001d518x", "to", "a", "x_1", "«b»", "c—d"]
    return " ".join(rng.choice(vocab) + rng.choice(["", "\n"]) for _ in range(words)).encode("utf-8")


def _split_in_three(monkeypatch):
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)


def test_counting_in_workers_counts_from_the_position_and_leaves_f_at_its_end(tmp_path, monkeypatch):
    data = _random_text(1, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    with open(path, "rb") as f:
        f.read(7)
        assert [[span[:2] for _, _, span in share] for share in corpus._plan([[f]])][0] == [(7, 7)]
        assert len(_ranges(corpus._plan([[f]]), f)) == 3
        table = count_table([f])
        assert f.tell() == len(data)
        f.seek(7)
        assert count_spectrum([f]) == freq_of_freq(table)
        assert f.tell() == len(data)
    assert table == count_table([io.BytesIO(data[7:])])


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
        buffer = io.BytesIO(stream)
        shares = corpus._plan([[f, buffer]])
        # an in-memory buffer is read whole in this process
        assert len(_ranges(shares, f)) == len(shares) == cpus
        assert (0, buffer, None) in shares[0]
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 64)
        table = count_table([f, buffer], config)
        assert buffer.read() == b""
    assert table == _one_shot(big + b"\n" + stream, config)


@pytest.mark.parametrize("min_token_length", [1, 3])
@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_a_shares_words_go_to_their_owners_in_batches(tmp_path, monkeypatch, lowercase, token_rule, min_token_length):
    # batches of 3 tokens, of hundreds of distinct words, so that every
    # owner is sent several whatever the hash seed; the middle range holds
    # only punctuation and spaces, so under unicode_words its share sends
    # nothing.  A share drops the short words before it routes them, so
    # none is sent
    rng = random.Random(7)
    marks = " ".join(rng.choice([".", ",", "--", "!?", "\u00ab\u00bb", "\u2014", "(", ")"]) for _ in range(1200))
    data = _spectrum_text(rng, 150) + b"\n" + marks.encode("utf-8") + b"\n" + _spectrum_text(rng, 150)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    monkeypatch.setattr(corpus, "_CONVERT_BATCH", 3)
    config = TokenizerConfig(lowercase=lowercase, min_token_length=min_token_length, token_rule=token_rule)
    with open(path, "rb") as f:
        shares = corpus._plan([[f]])
        (_, lo), (_, hi), _ = _ranges(shares, f)
        assert not re.search(r"\w", data[lo:hi].decode("utf-8"))
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 64)
        table, sent = corpus._count_part(shares[2], config, 2, 3)
        assert sent[2] == [] and len(sent[0]) > 1 and len(sent[1]) > 1
        for owner, batches in enumerate(sent):
            for words, ns in batches:
                assert len(words.split(" ")) == len(ns)
                assert all(hash(word) % 3 == owner and len(word) >= min_token_length for word in words.split(" "))
        assert all(hash(word) % 3 == 2 and len(word) >= min_token_length for word in table)
        middle = corpus._count_part(shares[1], config, 1, 3)
        if token_rule == "unicode_words":
            assert middle == (Counter(), [[], [], []])
        table = count_table([f], config)
    assert table == _one_shot(data, config)


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
        shares = corpus._plan([[f, g]])
        assert len(shares) == cpus
        # with 3 CPUs the middle share holds a range of each
        assert len(_ranges(shares, f)) == len(_ranges(shares, g)) == (cpus + 1) // 2
        table = count_table([f, g])
    assert table == _one_shot(b"\n".join(texts), TokenizerConfig())
    assert type(table) is Counter
    copy = pickle.loads(pickle.dumps(table))
    assert type(copy) is Counter and copy == table


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
def test_count_spectrum_is_the_spectrum_of_the_word_table(tmp_path_factory, seed, cpus, config, separators):
    # two large files and a small file in one pooled group, cut into up to 4
    # shares, each the owner of some of the group's words.  With separators
    # and 3 or more shares a share of the first file holds no word under
    # unicode_words
    rng = random.Random(seed)
    marks = " ".join(rng.choice([".", ",", "--", "!?", "\u00ab\u00bb", "\u2014"]) for _ in range(12000)).encode("utf-8")
    first = _spectrum_text(rng, 300) + (b"\n" + marks + b"\n" if separators else b" ") + _spectrum_text(rng, 300)
    texts = [first, _spectrum_text(rng, 600), _spectrum_text(rng, 20)]
    paths = [tmp_path_factory.mktemp("spectrum") / name for name in ("a.txt", "b.txt", "c.txt")]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    with mock.patch.object(corpus, "PARALLEL_MIN_BYTES", 1 << 10), \
            mock.patch.object(corpus, "_cpu_count", lambda: cpus):
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "rb")) for path in paths]
            shares = corpus._plan([files])
            assert len(shares) == cpus
            if separators and cpus >= 3:
                assert any(not re.search(r"\w", first[lo:hi].decode("utf-8")) for lo, hi in _ranges(shares, files[0]))
            spec = count_spectrum(files, config)
        with contextlib.ExitStack() as stack:
            table = count_table([stack.enter_context(open(path, "rb")) for path in paths], config)
    assert spec == freq_of_freq(table)
    assert table == _one_shot(b"\n".join(texts), config)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_count_spectrum_of_words_all_shorter_than_the_minimum_is_none(tmp_path, monkeypatch, cpus, token_rule):
    path = tmp_path / "short.txt"
    path.write_bytes(b"a bb c. d\n" * 500)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    config = TokenizerConfig(min_token_length=3, token_rule=token_rule)
    with open(path, "rb") as f:
        assert len(_ranges(corpus._plan([[f]]), f)) == cpus
        assert corpus._count_groups([[f]], config, lambda g, spec: spec) == [None]
        f.seek(0)
        with pytest.raises(EmptyCorpusError):
            count_spectrum([f], config)


def _hostile_text(seed: int, tokens: int) -> bytes:
    """Tokens of one to three _FRAGMENTS, half with a number, separated by spaces.

    So fold-split characters and invalid bytes fall among some thousands of
    distinct words, enough that every owner of a cut group gets many.
    """
    rng = random.Random(seed)
    return b" ".join(b"".join(rng.choices(_FRAGMENTS, k=rng.randint(1, 3)))
                     + (str(rng.randrange(200)).encode() if rng.random() < 0.5 else b"") for _ in range(tokens))


_ALL_CONFIGS = [TokenizerConfig(lowercase=lowercase, min_token_length=n, token_rule=rule)
                for rule in TOKEN_RULES for lowercase in (True, False) for n in (1, 3)]


@pytest.mark.parametrize("cpus", range(1, 9))
def test_counting_on_1_to_8_cpus_equals_the_count_of_the_joined_text(tmp_path, monkeypatch, cpus):
    # two files that are cut and a small one between them, pooled: each
    # share owns some words of the group and sends the others to their
    # owners, from byte ranges and from a file counted piece by piece
    texts = [_hostile_text(31, 5000), _hostile_text(32, 200), _hostile_text(33, 3000)]
    paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: cpus)
    for config in _ALL_CONFIGS:
        expected = _one_shot(b"\n".join(texts), config)
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "rb")) for path in paths]
            assert len(corpus._plan([files])) == cpus
            spec = count_spectrum(files, config)
        with contextlib.ExitStack() as stack:
            table = count_table([stack.enter_context(open(path, "rb")) for path in paths], config)
        assert spec == freq_of_freq(expected), config
        assert table == expected, config


@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_no_owner_of_a_cut_group_holds_more_than_six_tenths_of_its_words(tmp_path, monkeypatch, token_rule):
    # on 2 CPUs each share holds most of the group's words, but keeps only
    # those it owns; the reduce step reports each owner's words by process
    tokens = _hostile_text(34, 3000).split(b" ")
    data = b" ".join(random.Random(35).choices(tokens, k=16000))
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    config = TokenizerConfig(token_rule=token_rule)
    vocabulary = len(_one_shot(data, config))
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 2)
    monkeypatch.setattr(corpus, "_histogram", lambda table: Counter({os.getpid(): len(table)}))
    monkeypatch.setattr(corpus, "_from_histogram", lambda sizes: sizes)
    with open(path, "rb") as f:
        ranges = _ranges(corpus._plan([[f]]), f)
        owned = corpus._count_groups([[f]], config, lambda g, sizes: sizes)[0]
    # a table of a whole share's words would break the bound; the bound is
    # 6 standard deviations above half of 900 words, whatever the hash seed
    assert vocabulary > 900
    assert len(ranges) == 2 and all(len(_one_shot(data[lo:hi], config)) > 0.6 * vocabulary for lo, hi in ranges)
    assert len(owned) == 2 and os.getpid() in owned
    assert sum(owned.values()) == vocabulary
    assert max(owned.values()) <= 0.6 * vocabulary


def test_a_large_file_is_one_range_counted_in_process_where_no_fork_may_start(tmp_path, monkeypatch):
    data = _random_text(4, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    expected = count_table([io.BytesIO(data[7:])])
    _split_in_three(monkeypatch)
    monkeypatch.setattr(corpus, "_can_fork", lambda: False)

    def refuse(*args):
        raise AssertionError("not the byte range path")

    monkeypatch.setattr(corpus, "_count_into", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    with open(path, "rb") as f:
        f.read(7)
        assert corpus._plan([[f]]) == [[(0, f, (7, 7, len(data), len(data)))]]
        assert count_table([f]) == expected
        assert f.tell() == len(data)


def test_plan_cuts_the_bytes_of_all_inputs_into_even_shares(tmp_path, monkeypatch):
    # 512-byte jobs; a path that is not a regular file is planned as the
    # mean size of the regular files, here 900 bytes
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 4)
    a, big, c, missing, folder = (str(tmp_path / name) for name in ("a", "big", "c", "missing", "folder"))
    for path, size in ((a, 600), (big, 2000), (c, 100)):
        with open(path, "wb") as f:
            f.write(b"x " * (size // 2))
    os.mkdir(folder)
    # 4,500 bytes in 4 shares: cuts at 1,125 and 2,250 fall inside the large
    # file, and the cut at 3,375 inside the missing file moves to its end
    assert corpus._plan([[a, big, c, missing, folder]]) == [
        [(0, a, (0, 0, 600, 600)), (0, big, (0, 0, 525, 2000))],
        [(0, big, (0, 525, 1650, 2000))],
        [(0, big, (0, 1650, 2000, 2000)), (0, c, (0, 0, 100, 100)), (0, missing, None)],
        [(0, folder, None)],
    ]
    # one group per input, as --per-file makes them: with no regular file
    # each is planned as one job, and a cut at a file's start puts it in
    # the next share
    assert corpus._plan([[missing], [folder]]) == [[(0, missing, None)], [(1, folder, None)]]


def test_plan_weighs_a_path_that_is_not_a_regular_file_as_the_files_beside_it(tmp_path, monkeypatch):
    # 19 documents of about 15 bytes and a missing one, one group each: the
    # missing one weighs 15 bytes, not PARALLEL_MIN_BYTES // 2, so it does
    # not take every cut
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
    paths = [str(tmp_path / f"doc{i:02d}.txt") for i in range(20)]
    for i, path in enumerate(paths[:-1]):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"a a b c{i:02d} caf\u00e9")
    shares = corpus._plan([[p] for p in paths])
    assert [[g for g, _, _ in share] for share in shares] == [list(range(7)), list(range(7, 14)), list(range(14, 20))]


@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("token_rule", TOKEN_RULES)
def test_small_files_pooled_into_a_large_table_count_byte_tokens(tmp_path, monkeypatch, token_rule, lowercase):
    # files of about 2 KB, each smaller than a file that is cut: where one
    # table is made of PARALLEL_MIN_BYTES or more of them, its tokens repeat
    # as a large file's do, and their byte tokens are counted; alone, each
    # is decoded and split piece by piece
    texts = [_random_text(20 + i, 300) for i in range(6)]
    paths = [tmp_path / f"doc{i}.txt" for i in range(6)]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    config = TokenizerConfig(lowercase=lowercase, token_rule=token_rule)
    monkeypatch.setattr(corpus, "PARALLEL_MIN_BYTES", 1 << 12)
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 1)
    pieces, real = [], corpus._count_into

    def count_into(counts, tokens, chunks, config):
        pieces.append(1)
        real(counts, tokens, chunks, config)

    monkeypatch.setattr(corpus, "_count_into", count_into)
    with contextlib.ExitStack() as stack:
        table = count_table([stack.enter_context(open(path, "rb")) for path in paths], config)
    assert pieces == []
    assert table == _one_shot(b"\n".join(texts), config)
    with open(paths[0], "rb") as f:
        assert count_table([f], config) == _one_shot(texts[0], config)
    assert pieces == [1]


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
        assert corpus._plan([[f]]) == [[(0, f, None)]]
        assert count_table([f]) == count_table([io.BytesIO(data)])


def _count_file(path: str) -> dict[str, int]:
    with open(path, "rb") as f:
        return count_table([f])


def test_counting_runs_in_a_pool_worker(tmp_path, monkeypatch):
    # a pool's workers are daemonic and may not start processes of their own
    data = _random_text(3, 4000)
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    _split_in_three(monkeypatch)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        (counts,) = pool.map(_count_file, [str(path)])
    assert counts == count_table([io.BytesIO(data)])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _mail(jobs: int):
    """count and merge for a fork map of jobs processes: each job sends every other job its own note."""
    parent = os.getpid()

    def count(w, job):
        return (job * job, os.getpid() == parent), {o: f"{w}->{o}".encode() for o in range(jobs) if o != w}, w

    def merge(kept, received):
        return kept, [data.decode() for data in received], os.getpid() == parent

    return count, merge


@pytest.mark.parametrize("jobs", [1, 2, 3, 5, corpus.MAX_WORKERS])
def test_fork_map_exchanges_in_job_order_with_the_parent_taking_job_zero(jobs):
    count, merge = _mail(jobs)
    results = corpus._fork_map(count, merge, list(range(10, 10 + jobs)))
    assert [first for (first, _), _ in results] == [j * j for j in range(10, 10 + jobs)]
    # each job runs in a process of its own, this one computing job 0, and
    # is sent the bytes of every other job, in job order
    for w, ((_, counted_here), (kept, received, merged_here)) in enumerate(results):
        assert counted_here == merged_here == (w == 0)
        assert (kept, received) == (w, [f"{o}->{w}" for o in range(jobs) if o != w])
    _assert_no_child_left()


def test_fork_map_exchanges_more_than_a_pipe_holds_among_8_processes_in_bounded_time(tmp_path):
    # every job sends every other job 256 KiB, four times what a pipe holds
    # on Linux, so every write waits for its reader; in a subprocess with a
    # timeout, so that a deadlock fails the test instead of hanging it
    script = ("import hashlib, os, sys\n"
              "from zipfent import corpus\n"
              "n = corpus.MAX_WORKERS\n"
              "def note(w, o):\n"
              "    return hashlib.sha256(b'%d->%d' % (w, o)).digest() * (1 << 13)\n"
              "def count(w, job):\n"
              "    return os.getpid(), {o: note(w, o) for o in range(n) if o != w}, w\n"
              "def merge(w, received):\n"
              "    return received == [note(o, w) for o in range(n) if o != w]\n"
              "results = corpus._fork_map(count, merge, list(range(n)))\n"
              "assert len({pid for pid, _ in results}) == n and all(ok for _, ok in results)\n"
              "try:\n"
              "    os.waitpid(-1, os.WNOHANG)\n"
              "except ChildProcessError:\n"
              "    print('exchanged')\n")
    src = os.path.dirname(os.path.dirname(corpus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "exchanged\n", "")


def _fail_at(stage: str, bad: set[int]):
    """count and merge for a fork map of 4 jobs that fail at the jobs bad in stage, each with its own error."""
    count, merge = _mail(4)

    def fail(w):
        raise FileNotFoundError(2, "No such file or directory", f"{stage}{w}.txt")

    def failing_count(w, job):
        if stage == "count" and w in bad:
            fail(w)
        return count(w, job)

    def failing_merge(kept, received):
        if stage == "merge" and kept in bad:
            fail(kept)
        return merge(kept, received)

    return failing_count, failing_merge


@pytest.mark.parametrize("stage", ["count", "merge"])
@pytest.mark.parametrize("bad", [0, 1, 2])  # the parent's job, then two children's
def test_fork_map_raises_the_first_failure_and_reaps_every_child(stage, bad):
    with pytest.raises(FileNotFoundError) as exc:
        corpus._fork_map(*_fail_at(stage, {bad, 3}), list(range(4)))
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{stage}{bad}.txt'"
    _assert_no_child_left()


@pytest.mark.parametrize("stage", ["count", "merge"])
def test_fork_map_child_without_a_result_is_an_os_error(stage):
    count, merge = _mail(3)

    def leaving_count(w, job):
        if stage == "count" and w == 1:
            os._exit(0)  # in a child: it leaves without writing
        return count(w, job)

    def leaving_merge(kept, received):
        if stage == "merge" and kept == 1:
            os._exit(0)
        return merge(kept, received)

    with pytest.raises(ChildProcessError, match="ended without a result"):
        corpus._fork_map(leaving_count, leaving_merge, list(range(3)))
    _assert_no_child_left()


class _Killer:
    """Kills the process that pickles it."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_fork_map_child_killed_while_it_writes_is_an_os_error():
    # the large first part of the result reaches the pipe before the child
    # dies, so the parent reads a result cut short
    count, merge = _mail(3)

    def killed_count(w, job):
        first, sent, kept = count(w, job)
        return ([b"x" * (1 << 20), _Killer()] if w == 2 else first), sent, kept

    with pytest.raises(ChildProcessError, match="ended without a result"):
        corpus._fork_map(killed_count, merge, list(range(3)))
    _assert_no_child_left()


def test_fork_map_child_that_dies_before_it_is_sent_its_bytes_is_an_os_error():
    # the child writes its result and dies while it waits for its bytes, so
    # the parent's write to it fails: it dies of SIGALRM 0.2 s after it starts,
    # while the parent counts its own job for 1 s
    count, merge = _mail(2)

    def slow_count(w, job):
        if w == 0:
            time.sleep(1)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
        return count(w, job)

    with pytest.raises(ChildProcessError, match="ended without a result"):
        corpus._fork_map(slow_count, merge, list(range(2)))
    _assert_no_child_left()
