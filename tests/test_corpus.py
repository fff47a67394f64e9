"""Tokenizer and frequency-table behavior."""

import bz2
import gzip
import io
import lzma
import os
import multiprocessing
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given
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
            total.update(corpus._count_range((fd, lo, hi, config, chunk_size)))
    assert 1 <= len(ranges) <= parts
    assert ranges[0][0] == start and ranges[-1][1] == end
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo and data[lo - start] in b" \n"
    n = config.min_token_length
    whole = count_stream([io.BytesIO(data)], config).counts
    assert {w: c for w, c in total.items() if len(w) >= n} == whole == _one_shot(data, config)


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


def test_fork_map_forbids_a_fork_map_inside_one(monkeypatch):
    monkeypatch.setattr(corpus, "_cpu_count", lambda: 3)
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
    results.close()
    _assert_no_child_left()
