"""Tokenization and word-frequency counting for text corpora.

``count_spectrum`` pools its files into one spectrum F(k); the CLI counts
one group of every input, or one group per input under ``--per-file``.
Files are read in pieces cut after ASCII separator bytes, so memory grows
with the vocabulary and the longest run without one, not with the input,
and the counts are the ones ``tokenize`` gives.

One planner spreads all inputs over the CPUs (``_plan``): the bytes of the
regular files, in input order, are cut into one contiguous share per
process, and one ``_fork_map`` counts the shares, this process the first.  A
cut moves to the next ASCII whitespace byte inside a file of at least
``PARALLEL_MIN_BYTES``, and to the end of a smaller file.  So a document set
counts on every CPU, pooled or ``--per-file``, and so does one large file.
A range of a large file, and a table made of that many bytes of smaller
files, count raw byte tokens and convert each distinct one once
(``_words_of_tokens``), which pays where few tokens are new.  Every other
input is decoded piece by piece, folded whole and split at whitespace.

A group that lies wholly in one share is finished in the process that
counted it.  The words of a group cut across shares are routed as they are
made (``_count_part``): each of its shares owns the words whose hash falls
to it, keeps the table of those and sends the others to their owners in
batches, relayed by this process (``_fork_map``).  Each owner adds the
batches it receives and reduces its table to a histogram of counts
(``_histogram``), and this process sums the group's histograms into the
spectrum F(k) (``_spectrum``).  So no process holds a cut group's whole
vocabulary, nor does this one fold the others' tables.  Words shorter
than ``min_token_length`` are routed too, and dropped only by ``_histogram``.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import stat
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress, filterfalse, groupby, repeat
from operator import add, itemgetter, mod, not_

from ._exchange import fork_map as _fork_map
from ._record import Record
from .errors import EmptyCorpusError
from .spectrum import FreqSpectrum

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import Any, BinaryIO

TOKEN_RULES = ("unicode_words", "whitespace")

# Runs of Unicode word characters (letters, digits, underscore).
_WORD_RE = re.compile(r"\w+")

# Map every ASCII byte that is not a word character, or the 10 ASCII
# whitespace bytes, to a space.  Bytes of 0x80 or more are kept, and an ASCII
# byte ends any UTF-8 sequence before it whatever its value, so a text
# decodes to the same characters, U+FFFD included, with those bytes spaces.
_ASCII_NONWORD = bytes(b if b >= 0x80 or chr(b).isalnum() or b == 0x5F else 0x20 for b in range(256))
_ASCII_WHITESPACE = bytes(0x20 if b < 0x80 and chr(b).isspace() else b for b in range(256))
# Map A-Z to a-z, which is what str.casefold does to ASCII.
_ASCII_LOWER = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", b"abcdefghijklmnopqrstuvwxyz")

# A regex class of the characters whose case fold holds a character that is
# a word character where they are not, or the other way round (U+0130 folds
# to "i" and the combining U+0307), so that folding a text changes its runs
# of word characters.  tests/test_corpus.py derives the set from the Unicode
# tables.  Left to re's cache, so that importing the CLI does not compile it.
_FOLD_SPLITS = (
    "[\u0130\u01f0\u0345\u0390\u03b0\u1e96-\u1e99\u1f50\u1f52\u1f54\u1f56\u1fb6\u1fb7"
    "\u1fc6\u1fc7\u1fd2\u1fd3\u1fd6\u1fd7\u1fe2-\u1fe4\u1fe6\u1fe7\u1ff6\u1ff7]"
)

# Bytes read per chunk, and searched at a time by _cut.
CHUNK_SIZE = 1 << 17

# _plan makes one share per group and per PARALLEL_MIN_BYTES // 2 bytes and
# CPU, at most MAX_WORKERS, which bounds the processes and tables that exist
# at once.  Only a regular file of at least PARALLEL_MIN_BYTES is cut.
PARALLEL_MIN_BYTES = 8 << 20
MAX_WORKERS = 8

# Byte tokens converted to words at a time by _words_of_tokens, each batch
# of which is routed to the words' owners as one.
_CONVERT_BATCH = 1 << 14


class TokenizerConfig(Record):
    """How raw text is split into words before counting."""

    lowercase: bool = True
    min_token_length: int = 1
    token_rule: str = "unicode_words"

    def __post_init__(self):
        if self.min_token_length < 1:
            raise ValueError(f"min_token_length must be >= 1, got {self.min_token_length}")
        if self.token_rule not in TOKEN_RULES:
            raise ValueError(f"token_rule must be one of {TOKEN_RULES}, got {self.token_rule!r}")


DEFAULT_CONFIG = TokenizerConfig()


def tokenize(text: str, config: TokenizerConfig = DEFAULT_CONFIG) -> list[str]:
    """Split text into words in document order.

    The ``unicode_words`` rule extracts maximal runs of word characters, so
    punctuation separates tokens and numbers count as words; ``whitespace``
    splits on whitespace only.  Case folding is applied before the
    minimum-length filter.  Deterministic: identical input and config always
    give identical output.
    """
    if config.token_rule == "whitespace":
        tokens = text.split()
    else:
        tokens = _WORD_RE.findall(text)
    if config.lowercase:
        tokens = [t.casefold() for t in tokens]
    if config.min_token_length > 1:
        n = config.min_token_length
        tokens = [t for t in tokens if len(t) >= n]
    return tokens


def _add(counts: dict[Any, int], keys: Iterable[Any], ns: Iterable[int]) -> None:
    """Add each of ns to the count of the key at its place in keys, which are iterated twice.

    One dict.update of (key, sum) pairs adds them without a Python loop.  A
    key may repeat: dict.update takes up the pairs one by one, and each sum
    reads its key's count when its pair is taken up, after the pairs before
    it are written.
    """
    dict.update(counts, zip(keys, map(add, map(counts.get, keys, repeat(0)), ns)))


def count_spectrum(files: Iterable[BinaryIO], config: TokenizerConfig = DEFAULT_CONFIG) -> FreqSpectrum:
    """The spectrum F(k) of the words of binary UTF-8 files, read in order and pooled.

    Equal to ``freq_of_freq(Counter(tokenize(text, config)))`` of the
    decoded texts joined by newlines; invalid bytes decode to U+FFFD.  The
    files are one group of ``_count_groups``, all taken before any is read,
    so each must stay open until this returns.  A regular file of at least
    ``PARALLEL_MIN_BYTES`` opened with ``open`` is read from its position in
    byte ranges, in the shares its bytes fall in; any other file is read
    whole in this process.  Each file is left at its end.  Files with no
    word raise ``EmptyCorpusError``.
    """
    spec = _count_groups([list(files)], config, lambda g, spec: spec)[0]
    if spec is None:
        raise EmptyCorpusError("empty corpus")
    return spec


def _histogram(table: Counter[str], n: int) -> Counter[int]:
    """The histogram of the counts of a table's words of at least n characters, mapping k to the words counted k times.

    The one step that reduces the table an owner holds, or a whole group's,
    and so the one that drops the words ``tokenize`` drops as short.
    """
    return Counter(compress(table.values(), map(n.__le__, map(len, table))) if n > 1 else table.values())


def _spectrum(hists: Iterable[Counter[int]]) -> FreqSpectrum | None:
    """The spectrum F(k) of the sum of a group's histograms, or None where they count no word."""
    total: Counter[int] = Counter()
    for hist in hists:
        total.update(hist)
    return FreqSpectrum.from_points(total) if total else None


def _count_groups(groups: list[list[Any]], config: TokenizerConfig, finish: Callable[..., Any]) -> list[Any]:
    """finish(g, spectrum or None) for each group g of inputs (paths or open binary files), in group order.

    Each share of ``_plan`` is one process of a ``_fork_map`` and counts
    each group's items in it (``_count_part``).  A group wholly in one share
    is finished there, where None is its spectrum if it has no word.  The
    shares of a group cut across several own its words by hash: each keeps
    the table of the words it owns and sends the others' to them in
    batches.  Each owner adds the batches it receives and returns the
    histogram of its table, with its share's finished groups, and the
    histograms are summed and the group finished here (``_spectrum``).
    Owners' words are disjoint, so that sum is the group's.
    """
    shares = _plan(groups)
    n = config.min_token_length
    owners: dict[int, list[int]] = {}  # the shares that hold each group, which own its words
    for w, share in enumerate(shares):
        for g, _ in groupby(share, itemgetter(0)):
            owners.setdefault(g, []).append(w)

    def count(w: int, share: list[tuple[int, Any, tuple[int, int, int, int] | None]]):
        finished, kept, sent = [], {}, {}
        # a share's items are in input order, so each group's are consecutive
        for g, items in groupby(share, itemgetter(0)):
            ws = owners[g]
            table, batches = _count_part(list(items), config, ws.index(w), len(ws))
            if len(ws) == 1:
                finished.append((g, finish(g, _spectrum([_histogram(table, n)]))))
                continue
            kept[g] = table
            for o, out in zip(ws, batches):
                if out:
                    sent.setdefault(o, []).append((g, out))
        return {o: pickle.dumps(out, pickle.HIGHEST_PROTOCOL) for o, out in sent.items()}, (finished, kept)

    def merge(done: tuple[list[tuple[int, Any]], dict[int, Counter[str]]], received: list[bytes]):
        finished, kept = done  # the share's finished groups, and its owners' tables
        # a word the table lacks is counted apart, so that the table, which
        # holds most words, is never resized
        new = {g: Counter() for g in kept}
        while received:
            for g, batches in pickle.loads(received.pop(0)):
                table = kept[g]
                for words, ns in batches:
                    words = words.split(" ")
                    known = list(map(table.__contains__, words))
                    _add(table, list(compress(words, known)), compress(ns, known))
                    unknown = list(map(not_, known))
                    _add(new[g], list(compress(words, unknown)), compress(ns, unknown))
        return finished, [(g, [_histogram(table, n), _histogram(new[g], n)]) for g, table in kept.items()]

    results: dict[int, Any] = {}
    hists: dict[int, list[Counter[int]]] = {g: [] for g, ws in owners.items() if len(ws) > 1}
    for finished, reduced in _fork_map(count, merge, shares) if shares else []:
        results.update(finished)
        for g, owned in reduced:
            hists[g] += owned
    for g, group_hists in hists.items():
        results[g] = finish(g, _spectrum(group_hists))
    for _, source, span in chain.from_iterable(shares):
        if span and not isinstance(source, str):  # read with pread: left at its end
            source.seek(0, os.SEEK_END)
    return [results[g] if g in results else finish(g, None) for g in range(len(groups))]


def _plan(groups: list[list[Any]]) -> list[list[tuple[int, Any, tuple[int, int, int, int] | None]]]:
    """One share of (group, input, span) items per process, in input order; the only fork decision.

    Each input is stat-ed once (``_extent``) and none is opened.  The bytes
    of the regular files, concatenated in input order, are cut into W even
    shares: one per CPU and job up to ``MAX_WORKERS``, a job being a group
    or ``PARALLEL_MIN_BYTES // 2`` bytes, or one where ``_can_fork`` is
    false.  A regular file's span is (start, lo, hi, end), for its bytes
    [start, end) and the share's [lo, hi).  A file of at least
    ``PARALLEL_MIN_BYTES`` is split at each cut inside it, which the shares
    move to the next ASCII whitespace byte (``_cut``).  A cut inside a
    smaller file moves to its end, and an input that is not a regular file
    has no span.  Those are read whole: a path in the share where it falls,
    so that it fails in input order; an open file in this process, so that
    it is left at its end.  A path that is not a regular file (a pipe, a
    missing file) is planned as the mean size of the regular files, or as
    one job's bytes where there is none, so that it takes no more cuts than
    a file beside it.  A share whose cuts all moved to one file's end holds
    nothing and is dropped, so that no process counts nothing; the first
    share holds every open file, so it is dropped only where there is none.
    """
    items = [(g, source, _extent(source)) for g, group in enumerate(groups) for source in group]
    regular = [e[1] - e[0] for _, _, e in items if e]
    guess = sum(regular) // len(regular) if regular else PARALLEL_MIN_BYTES // 2
    sizes = [e[1] - e[0] if e else guess if isinstance(s, str) else 0 for _, s, e in items]
    total = sum(sizes)
    jobs = max(len(groups), total // (PARALLEL_MIN_BYTES // 2))
    workers = min(_cpu_count(), jobs, MAX_WORKERS) if _can_fork() else 1
    cuts = [total * w // workers for w in range(1, workers)]
    shares: list[list[tuple[int, Any, tuple[int, int, int, int] | None]]] = [[] for _ in range(workers)]
    w = pos = 0  # the share of the byte at pos in the concatenation
    for (g, source, extent), size in zip(items, sizes):
        while w < len(cuts) and cuts[w] <= pos:
            w += 1
        start, end = extent or (0, 0)
        if end - start < PARALLEL_MIN_BYTES:
            shares[w if isinstance(source, str) else 0].append((g, source, extent and (start, start, end, end)))
        else:
            lo = start
            while w < len(cuts) and cuts[w] < pos + size:
                at = start + cuts[w] - pos
                shares[w].append((g, source, (start, lo, at, end)))
                lo, w = at, w + 1
            shares[w].append((g, source, (start, lo, end, end)))
        pos += size
    return [share for share in shares if share]


def _extent(source: Any) -> tuple[int, int] | None:
    """The bytes [start, end) of a regular file that a share may read with ``os.pread``, or None.

    All of a path's bytes, or an open file's from its position where it is a
    plain OS file (not a pipe, an in-memory buffer or a decompressing
    reader).  None also where the stat fails: the input fails in its share.
    """
    try:
        if isinstance(source, str):
            start, info = 0, os.stat(source)
        elif isinstance(source, (io.BufferedReader, io.BufferedRandom, io.FileIO)):
            start, info = source.tell(), os.fstat(source.fileno())
        else:
            return None
    except OSError:  # io.UnsupportedOperation is one
        return None
    return (start, max(start, info.st_size)) if stat.S_ISREG(info.st_mode) else None


def _count_part(
    items: list[tuple[int, Any, tuple[int, int, int, int] | None]],
    config: TokenizerConfig,
    slot: int = 0,
    owners: int = 1,
) -> tuple[Counter[str], list[list[tuple[str, list[int]]]]]:
    """The words of one group's items in one share, by owner.

    The owner of a word is ``hash(word) % owners``, this process being
    owner slot.  Returns the table of the words slot owns, and for each
    owner the batches of the words it owns: each batch is its words joined
    by spaces and the list of their counts, and a word may repeat.  One
    owner keeps every word.  Where there are several, every word takes its
    route as it is made, so no process builds the table of all its words.
    A forked process keeps this one's str hash seed, so all agree on the
    owners.  Short words are routed too: ``_histogram`` drops them.

    A path is opened and closed per item, so no process holds two inputs
    open.  A range of a file of at least ``PARALLEL_MIN_BYTES`` is read with
    ``os.pread``, other inputs whole.  Byte tokens pay where most tokens
    repeat one already counted, which holds for a table of that many bytes
    of text: so a range, and a regular file in a part of that many bytes,
    counts its byte tokens, and each distinct one is converted once for the
    part (``_words_of_tokens``).  Any other input is counted piece by piece
    (``_count_into``), which pays where most tokens are new.
    """
    many = sum(span[2] - span[1] for _, _, span in items if span) >= PARALLEL_MIN_BYTES
    local: Counter[str] = Counter()  # the tokens of the inputs counted piece by piece
    tokens: Counter[bytes] = Counter()  # the byte tokens that _words_of_tokens converts
    for _, source, span in items:
        f = open(source, "rb") if isinstance(source, str) else source
        try:
            large = span is not None and span[3] - span[0] >= PARALLEL_MIN_BYTES
            if large:
                start, lo, hi, end = span
                fd = f.fileno()
                lo, hi = (_cut(fd, at, end) if start < at < end else at for at in (lo, hi))
                chunks: Iterable[bytes] = (os.pread(fd, min(CHUNK_SIZE, hi - p), p) for p in range(lo, hi, CHUNK_SIZE))
            else:
                chunks = iter(lambda: f.read(CHUNK_SIZE), b"")
            if large or (span and many):
                # no name holds the last piece, which may be one long token
                tokens.update(chain.from_iterable(map(bytes.split, _pieces(chunks, config))))
            else:
                _count_into(local, tokens, chunks, config)
        finally:
            if f is not source:
                f.close()
    if config.token_rule == "unicode_words":
        # a token that is not str.isalnum may hold several words or none
        moved = list(filterfalse(str.isalnum, local))
        _add(tokens, list(map(str.encode, moved)), map(local.pop, moved))
    sent: list[list[tuple[str, list[int]]]] = [[] for _ in range(owners)]
    batches = _words_of_tokens(tokens, config)
    if owners == 1:  # the converted words are added to those counted piece by piece
        for words, ns in batches:
            _add(local, words, ns)
        return local, sent
    # for each owner, the table that maps it to 1 and every other to 0
    masks = [bytes(b == o for b in range(256)) for o in range(owners)]
    # the words counted piece by piece are routed as one batch
    batches = chain([(list(local), list(local.values()))], batches)
    local = Counter()
    for words, ns in batches:
        dest = bytes(map(mod, map(hash, words), repeat(owners)))  # each word's owner
        for o in range(owners):
            mask = dest.translate(masks[o])
            if o == slot:
                _add(local, list(compress(words, mask)), compress(ns, mask))
            elif o in dest:
                sent[o].append((" ".join(compress(words, mask)), list(compress(ns, mask))))
    return local, sent


def _count_into(
    counts: Counter[str], tokens: Counter[bytes], chunks: Iterable[bytes], config: TokenizerConfig
) -> None:
    """Add to counts or tokens the tokens of one file, read as chunks of bytes.

    Each piece of ``_pieces`` is decoded once, case-folded as a whole when
    lowercasing, split at whitespace and counted in counts.  A piece with a
    character of ``_FOLD_SPLITS`` when lowercasing under ``unicode_words``,
    whose fold would change its runs of word characters, has the UTF-8 of
    its whitespace-split tokens counted in tokens instead, for
    ``_count_part`` to convert: U+FFFD encodes to itself, and a whitespace
    character is never a word character, so they give the words of its
    byte tokens.  Every such character but U+0345 folds to more than one,
    and no character folds to none, so only a piece whose fold is longer,
    or that holds U+0345, is searched for one.  A piece is at most a chunk
    and the token carried over, so the tokens of a longer one, which only
    non-ASCII whitespace separates, are matched one at a time, not listed.
    """
    splits = config.token_rule == "unicode_words" and config.lowercase

    def split(text: str) -> Iterable[str]:
        return text.split() if len(text) <= 2 * CHUNK_SIZE else map(re.Match.group, re.finditer(r"\S+", text))

    for piece in _pieces(chunks, config):
        text = str(piece, "utf-8", "replace")
        # the piece is dropped after decoding, so that a long token is held
        # at most twice, as text and as its fold
        del piece
        folded = text.casefold() if config.lowercase else text
        if splits and (len(folded) != len(text) or "\u0345" in text) and re.search(_FOLD_SPLITS, text):
            del folded
            tokens.update(map(str.encode, split(text)))
            continue
        del text
        counts.update(split(folded))


def _pieces(chunks: Iterable[bytes], config: TokenizerConfig) -> Iterator[bytes]:
    """The bytes of one file, read as chunks, in pieces of whole tokens.

    The ASCII bytes that separate tokens, the non-word ones under
    ``unicode_words`` and the whitespace under ``whitespace``, are made
    spaces, and A-Z are made a-z when lowercasing.  The bytes read up to the
    last space byte, or to the end of the file, are a piece: it holds whole
    tokens and whole UTF-8 sequences, so each of its tokens decodes as it
    does in the whole text.
    """
    table = _ASCII_NONWORD if config.token_rule == "unicode_words" else _ASCII_WHITESPACE
    if config.lowercase:
        table = table.translate(_ASCII_LOWER)
    pending: list[bytes] = []  # the bytes read after the last space byte
    for raw in chain(chunks, [b""]):  # an empty chunk ends the file
        raw = raw.translate(table)
        cut = raw.rfind(b" ") + 1
        if raw and not cut:
            pending.append(raw)
            continue
        pending.append(raw[:cut])
        # the chunks are dropped before the piece is yielded, and this frame
        # keeps no reference to it, so that the caller can drop a long token
        pending = [b"".join(pending), raw[cut:]]
        yield pending.pop(0)
        if not raw:
            return


def _can_fork() -> bool:
    """Whether a ``_fork_map`` may start here.

    Not where the platform has no ``fork``, other threads run (a forked
    child would not have them), or this is a daemonic ``multiprocessing``
    worker, which may not start processes.
    """
    # neither module is imported just to ask: where it is not loaded, it started nothing
    threading, mp = sys.modules.get("threading"), sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return False
    return mp is None or not mp.current_process().daemon


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _cut(fd: int, at: int, end: int) -> int:
    """Where a cut at byte at of the file fd moves: the next ASCII whitespace byte before end, or end.

    Such a byte is never inside a UTF-8 sequence and ends a token under both
    rules, so the ranges between cuts count to the whole.  The shares on
    either side of a cut each move it, so the search goes on until it finds
    one: a later cut never moves before an earlier one.
    """
    while at < end:
        found = os.pread(fd, min(CHUNK_SIZE, end - at), at).translate(_ASCII_WHITESPACE).find(b" ")
        if found >= 0:
            return at + found
        at += CHUNK_SIZE
    return end


def _words_of_tokens(tokens: Counter[bytes], config: TokenizerConfig) -> Iterator[tuple[list[str], list[int]]]:
    """The words of the counted byte tokens, as ``tokenize`` splits and folds them, in batches; empties tokens.

    The tokens are those of ``_pieces``, and the UTF-8 of the string path's
    tokens that are not ``str.isalnum``, already folded when lowercasing (a
    fold is its own fold).  tokens is cleared before the first batch.
    ``_CONVERT_BATCH`` tokens at a time are decoded and folded together,
    and each batch is yielded as its words and their counts, where a word
    may repeat (U+212A and "K" fold to "k").  A ``str.isalnum`` token, or
    under ``whitespace`` a ``str.isprintable`` one, is one word.  Each other
    token is split as ``tokenize`` splits it, and each distinct word of it
    is yielded once, with its count in the token times the token's count.
    """
    keys, ns = list(tokens), list(tokens.values())
    tokens.clear()
    fold, whitespace = config.lowercase, config.token_rule == "whitespace"
    while keys:
        batch, batch_ns = keys[-_CONVERT_BATCH:], ns[-_CONVERT_BATCH:]
        del keys[-_CONVERT_BATCH:], ns[-_CONVERT_BATCH:]
        # a space ends any UTF-8 sequence before it, and no character folds
        # to a space, so the tokens are decoded and folded as one by one
        joined = b" ".join(batch).decode("utf-8", "replace")
        # the bytes are dropped before folding, so that a long token is held
        # at most twice
        del batch
        texts = joined.split(" ")
        words = joined.casefold().split(" ") if fold else texts
        # every whitespace character but the space is unprintable, and
        # folding keeps each character's whitespace-ness
        one = list(map(str.isprintable, words)) if whitespace else list(map(str.isalnum, texts))
        out, out_ns = list(compress(words, one)), list(compress(batch_ns, one))
        other = list(map(not_, one))
        for text, word, n in zip(compress(texts, other), compress(words, other), compress(batch_ns, other)):
            if whitespace:
                parts: Iterable[str] = word.split()
            else:
                # matched one at a time, so that a long token's words are never listed
                parts = map(re.Match.group, _WORD_RE.finditer(text))
                if fold:
                    parts = map(str.casefold, parts)
            counted = Counter(parts)
            out += counted
            out_ns += map(n.__mul__, counted.values())
        yield out, out_ns
