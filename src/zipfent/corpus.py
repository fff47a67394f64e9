"""Tokenization and word-frequency counting for pooled text corpora.

All words from all inputs are pooled into a single corpus; there is no
per-document bookkeeping.  ``count_stream`` is the ingestion path for files:
it counts them in pieces cut after ASCII separator bytes, so memory grows
with the vocabulary and the longest run without one, not with the input.
It does not call ``tokenize``, and takes one of two paths per input.

A regular file of at least ``PARALLEL_MIN_BYTES`` is cut into byte ranges,
counted on several CPUs with ``_map`` (which the CLI also uses for
``--per-file`` groups) or as one range where ``_workers`` gives 1.  A range
counts the raw byte tokens of its pieces, then decodes, splits and folds
each distinct token once (``_words_of_tokens``).  That pays on such a file,
where few tokens are new: a range of the 39 MB bench text holds 7.8%
distinct tokens, and a 2,500-word file of the per-file bench 56.6%, which
it counted slower.  The table of the range this process counts becomes the
pooled table as it is, and a forked child's comes back in batches of words
joined by spaces (``_RangeTable``), added one batch at a time; the last
child's batches are held to the end (``_pool``), where ``count_stream`` adds
them and ``_count_spectrum``, which the CLI uses, folds them straight into
the spectrum F(k).  Every other input is decoded piece by piece, case-folded
whole and split at whitespace.
Its few distinct tokens that are not ``str.isalnum``, and the byte tokens
of a piece where folding would change which characters are word
characters, go to ``_words_of_tokens`` too.  Both give the counts that
``tokenize`` gives.  Tables are immutable once built and safe to share
across threads; ``merge`` sums them and is insensitive to the order of its
arguments.
"""

from __future__ import annotations

import io
import os
import re
import stat
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress, filterfalse, islice, repeat
from operator import add, not_

from ._record import Record
from .spectrum import FreqSpectrum, _from_histogram

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

# Bytes read per chunk by count_stream, and searched for a cut past an even
# share of a file by _byte_ranges.
CHUNK_SIZE = 1 << 17

# count_stream counts a regular file with at least this many bytes left in
# byte ranges on several processes, one per PARALLEL_MIN_BYTES // 2 bytes and
# CPU.  _map runs at most MAX_WORKERS processes, which bounds the processes
# and the vocabulary-sized tables that exist at once.
PARALLEL_MIN_BYTES = 8 << 20
MAX_WORKERS = 8

# True while a _fork_map runs in this process, from before its first fork to
# its end, and so in its children, so that nothing forks inside one.
_in_fork_map = False

# Byte tokens converted to words at a time by _words_of_tokens, and words
# in each batch of a _RangeTable that a forked child sends.
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


class FrequencyTable(Record):
    """Immutable word -> occurrence-count map with precomputed aggregates.

    ``total_tokens`` is the sum of all counts (N) and ``max_frequency`` the
    largest single count (M, 0 only for the empty table).
    """

    counts: dict[str, int]
    total_tokens: int
    max_frequency: int
    vocab_size: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FrequencyTable":
        counts = dict(counts)
        for word, c in counts.items():
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"count for {word!r} must be a positive integer, got {c!r}")
        return cls._of_counted(counts)

    @classmethod
    def _of_counted(cls, counts: dict[str, int]) -> "FrequencyTable":
        """The table of counts known to be positive ints, which it keeps without a copy."""
        return cls(
            counts=counts,
            total_tokens=sum(counts.values()),
            max_frequency=max(counts.values(), default=0),
            vocab_size=len(counts),
        )

    def is_empty(self) -> bool:
        return not self.counts


def count_frequencies(tokens: Iterable[str]) -> FrequencyTable:
    """Count how often each word occurs."""
    return FrequencyTable.from_counts(Counter(tokens))


def merge(tables: Iterable[FrequencyTable]) -> FrequencyTable:
    """Pointwise sum of several tables; associative and commutative."""
    merged: dict[str, int] = {}
    for table in tables:
        _add(merged, table.counts, table.counts.values())
    return FrequencyTable.from_counts(merged)


def _add(counts: dict[Any, int], keys: Iterable[Any], ns: Iterable[int]) -> None:
    """Add each of ns to the count of the key at its place in keys, which are iterated twice.

    One dict.update of (key, sum) pairs adds them without a Python loop.  A
    key may repeat: dict.update takes up the pairs one by one, and each sum
    reads its key's count when its pair is taken up, after the pairs before
    it are written.
    """
    dict.update(counts, zip(keys, map(add, map(counts.get, keys, repeat(0)), ns)))


def read_text(path: str | os.PathLike) -> str:
    """Read a UTF-8 text file; invalid byte sequences are replaced, not fatal."""
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def count_stream(files: Iterable[BinaryIO], config: TokenizerConfig = DEFAULT_CONFIG) -> FrequencyTable:
    """Count the words of binary UTF-8 files, read in order, pooled into one table.

    Equal to merging ``count_frequencies(tokenize(text, config))`` over the
    decoded text of each file, but read ``CHUNK_SIZE`` bytes at a time and
    counted up to the last ASCII separator byte read (``_pieces``); invalid
    bytes decode to U+FFFD exactly as a one-shot decode would.  Memory grows
    with the vocabulary and the longest run without an ASCII separator, not
    with the input.

    A regular file opened with ``open`` (not a decompressing reader) with at
    least ``PARALLEL_MIN_BYTES`` left to read is cut into byte ranges at ASCII
    whitespace bytes, one per process of ``_map`` (``_parallel_ranges``), or
    taken as one range where that is one process.  This process counts the
    first range itself and forked children count the others; the table is
    the same, and each process holds a partial vocabulary of its own.  The
    first range's table is kept as the pooled table, and each child's is
    added a batch of words at a time (``_RangeTable``), so that no table is
    built twice or copied: a child's batches are held until the next child's
    arrive, and the last child's until every file is counted (``_pool``).  A
    range counts byte tokens and converts each distinct one once
    (``_count_range``), which pays where most tokens repeat one already
    counted; every other file is decoded and split piece by piece
    (``_count_into``), which pays where most are new.  The pieces
    of those files that hold a character of ``_FOLD_SPLITS`` are counted as
    byte tokens instead, and at the end, under ``unicode_words``, their
    tokens that are not ``str.isalnum`` join them; ``_words_of_tokens``
    converts that table once for all the files.  Each table drops its short
    words where it is made (``_drop_short``).  Each file is left at its end.
    """
    counts, held = _pool(files, config)
    _add_batches(counts, held)
    return FrequencyTable._of_counted(counts)


def _count_spectrum(files: Iterable[BinaryIO], config: TokenizerConfig) -> FreqSpectrum | None:
    """``freq_of_freq(count_stream(files, config))``, or None where no word is counted.

    The last forked child's batches are folded into the histogram of the
    counts, not added to the pooled table: each of its words takes its
    count out of the table, so no table grows for that share.
    """
    counts, held = _pool(files, config)
    hist: Counter[int] = Counter()
    while held:
        words, ns = held.pop()
        hist.update(map(add, map(counts.pop, words.split(" "), repeat(0)), ns))
    hist.update(counts.values())
    return _from_histogram(hist) if hist else None


def _pool(files: Iterable[BinaryIO], config: TokenizerConfig) -> tuple[Counter[str], list[tuple[str, list[int]]]]:
    """The pooled words of ``count_stream``, but for the last forked child's.

    Each child's table arrives as batches (``_RangeTable``), which are held
    until the next child's arrive and then added; the last child's are
    returned as they are, for the caller to take up.  The table of the
    files not cut into ranges drops its short words before it is pooled.
    """
    counts: Counter[str] = Counter()  # the words of the files cut into byte ranges
    held: list[tuple[str, list[int]]] = []  # the batches of the last child's table
    local: Counter[str] = Counter()  # the tokens of the other files
    tokens: Counter[bytes] = Counter()  # their tokens that _words_of_tokens converts
    for f in files:
        ranges = _parallel_ranges(f)
        if not ranges:
            _count_into(local, tokens, iter(lambda: f.read(CHUNK_SIZE), b""), config)
            continue
        jobs = [(f.fileno(), start, end, config) for start, end in ranges]
        # each partial table is added and then dropped
        for table in _map(_count_range, jobs):
            if not isinstance(table, _RangeTable):  # a child's, in batches
                _add_batches(counts, held)
                held = table
            elif counts:
                _add(counts, table.counts, table.counts.values())
            else:  # this process's: kept as it is
                counts = table.counts
        # the ranges are read with pread; leave f at its end, as f.read would
        f.seek(0, os.SEEK_END)
    if config.token_rule == "unicode_words":
        # a token that is not str.isalnum may hold several words or none
        moved = list(filterfalse(str.isalnum, local))
        _add(tokens, list(map(str.encode, moved)), map(local.pop, moved))
    converted = _words_of_tokens(tokens, config)
    _add(local, converted, converted.values())
    _drop_short(local, config)
    if not counts:
        return local, held
    _add(counts, local, local.values())
    return counts, held


def _add_batches(counts: Counter[str], batches: list[tuple[str, list[int]]]) -> None:
    """Add to counts the batches of a child's ``_RangeTable``, popping each as it is added."""
    while batches:
        words, ns = batches.pop()
        _add(counts, words.split(" "), ns)


def _drop_short(counts: Counter[str], config: TokenizerConfig) -> None:
    """Delete from counts the words shorter than ``config.min_token_length``, as ``tokenize`` drops them."""
    n = config.min_token_length
    if n > 1:
        for word in list(compress(counts, map(n.__gt__, map(len, counts)))):
            del counts[word]


def _count_into(
    counts: Counter[str], tokens: Counter[bytes], chunks: Iterable[bytes], config: TokenizerConfig
) -> None:
    """Add to counts or tokens the tokens of one file, read as chunks of bytes.

    Each piece of ``_pieces`` is decoded once, case-folded as a whole when
    lowercasing, split at whitespace and counted in counts.  A piece that
    holds a character of ``_FOLD_SPLITS`` when lowercasing under
    ``unicode_words``, whose fold would change its runs of word characters,
    has its byte tokens counted in tokens instead.  The caller moves the
    tokens in counts that are not ``str.isalnum`` into tokens, converts
    tokens with ``_words_of_tokens`` and drops the short words
    (``_drop_short``), once per table.
    """
    splits = config.token_rule == "unicode_words" and config.lowercase
    for piece in _pieces(chunks, config):
        text = str(piece, "utf-8", "replace")
        if splits and re.search(_FOLD_SPLITS, text):
            del text
            tokens.update(piece.split())
            continue
        # the piece is dropped after decoding, so that a long token is held
        # at most twice, as bytes and as text
        del piece
        if config.lowercase:
            text = text.casefold()
        counts.update(text.split())


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


def _parallel_ranges(f: BinaryIO) -> list[tuple[int, int]]:
    """The byte ranges in which count_stream counts f, one per process of ``_map``.

    No range means f is read as a stream: it is not a plain OS file whose bytes
    are the ones it reads (a pipe, a terminal, an in-memory buffer, a gzip,
    bz2 or lzma reader over a file), or has fewer than ``PARALLEL_MIN_BYTES``
    left.  Otherwise it is cut into ``_workers`` ranges, one per
    ``PARALLEL_MIN_BYTES // 2`` bytes left, or fewer where a cut is not
    found; one range is counted in this process alone.
    """
    if not isinstance(f, (io.BufferedReader, io.BufferedRandom, io.FileIO)):
        return []
    try:
        fd, start = f.fileno(), f.tell()
    except OSError:  # io.UnsupportedOperation is one
        return []
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode) or info.st_size - start < PARALLEL_MIN_BYTES:
        return []
    parts = _workers((info.st_size - start) // (PARALLEL_MIN_BYTES // 2))
    return _byte_ranges(fd, start, info.st_size, parts)


def _map(fn: Callable[[Any], Any], jobs: list[Any]) -> Iterator[Any]:
    """Yield fn(job) for each job, in job order: a ``_fork_map`` of ``_workers`` processes, or ``map``."""
    workers = _workers(len(jobs))
    return _fork_map(fn, jobs, workers) if workers > 1 else map(fn, jobs)


def _workers(jobs: int) -> int:
    """Processes for jobs: one per CPU and job up to ``MAX_WORKERS``, or 1 where ``_can_fork`` is false."""
    return min(_cpu_count(), jobs, MAX_WORKERS) if _can_fork() else 1


def _can_fork() -> bool:
    """Whether a ``_fork_map`` may start here.

    Not where the platform has no ``fork``, other threads run (a forked
    child would not have them), this is a daemonic ``multiprocessing``
    worker, which may not start processes, or a fork map already runs in
    this process.
    """
    # neither module is imported just to ask: where it is not loaded, it started nothing
    threading, mp = sys.modules.get("threading"), sys.modules.get("multiprocessing")
    if _in_fork_map or not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return False
    return mp is None or not mp.current_process().daemon


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _byte_ranges(fd: int, start: int, end: int, parts: int) -> list[tuple[int, int]]:
    """Cut bytes [start, end) of the file fd into at most ``parts`` consecutive ranges.

    Each cut moves forward from an even share of the bytes to the next ASCII
    whitespace byte, one that ``_ASCII_WHITESPACE`` maps to a space.  That
    byte is never inside a UTF-8 sequence and ends a token under both token
    rules, so the counts of the ranges sum to the count of the whole.  A cut
    with no such byte in the ``CHUNK_SIZE`` bytes after it is dropped.
    """
    cuts = [start]
    for i in range(1, parts):
        at = max(start + (end - start) * i // parts, cuts[-1] + 1)
        if at >= end:
            break
        found = os.pread(fd, min(CHUNK_SIZE, end - at), at).translate(_ASCII_WHITESPACE).find(b" ")
        if found >= 0:
            cuts.append(at + found)
    cuts.append(end)
    return list(zip(cuts, cuts[1:]))


def _count_range(job: tuple[int, int, int, TokenizerConfig]) -> _RangeTable:
    """Worker: the table of the words in bytes [start, end) of the file fd.

    Counts the byte tokens of each of ``_pieces`` and then converts each
    distinct token once (``_words_of_tokens``), so that decoding, folding
    and splitting cost per distinct token, not per token.  A range ends
    before an ASCII whitespace byte, so its tokens decode as they do in the
    whole file.  Its short words are dropped here, so no child pickles one.
    """
    fd, start, end, config = job
    chunks = (os.pread(fd, min(CHUNK_SIZE, end - pos), pos) for pos in range(start, end, CHUNK_SIZE))
    # no name holds the last piece, which may be one long token
    tokens = Counter(chain.from_iterable(map(bytes.split, _pieces(chunks, config))))
    counts = _words_of_tokens(tokens, config)
    _drop_short(counts, config)
    return _RangeTable(counts)


class _RangeTable:
    """The table of one byte range, ``counts``, as ``_count_range`` returns it: final, short words dropped.

    The process that counted the range keeps the table as it is.  Pickled,
    in a forked child of ``_fork_map``, it is a list of batches of
    ``_CONVERT_BATCH`` words joined by spaces, each with the list of their
    counts, which loads several times faster than the table itself.  The
    parent splits and adds one batch at a time (``_add_batches``), or, for
    the last child's in ``_count_spectrum``, folds each batch into the
    spectrum.  No word holds a space, and no word repeats across a child's
    batches.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Counter[str]):
        self.counts = counts

    def __reduce__(self) -> tuple[type, tuple[list[tuple[str, list[int]]]]]:
        words, ns = iter(self.counts), iter(self.counts.values())
        batches = []
        while batch := list(islice(ns, _CONVERT_BATCH)):
            batches.append((" ".join(islice(words, len(batch))), batch))
        return list, (batches,)


def _words_of_tokens(tokens: Counter[bytes], config: TokenizerConfig) -> Counter[str]:
    """The words of the counted byte tokens, as ``tokenize`` splits and folds them; empties tokens.

    The tokens are those of ``_pieces``, and the UTF-8 of the string path's
    tokens that are not ``str.isalnum``, which are case-folded already when
    lowercasing: a fold is its own fold, so folding them again keeps them
    as they are.  Only a ``str.isalnum`` token of the string path becomes a
    word anywhere else.  The tokens and their counts are taken as two lists
    and tokens is cleared, so that its table is freed before the words'
    grows.  ``_CONVERT_BATCH`` tokens at a time are decoded and case-folded
    together.  A ``str.isalnum`` token is one word under both rules, and
    under ``whitespace`` so is a ``str.isprintable`` one; those words are
    added with one ``_add``, where several tokens can give one word
    (U+212A and "K" fold to "k", "\u00c0bc" and "\u00e0bc" to "\u00e0bc").
    Each other token is split as ``tokenize`` splits it, with its count
    added to each of its words.
    """
    keys, ns = list(tokens), list(tokens.values())
    tokens.clear()
    counts: Counter[str] = Counter()
    get, fold, whitespace = counts.get, config.lowercase, config.token_rule == "whitespace"
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
        _add(counts, list(compress(words, one)), compress(batch_ns, one))
        other = list(map(not_, one))
        for text, word, n in zip(compress(texts, other), compress(words, other), compress(batch_ns, other)):
            if whitespace:
                parts: Iterable[str] = word.split()
            else:
                parts = _WORD_RE.findall(text)
                if fold:
                    parts = map(str.casefold, parts)
            for part in parts:
                counts[part] = get(part, 0) + n
    return counts


def _fork_map(fn: Callable[[Any], Any], jobs: list[Any], workers: int) -> Iterator[Any]:
    """Yield fn(job) for each job, in job order, computed in ``workers`` processes.

    Forks ``workers - 1`` children.  Child w computes jobs w, w + workers,
    ... and pickles (ok, result or exception) for each into a pipe of its
    own; this process computes jobs 0, workers, ... itself, in turn with
    reading the children's results.  fn and the jobs reach the children by
    fork, so only results and exceptions are pickled.  The first failure in
    job order is raised here, and every child is reaped before this returns
    or raises.  ``_map`` calls it, where ``_can_fork`` holds; ``_in_fork_map``
    is set from before the first fork to the end, so no fork map nests in it.
    """
    # imported here, so that importing the CLI does not pay for it
    import pickle

    global _in_fork_map
    pids, pipes = [], []
    done = False
    _in_fork_map = True
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    for pipe in pipes:
                        pipe.close()
                    _serve_share(fn, jobs[w::workers], write_fd)  # never returns
            finally:
                os.close(write_fd)
            pids.append(pid)
        for i, job in enumerate(jobs):
            w = i % workers
            if w == 0:
                result = fn(job)
            else:
                try:
                    ok, result = pickle.load(pipes[w - 1])
                except EOFError:
                    raise ChildProcessError(f"worker process {pids[w - 1]} ended without a result") from None
                if not ok:
                    raise result
            yield result
        done = True
    finally:
        _in_fork_map = False
        for pipe in pipes:
            pipe.close()
        if not done:
            # a child may still be computing results nobody will read
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve_share(fn: Callable[[Any], Any], jobs: list[Any], fd: int) -> None:
    """In a child of ``_fork_map``: pickle (ok, fn(job) or its exception) to fd for each job.

    Stops after the first failure and leaves with ``os._exit``, so that the
    child runs none of the parent's clean-up and flushes none of its buffers.
    It inherits ``_in_fork_map`` set, so fn starts no fork map of its own.
    """
    import pickle

    code = 1
    try:
        with open(fd, "wb") as out:
            for job in jobs:
                try:
                    item = (True, fn(job))
                except Exception as exc:
                    item = (False, exc)
                pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                if not item[0]:
                    break
        code = 0
    finally:
        os._exit(code)
