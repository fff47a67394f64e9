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
counted it.  A group cut across shares is merged in this process
(``_count_groups``), and the last child's table is folded straight into the
spectrum F(k) (``_spectrum``).
"""

from __future__ import annotations

import io
import os
import re
import stat
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress, filterfalse, groupby, islice, repeat
from operator import add, itemgetter, not_

from ._record import Record
from .errors import EmptyCorpusError
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

# Bytes read per chunk, and searched at a time by _cut.
CHUNK_SIZE = 1 << 17

# _plan makes one share per group and per PARALLEL_MIN_BYTES // 2 bytes and
# CPU, at most MAX_WORKERS, which bounds the processes and tables that exist
# at once.  Only a regular file of at least PARALLEL_MIN_BYTES is cut.
PARALLEL_MIN_BYTES = 8 << 20
MAX_WORKERS = 8

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
    spec = _count_groups([list(files)], config, lambda g, counts, held: _spectrum(counts, held))[0]
    if spec is None:
        raise EmptyCorpusError("empty corpus")
    return spec


def _spectrum(counts: Counter[str], held: list[tuple[str, list[int]]]) -> FreqSpectrum | None:
    """``freq_of_freq`` of counts plus the batches held, or None where no word is counted.

    Each word of the batches takes its count out of counts, so no table
    grows for the last child's share.
    """
    hist: Counter[int] = Counter()
    while held:
        words, ns = held.pop()
        hist.update(map(add, map(counts.pop, words.split(" "), repeat(0)), ns))
    hist.update(counts.values())
    return _from_histogram(hist) if hist else None


def _count_groups(groups: list[list[Any]], config: TokenizerConfig, finish: Callable[..., Any]) -> list[Any]:
    """finish(g, counts, held) for each group g of inputs (paths or open binary files), in group order.

    Each share of ``_plan`` is one job of a ``_fork_map`` and counts each
    group's items in it into one table (``_count_part``).  A group wholly in
    one share is finished there.  A group cut across shares sends its table
    from each (``_RangeTable``): this process's is kept, each child's
    batches are added when the next child's arrive, and the last child's
    are passed to finish.  A child pickles its one result after counting
    its whole share, so it never waits on the pipe while it counts.
    """
    shares = _plan(groups)
    touched = [[g for g, _ in groupby(share, itemgetter(0))] for share in shares]
    left = Counter(chain.from_iterable(touched))  # the shares of each group not yet taken up
    whole = {g for g, n in left.items() if n == 1}

    def count(share: list[tuple[int, Any, tuple[int, int, int, int] | None]]) -> list[Any]:
        # a share's items are in input order, so each group's are consecutive
        tables = ((g, _count_part(list(items), config)) for g, items in groupby(share, itemgetter(0)))
        return [finish(g, table, []) if g in whole else _RangeTable(table) for g, table in tables]

    results: dict[int, Any] = {}
    cut: dict[int, tuple[Counter[str], list[tuple[str, list[int]]]]] = {}  # the groups being taken up
    outs = _fork_map(count, shares, len(shares)) if len(shares) > 1 else map(count, shares)
    for w, out in enumerate(outs):
        for g, result in zip(touched[w], out):
            left[g] -= 1
            if g in whole:
                results[g] = result
                continue
            counts, held = cut.pop(g, (Counter(), []))
            if isinstance(result, _RangeTable):  # this process's: kept as it is
                counts = result.counts
            else:  # a child's, in batches
                _add_batches(counts, held)
                held = result
            if left[g]:
                cut[g] = counts, held
            else:
                results[g] = finish(g, counts, held)
    for _, source, span in chain.from_iterable(shares):
        if span and not isinstance(source, str):  # read with pread: left at its end
            source.seek(0, os.SEEK_END)
    return [results[g] if g in results else finish(g, Counter(), []) for g in range(len(groups))]


def _plan(groups: list[list[Any]]) -> list[list[tuple[int, Any, tuple[int, int, int, int] | None]]]:
    """One share of (group, input, span) items per process, in input order; the only fork decision.

    Each input is stat-ed once (``_extent``) and none is opened.  The bytes
    of the regular files, concatenated in input order, are cut into W even
    shares, W being ``_workers`` of one job per group and per
    ``PARALLEL_MIN_BYTES // 2`` bytes.  A regular file's span is (start,
    lo, hi, end), for its bytes [start, end) and the share's [lo, hi).  A
    file of at least ``PARALLEL_MIN_BYTES`` is split at each cut inside it,
    which the shares move to the next ASCII whitespace byte (``_cut``).  A
    cut inside a smaller file moves to its end, and an input that is not a
    regular file has no span.  Those are read whole: a path in the share
    where it falls, so that it fails in input order; an open file in this
    process, so that it is left at its end.  A share whose cuts all moved to
    one file's end holds nothing and is dropped, so that no process counts
    nothing; the first share holds every open file, so it is dropped only
    where there is none.
    """
    items = [(g, source, _extent(source)) for g, group in enumerate(groups) for source in group]
    # a path that is not a regular file (a pipe, say) is planned as one job's bytes
    sizes = [e[1] - e[0] if e else PARALLEL_MIN_BYTES // 2 if isinstance(s, str) else 0 for _, s, e in items]
    total = sum(sizes)
    workers = _workers(max(len(groups), total // (PARALLEL_MIN_BYTES // 2)))
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
    items: list[tuple[int, Any, tuple[int, int, int, int] | None]], config: TokenizerConfig
) -> Counter[str]:
    """The table of one group's items in one share, without the words ``tokenize`` drops as short.

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
    counts = _words_of_tokens(tokens, config)
    if len(local) > len(counts):  # the smaller table is added to the larger
        counts, local = local, counts
    _add(counts, local, local.values())
    n = config.min_token_length
    if n > 1:  # where the table is made, so no child pickles a short word
        for word in list(compress(counts, map(n.__gt__, map(len, counts)))):
            del counts[word]
    return counts


def _add_batches(counts: Counter[str], batches: list[tuple[str, list[int]]]) -> None:
    """Add to counts the batches of a child's ``_RangeTable``, popping each as it is added."""
    while batches:
        words, ns = batches.pop()
        _add(counts, words.split(" "), ns)


def _count_into(
    counts: Counter[str], tokens: Counter[bytes], chunks: Iterable[bytes], config: TokenizerConfig
) -> None:
    """Add to counts or tokens the tokens of one file, read as chunks of bytes.

    Each piece of ``_pieces`` is decoded once, case-folded as a whole when
    lowercasing, split at whitespace and counted in counts.  A piece with a
    character of ``_FOLD_SPLITS`` when lowercasing under ``unicode_words``,
    whose fold would change its runs of word characters, has its byte tokens
    counted in tokens instead, for ``_count_part`` to convert.
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


def _workers(jobs: int) -> int:
    """Processes for jobs: one per CPU and job up to ``MAX_WORKERS``, or 1 where ``_can_fork`` is false."""
    return min(_cpu_count(), jobs, MAX_WORKERS) if _can_fork() else 1


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


class _RangeTable:
    """One share's table, ``counts``, of a group cut across shares: final, short words dropped.

    This process keeps its own as it is.  A forked child pickles it as a
    list of batches of ``_CONVERT_BATCH`` words joined by spaces, each with
    the list of their counts, which loads several times faster than the
    table.  No word holds a space or repeats across a child's batches.
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
    tokens that are not ``str.isalnum``, already folded when lowercasing (a
    fold is its own fold).  tokens is cleared before the words' table grows.
    ``_CONVERT_BATCH`` tokens at a time are decoded and folded together.  A
    ``str.isalnum`` token, or under ``whitespace`` a ``str.isprintable``
    one, is one word, added with one ``_add``, where several tokens can give
    one word (U+212A and "K" fold to "k").  Each other token is split as
    ``tokenize`` splits it, with its count added to each of its words.
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
    or raises.
    """
    # imported here, so that importing the CLI does not pay for it
    import pickle

    pids, pipes = [], []
    done = False
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
