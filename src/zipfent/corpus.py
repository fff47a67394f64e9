"""Tokenization and word-frequency counting for pooled text corpora.

All words from all inputs are pooled into a single corpus; there is no
per-document bookkeeping.  ``count_stream`` is the ingestion path for files:
it counts them chunk by chunk, so memory grows with the vocabulary, not with
the input, and counts a large regular file on several CPUs with
``_fork_map``, which the CLI also uses for ``--per-file`` groups.  Tables are
immutable once built and safe to share across threads; ``merge`` sums them
and is insensitive to the order of its arguments.
"""

from __future__ import annotations

import codecs
import io
import os
import re
import stat
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

TOKEN_RULES = ("unicode_words", "whitespace")

# Runs of Unicode word characters (letters, digits, underscore).
_WORD_RE = re.compile(r"\w+")

# Bytes read per chunk by count_stream.
CHUNK_SIZE = 1 << 20

# count_stream counts a regular file with at least this many bytes left in
# byte ranges on several processes, one per PARALLEL_MIN_BYTES // 2 bytes and
# CPU, and at most MAX_WORKERS, which bounds the processes and the
# vocabulary-sized tables that exist at once.
PARALLEL_MIN_BYTES = 8 << 20
MAX_WORKERS = 8

# True while this process computes a share of a _fork_map, in its children
# and in the parent's own share, so that nothing forks inside one.
_in_fork_map = False

# Ranges are cut at these bytes, searched for this far past an even share.
_CUT_RE = re.compile(rb"[ \n]")
_CUT_SEARCH_BYTES = 1 << 16


@dataclass(frozen=True)
class TokenizerConfig:
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


@dataclass(frozen=True)
class FrequencyTable:
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
    merged: Counter[str] = Counter()
    for table in tables:
        merged.update(table.counts)
    return FrequencyTable.from_counts(merged)


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file; invalid byte sequences are replaced, not fatal."""
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def count_stream(
    files: Iterable[BinaryIO], config: TokenizerConfig = DEFAULT_CONFIG, chunk_size: int | None = None
) -> FrequencyTable:
    """Count the words of binary UTF-8 files, read in order, pooled into one table.

    Equal to merging ``count_frequencies(tokenize(text, config))`` over the
    decoded text of each file, but holds no more than one chunk of text at a
    time: invalid bytes decode to U+FFFD exactly as a one-shot decode would,
    and a word cut by the end of a chunk is carried into the next one.
    Memory grows with the vocabulary, not with the input.  ``chunk_size``
    is in bytes, ``CHUNK_SIZE`` when None.

    A regular file opened with ``open`` (not a decompressing reader) with at
    least ``PARALLEL_MIN_BYTES`` left to read is cut into byte ranges at space
    or newline bytes where ``_can_fork`` allows, one per CPU and at most
    ``MAX_WORKERS``.  This process counts the first range itself and forked
    children count the others; the table is the same, and each process
    holds a partial vocabulary of its own.  Either way each file is left at
    its end.
    """
    if chunk_size is None:
        chunk_size = CHUNK_SIZE
    counts: Counter[str] = Counter()
    for f in files:
        ranges = _parallel_ranges(f)
        if len(ranges) < 2:
            _count_into(counts, f.read, config, chunk_size)
            continue
        jobs = [(f.fileno(), start, end, config, chunk_size) for start, end in ranges]
        # each partial table is added as it arrives and then dropped
        for part in _fork_map(_count_range, jobs, len(jobs)):
            if counts:
                counts.update(part)
            else:
                counts = part
        # the ranges are read with pread; leave f at its end, as f.read would
        f.seek(0, os.SEEK_END)
    if config.min_token_length > 1:
        n = config.min_token_length
        counts = {w: c for w, c in counts.items() if len(w) >= n}
    return FrequencyTable._of_counted(counts)


def _count_into(
    counts: Counter[str], read: Callable[[int], bytes], config: TokenizerConfig, chunk_size: int
) -> None:
    """Add to counts the words of one file, read with read(chunk_size) until it returns b"".

    The length filter is left to the caller, which applies it once per
    distinct word.
    """
    if config.token_rule == "whitespace":
        split, in_token = str.split, lambda c: not c.isspace()
    else:
        split, in_token = _WORD_RE.findall, _WORD_RE.match
    decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
    carry = ""  # the last word of the text so far, which may go on
    while True:
        raw = read(chunk_size)
        text = decoder.decode(raw, not raw)
        tokens = split(text)
        if carry:
            # joined to the chunk's first word only, so a long word is
            # not scanned again with every chunk
            if text and in_token(text[0]):
                tokens[0] = carry + tokens[0]
            else:
                tokens.insert(0, carry)
            carry = ""
        if raw and tokens and (not text or in_token(text[-1])):
            carry = tokens.pop()
        counts.update(map(str.casefold, tokens) if config.lowercase else tokens)
        if not raw:
            return


def _parallel_ranges(f: BinaryIO) -> list[tuple[int, int]]:
    """The byte ranges in which count_stream counts f, one each in a ``_fork_map`` share.

    Fewer than two means f is counted in this process alone: it is not a
    plain OS file whose bytes are the ones it reads (a pipe, a terminal, an
    in-memory buffer, a gzip, bz2 or lzma reader over a file), has fewer than
    ``PARALLEL_MIN_BYTES`` left, or ``_can_fork`` is false.
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
    if not _can_fork():
        return []
    parts = min(_cpu_count(), (info.st_size - start) // (PARALLEL_MIN_BYTES // 2), MAX_WORKERS)
    return _byte_ranges(fd, start, info.st_size, parts)


def _can_fork() -> bool:
    """Whether a ``_fork_map`` may start here.

    Not where the platform has no ``fork``, only one CPU is allowed, other
    threads run (a forked child would not have them), this is a daemonic
    ``multiprocessing`` worker, which may not start processes, or a fork map
    already runs in this process.
    """
    if _in_fork_map or not hasattr(os, "fork") or _cpu_count() < 2 or threading.active_count() > 1:
        return False
    mp = sys.modules.get("multiprocessing")  # not imported just to ask
    return mp is None or not mp.current_process().daemon


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _byte_ranges(fd: int, start: int, end: int, parts: int) -> list[tuple[int, int]]:
    """Cut bytes [start, end) of the file fd into at most ``parts`` consecutive ranges.

    Each cut moves forward from an even share of the bytes to the next space
    or newline byte.  That byte is never inside a UTF-8 sequence and ends a
    word under both token rules, so the counts of the ranges sum to the
    count of the whole.  A cut with no such byte in the ``_CUT_SEARCH_BYTES``
    after it is dropped.
    """
    cuts = [start]
    for i in range(1, parts):
        at = max(start + (end - start) * i // parts, cuts[-1] + 1)
        if at >= end:
            break
        found = _CUT_RE.search(os.pread(fd, min(_CUT_SEARCH_BYTES, end - at), at))
        if found:
            cuts.append(at + found.start())
    cuts.append(end)
    return list(zip(cuts, cuts[1:]))


def _count_range(job: tuple[int, int, int, TokenizerConfig, int]) -> Counter[str]:
    """Worker: the words in bytes [start, end) of the file fd, which it has by fork."""
    fd, start, end, config, chunk_size = job
    pos = start

    def read(n: int) -> bytes:
        nonlocal pos
        raw = os.pread(fd, min(n, end - pos), pos)
        pos += len(raw)
        return raw

    counts: Counter[str] = Counter()
    _count_into(counts, read, config, chunk_size)
    return counts


def _fork_map(fn: Callable[[Any], Any], jobs: list[Any], workers: int) -> Iterator[Any]:
    """Yield fn(job) for each job, in job order, computed in ``workers`` processes.

    Forks ``workers - 1`` children.  Child w computes jobs w, w + workers,
    ... and pickles (ok, result or exception) for each into a pipe of its
    own; this process computes jobs 0, workers, ... itself, in turn with
    reading the children's results.  fn and the jobs reach the children by
    fork, so only results and exceptions are pickled.  The first failure in
    job order is raised here, and every child is reaped before this returns
    or raises.  Call it only where ``_can_fork`` holds.
    """
    # imported here, so that importing the CLI does not pay for it
    import pickle

    global _in_fork_map
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
                _in_fork_map = True
                try:
                    result = fn(job)
                finally:
                    _in_fork_map = False
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

    global _in_fork_map
    _in_fork_map = True
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
