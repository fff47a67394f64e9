"""Tokenization and word-frequency counting for pooled text corpora.

All words from all inputs are pooled into a single corpus; there is no
per-document bookkeeping.  ``count_stream`` is the ingestion path for files:
it counts them chunk by chunk, so memory grows with the vocabulary, not with
the input.  Tables are immutable once built and safe to share across
threads; ``merge`` sums them and is insensitive to the order of its
arguments.
"""

from __future__ import annotations

import codecs
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable

TOKEN_RULES = ("unicode_words", "whitespace")

# Runs of Unicode word characters (letters, digits, underscore).
_WORD_RE = re.compile(r"\w+")

# Bytes read per chunk by count_stream.
CHUNK_SIZE = 1 << 20


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
    """
    if config.token_rule == "whitespace":
        split, in_token = str.split, lambda c: not c.isspace()
    else:
        split, in_token = _WORD_RE.findall, _WORD_RE.match
    if chunk_size is None:
        chunk_size = CHUNK_SIZE
    counts: Counter[str] = Counter()
    for f in files:
        decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
        carry = ""  # the last word of the text so far, which may go on
        while True:
            raw = f.read(chunk_size)
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
                break
    if config.min_token_length > 1:
        n = config.min_token_length
        return FrequencyTable.from_counts({w: c for w, c in counts.items() if len(w) >= n})
    return FrequencyTable.from_counts(counts)
