"""Seeded inputs for the benchmark, with the answers worked out independently.

The text generator samples word ranks from a truncated Zipf(1) law and
writes each token in one of three cases (lower, Capitalized, UPPER) between
punctuation and whitespace separators.  Every word is a run of letters that
``str.casefold`` maps back to its lowercase form, and every separator holds
no word character, so the tokenizer must recover exactly the sampled ranks:
the expected counts are the sampled counts.  Nothing here imports zipfent.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# Letters whose upper case is one character that case-folds back to them;
# that makes every case variant of a word count as the same word.  The three
# scripts differ in cost: CPython stores a word in 1 byte per character
# unless it holds a letter above U+00FF, and UTF-8 spends 2 bytes on each
# non-ASCII letter.
_SCRIPTS = (
    ("abcdefghijklmnopqrstuvwxyz", 0.80),
    ("àéèêëíñóöøúüçåæðþ", 0.12),
    ("œαβγδεζηθκλμνπρτφχωбгджзклмнптфшюя", 0.08),
)
_WORD_CHAR = re.compile(r"\w")


def _casefold_closed(c: str) -> bool:
    up = c.upper()
    return (
        c.casefold() == c
        and len(up) == 1
        and up.casefold() == c
        and up.lower() == c
        and _WORD_CHAR.match(c) is not None
    )


if not all(_casefold_closed(c) for letters, _ in _SCRIPTS for c in letters):
    raise RuntimeError("letter table is not closed under casefold")

# (separator, weight); none holds a word character.
_SEPARATORS = (
    (" ", 60), (", ", 10), (". ", 8), ("\n", 6), ("; ", 3), (": ", 2),
    (" — ", 2), ("! ", 2), ("? ", 2), (" (", 1), (") ", 1), ("\" ", 1), (" « ", 1), (" » ", 1),
)
if any(_WORD_CHAR.search(s) for s, _ in _SEPARATORS):
    raise RuntimeError("a separator holds a word character")

# Case variant shares: lower, Capitalized, UPPER.
_CASE_WEIGHTS = (0.85, 0.10, 0.05)


@dataclass(frozen=True)
class TextStats:
    """What a correct ``analyze`` must report for one generated text."""

    n_tokens: int
    vocab_size: int
    max_frequency: int
    distinct_k: int
    k_max: int
    entropy_nats: float

    @classmethod
    def from_counts(cls, counts: list[int]) -> "TextStats":
        n = sum(counts)
        return cls(
            n_tokens=n,
            vocab_size=len(counts),
            max_frequency=max(counts),
            distinct_k=len(set(counts)),
            k_max=max(counts),
            entropy_nats=math.fsum(-(c / n) * math.log(c / n) for c in counts),
        )


def _word_forms(seed: int, ranks: int) -> list[str]:
    """One distinct lowercase word per rank.

    The shape of the word at each rank (its length and the script of each
    letter) is the same for every seed, so the cost of the text does not
    depend on the seed; the seed picks the letters.  Frequent words are
    short: 2 to 4 letters at rank 0, up to 10 near rank 200k.
    """
    shape_rng = np.random.default_rng(0)
    lengths = 2 + (np.log(np.arange(1, ranks + 1)) / math.log(8) + 1e-9).astype(np.int64)
    lengths += shape_rng.integers(0, 3, ranks)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    script = shape_rng.choice(len(_SCRIPTS), size=int(ends[-1]), p=[w for _, w in _SCRIPTS])
    alphabet = np.array(list("".join(letters for letters, _ in _SCRIPTS)))
    sizes = np.array([len(letters) for letters, _ in _SCRIPTS])
    offsets = np.cumsum(sizes) - sizes
    letter_rng = np.random.default_rng(seed)

    def draw(pos):
        return offsets[script[pos]] + (letter_rng.random(len(pos)) * sizes[script[pos]]).astype(np.int64)

    codes = draw(np.arange(len(script)))
    while True:
        text = "".join(alphabet[codes].tolist())
        forms = [text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
        first: dict[str, int] = {}
        repeats = [r for r, w in enumerate(forms) if first.setdefault(w, r) != r]
        if not repeats:
            return forms
        # Redraw the letters of each rank whose word an earlier rank has.
        pos = np.concatenate([np.arange(starts[r], ends[r]) for r in repeats])
        codes[pos] = draw(pos)


class ZipfText:
    """Word forms and a Zipf(1) rank sampler over a vocabulary of ``ranks`` words."""

    def __init__(self, seed: int, ranks: int):
        self._rng = np.random.default_rng(seed)
        forms = _word_forms(seed, ranks)
        variants = []
        for w in forms:
            variants += [w, w[0].upper() + w[1:], w.upper()]
        self._variants = np.array(variants, dtype=object)
        self._seps = np.array([s for s, _ in _SEPARATORS], dtype=object)
        sep_w = np.array([w for _, w in _SEPARATORS], dtype=float)
        self._sep_p = sep_w / sep_w.sum()
        weights = 1.0 / np.arange(1, ranks + 1)
        self._cdf = np.cumsum(weights) / weights.sum()
        self.ranks = ranks

    def sample(self, n: int) -> np.ndarray:
        idx = np.searchsorted(self._cdf, self._rng.random(n), side="right")
        return np.minimum(idx, self.ranks - 1)

    def render(self, ranks: np.ndarray) -> bytes:
        """UTF-8 text whose tokens are the given ranks, in order."""
        n = len(ranks)
        case = self._rng.choice(3, size=n, p=_CASE_WEIGHTS)
        parts = np.empty(2 * n, dtype=object)
        parts[0::2] = self._variants[ranks * 3 + case]
        parts[1::2] = self._seps[self._rng.choice(len(self._seps), size=n, p=self._sep_p)]
        return "".join(parts.tolist()).encode("utf-8")


def write_zipf_text(path, seed: int, n_tokens: int, ranks: int, chunk: int = 500_000) -> TextStats:
    """Write one Zipf(1)-sampled text of exactly ``n_tokens`` tokens; return its stats."""
    gen = ZipfText(seed, ranks)
    counts = np.zeros(ranks, dtype=np.int64)
    with open(path, "wb") as f:
        done = 0
        while done < n_tokens:
            idx = gen.sample(min(chunk, n_tokens - done))
            counts += np.bincount(idx, minlength=ranks)
            f.write(gen.render(idx))
            done += len(idx)
    return TextStats.from_counts(counts[counts > 0].tolist())


def write_zipf_files(paths, seed: int, n_tokens: int, ranks: int) -> list[TextStats]:
    """Write one Zipf(1)-sampled text of ``n_tokens`` tokens per path; return their stats."""
    gen = ZipfText(seed, ranks)
    stats = []
    for path in paths:
        idx = gen.sample(n_tokens)
        with open(path, "wb") as f:
            f.write(gen.render(idx))
        stats.append(TextStats.from_counts(np.unique(idx, return_counts=True)[1].tolist()))
    return stats


def law_k_max(a: float, b: float) -> int:
    """Largest k with e^b k^-a >= 1."""
    eb = math.exp(b)
    k = max(1, math.floor(math.exp(b / a)))
    while eb * (k + 1) ** -a >= 1.0:
        k += 1
    while k > 1 and eb * k ** -a < 1.0:
        k -= 1
    return k


def exact_law_tokens(a: float, b: float) -> tuple[int, float]:
    """(k_max, N) of the exact law: N = fsum over k of e^b k^(1-a)."""
    k_max = law_k_max(a, b)
    eb = math.exp(b)
    return k_max, math.fsum(eb * k ** (1 - a) for k in range(1, k_max + 1))


def rounded_law_corpus(a: float, b: float) -> tuple[int, int, int]:
    """(k_max, tokens, distinct words) of the rounded-law corpus:
    tokens = sum k round(e^b k^-a), words = sum round(e^b k^-a), rounding half up."""
    k_max = law_k_max(a, b)
    eb = math.exp(b)
    tokens = words = 0
    for k in range(1, k_max + 1):
        f = math.floor(eb * k ** -a + 0.5)
        tokens += k * f
        words += f
    return k_max, tokens, words
