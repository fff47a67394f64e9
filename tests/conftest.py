import random
from collections import Counter
from unittest import mock

from hypothesis import settings

from zipfent import corpus

# A longer search for the property tests, selected with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=2000)


def random_tokens(rng: random.Random, max_tokens: int = 100, alphabet: int = 12) -> list[str]:
    """Random corpus over a small alphabet; at least one token."""
    words = [f"t{i}" for i in range(alphabet)]
    return [rng.choice(words) for _ in range(rng.randint(1, max_tokens))]


def chain_ok(diag) -> bool:
    """Whether all four checks of a ChainDiagnostics pass."""
    return all(check.ok for check in (diag.sandwich_lower, diag.sandwich_upper, diag.n_bound, diag.ratio))


def count_table(files, config=corpus.DEFAULT_CONFIG) -> Counter[str]:
    """The word -> count table of files pooled, counted as ``count_spectrum`` counts them.

    Each owner's reduce step, ``corpus._histogram``, returns the table of
    its words of at least n characters in place of the histogram of their
    counts, and ``corpus._spectrum`` returns the sum of those in place of
    F(k): the owners' words are disjoint, so the sum is the group's table.
    """
    def histogram(table, n):
        return Counter({word: k for word, k in table.items() if len(word) >= n})

    with mock.patch.object(corpus, "_histogram", histogram), \
            mock.patch.object(corpus, "_spectrum", lambda tables: sum(tables, Counter()) or None):
        table = corpus._count_groups([list(files)], config, lambda g, table: table)[0]
    return Counter() if table is None else table
