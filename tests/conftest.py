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


def count_table(files, config=corpus.DEFAULT_CONFIG) -> Counter[str]:
    """The word -> count table of files pooled, counted as ``count_spectrum`` counts them.

    Each owner's reduce step, ``corpus._histogram``, returns its words'
    table in place of the histogram of their counts, and the sum of those
    is passed on as it is: the owners' words are disjoint, so the sum is
    the group's table.
    """
    with mock.patch.object(corpus, "_histogram", lambda table: table), \
            mock.patch.object(corpus, "_from_histogram", lambda table: table):
        table = corpus._count_groups([list(files)], config, lambda g, table: table)[0]
    return Counter() if table is None else table
