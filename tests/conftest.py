import random
from collections import Counter

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

    ``corpus._count_groups`` is finished with the last forked child's
    batches added to the group's table, where ``count_spectrum`` folds them
    into F(k).
    """

    def table(g, counts, held):
        for words, ns in held:
            counts.update(dict(zip(words.split(" "), ns, strict=True)))
        return counts

    return corpus._count_groups([list(files)], config, table)[0]
