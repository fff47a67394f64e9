import random

from hypothesis import settings

# A longer search for the property tests, selected with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=2000)


def random_tokens(rng: random.Random, max_tokens: int = 100, alphabet: int = 12) -> list[str]:
    """Random corpus over a small alphabet; at least one token."""
    words = [f"t{i}" for i in range(alphabet)]
    return [rng.choice(words) for _ in range(rng.randint(1, max_tokens))]
