"""Shared fixtures: a synthetic embedding table and corpus generators.

The vocabulary is chosen so the heuristic tagger assigns every coarse class
(nouns, verbs, adjectives, adverbs, pronouns) and so random sentences mix
in-vocabulary and out-of-vocabulary tokens.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from clozebase.corpus import ClozeInstance, RocStory
from clozebase.embeddings import make_table

# 50 tokens spanning all coarse classes under the heuristic tagger.
VOCAB = (
    "she", "he", "they", "it", "her", "him",                    # pronouns
    "dog", "cat", "beach", "ocean", "pizza", "house", "car",    # nouns
    "park", "store", "ball", "waves", "dogs", "friend", "game",
    "school", "coffee", "morning", "team",
    "walked", "played", "jumped", "wanted", "liked", "smiled",  # verbs
    "runs", "eating", "running", "looked", "went", "was",
    "beautiful", "famous", "nervous", "careful",                # adjectives
    "quickly", "slowly", "really", "loudly",                    # adverbs
    "the", "a", "to", "and", "at", "very",                      # function words
)

EMBED_DIM = 16


def build_table(dim: int = EMBED_DIM, seed: int = 12345):
    rng = np.random.default_rng(seed)
    entries = {word: rng.standard_normal(dim) for word in VOCAB}
    return make_table(entries, dim)


@pytest.fixture(scope="session")
def table():
    return build_table()


def random_sentence(rng: random.Random, min_len: int = 4, max_len: int = 8) -> str:
    n = rng.randint(min_len, max_len)
    words = [rng.choice(VOCAB) for _ in range(n)]
    if rng.random() < 0.3:
        words[rng.randrange(n)] = "zzqx" + str(rng.randint(0, 9))  # OOV token
    return " ".join(words) + "."


def make_instance(rng: random.Random, idx: int, labeled: bool = True) -> ClozeInstance:
    return ClozeInstance(
        id=f"inst-{idx:03d}",
        context=tuple(random_sentence(rng) for _ in range(4)),
        ending1=random_sentence(rng),
        ending2=random_sentence(rng),
        gold=rng.choice((1, 2)) if labeled else None,
    )


def make_instances(n: int, seed: int = 7, labeled: bool = True) -> list[ClozeInstance]:
    rng = random.Random(seed)
    return [make_instance(rng, i, labeled=labeled) for i in range(n)]


@pytest.fixture(scope="session")
def instances50():
    return make_instances(50)


def make_stories(n: int, seed: int = 11) -> list[RocStory]:
    rng = random.Random(seed)
    stories = []
    for i in range(n):
        sentences = tuple(random_sentence(rng) for _ in range(4))
        # distinct endings so "paired with its own ending" is detectable
        ending = random_sentence(rng)[:-1] + f" ending{i:03d}."
        stories.append(RocStory(
            id=f"story-{i:03d}",
            title=f"Title {i}",
            sentences=sentences + (ending,),
        ))
    return stories


@pytest.fixture(scope="session")
def stories50():
    return make_stories(50)


def write_sidecar(path, blocks) -> None:
    """Write annotated sentences as an external tagger's sidecar file: one
    surface<TAB>pos<TAB>lemma line per token, a blank line between sentences."""
    path.write_text("\n".join(
        "".join(f"{tok.surface}\t{tok.pos}\t{tok.lemma}\n" for tok in block)
        for block in blocks), encoding="utf-8")
