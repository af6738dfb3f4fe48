"""Training-instance generation from five-sentence stories.

Each generator pairs a story's real ending with a wrong one drawn from the
rest of the corpus and randomizes which slot the real ending lands in. Three
sourcing strategies:

* random        -- uniform over other stories' endings
* shared-args   -- endings ranked by noun/pronoun lemma overlap with the context
* random-coherent -- sample from the top of the shared-args ranking

`consensus_filter` then keeps only instances every supplied predictor labels
correctly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .annotate import Annotator, CoarseClass, coarse_class, tokenize
from .corpus import ENDING1, ENDING2, ClozeInstance, RocStory, gold_labels

Predictor = Callable[[Sequence[ClozeInstance]], list[int]]

_ARGUMENT_CLASSES = (CoarseClass.NOUN, CoarseClass.PRONOUN)


@dataclass(frozen=True)
class EndingEntry:
    story_id: str
    ending: str
    lemmas: frozenset[str]


@dataclass(frozen=True)
class EndingIndex:
    """Per-story ending lemma sets plus an inverted lemma -> entries map.

    `by_lemma` holds each lemma's entries as an array of positions in
    `entries`, `position` maps each story id to its entry's position, and
    `id_rank` gives each entry's rank in descending story-id order, so that
    `_top_candidates` ranks with numpy alone.
    """

    entries: tuple[EndingEntry, ...]
    context_lemmas: Mapping[str, frozenset[str]]
    position: Mapping[str, int]
    by_lemma: Mapping[str, np.ndarray] = field(compare=False, repr=False)
    id_rank: np.ndarray = field(compare=False, repr=False)


def _argument_lemmas(text: str, annotator: Annotator) -> frozenset[str]:
    lemmas = set()
    for token in annotator(tokenize(text)):
        if coarse_class(token.pos) in _ARGUMENT_CLASSES:
            lemmas.add(token.lemma.lower())
    return frozenset(lemmas)


def _positions(stories: Sequence[RocStory]) -> dict[str, int]:
    """Each story id's position; a repeated id is an error."""
    position: dict[str, int] = {}
    for i, story in enumerate(stories):
        if position.setdefault(story.id, i) != i:
            raise ValueError(f"duplicate story id {story.id!r}")
    return position


def build_ending_index(stories: Sequence[RocStory], annotator: Annotator) -> EndingIndex:
    position = _positions(stories)
    entries = []
    by_lemma: dict[str, list[int]] = {}
    context_lemmas: dict[str, frozenset[str]] = {}
    for i, story in enumerate(stories):
        entry = EndingEntry(
            story_id=story.id,
            ending=story.ending,
            lemmas=_argument_lemmas(story.ending, annotator),
        )
        entries.append(entry)
        for lemma in entry.lemmas:
            by_lemma.setdefault(lemma, []).append(i)
        ctx = set()
        for sentence in story.context:
            ctx |= _argument_lemmas(sentence, annotator)
        context_lemmas[story.id] = frozenset(ctx)
    id_rank = np.empty(len(entries), dtype=np.int64)
    id_rank[sorted(range(len(entries)), key=lambda i: entries[i].story_id)] = (
        np.arange(len(entries) - 1, -1, -1))
    return EndingIndex(
        entries=tuple(entries),
        context_lemmas=context_lemmas,
        position=position,
        by_lemma={k: np.array(v, dtype=np.int64) for k, v in by_lemma.items()},
        id_rank=id_rank,
    )


def _place_endings(story: RocStory, wrong: str, j: int, strategy: str,
                   rng: random.Random) -> ClozeInstance:
    """Assemble one labeled instance, coin-flipping which slot is correct."""
    correct_first = rng.random() < 0.5
    if correct_first:
        ending1, ending2, gold = story.ending, wrong, ENDING1
    else:
        ending1, ending2, gold = wrong, story.ending, ENDING2
    return ClozeInstance(
        id=f"{story.id}-{strategy}-{j}",
        context=story.context,
        ending1=ending1,
        ending2=ending2,
        gold=gold,
    )


def gen_random(stories: Sequence[RocStory], k: int, seed: int) -> list[ClozeInstance]:
    """k instances per story with wrong endings sampled uniformly from other stories."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to sample wrong endings")
    _positions(stories)
    # Sampling from range(n - 1) picks what sampling the list of the other
    # n - 1 endings would: random.sample and choice see only the length.
    others = range(len(stories) - 1)
    instances = []
    for p, story in enumerate(stories):
        rng = random.Random(f"random:{seed}:{story.id}")
        if k <= len(others):
            chosen = rng.sample(others, k)
        else:
            chosen = list(others)
            chosen += [rng.choice(others) for _ in range(k - len(others))]
        for j, i in enumerate(chosen, start=1):
            wrong = stories[i + (i >= p)].ending   # skip the story's own slot
            instances.append(_place_endings(story, wrong, j, "random", rng))
    return instances


def _top_candidates(story_id: str, index: EndingIndex, limit: int) -> list[int]:
    """Positions of the first `limit` other endings in (-overlap, story id)
    order, where overlap counts the lemmas shared with the story's context.

    Scores come from one bincount over the context lemmas' `by_lemma`
    arrays; the key score * n + id_rank is unique per entry, so the `limit`
    largest keys, sorted descending, are exactly that order, without
    sorting all N - 1.
    """
    n = len(index.entries)
    hits = [index.by_lemma[lemma] for lemma in index.context_lemmas[story_id]
            if lemma in index.by_lemma]
    score = (np.bincount(np.concatenate(hits), minlength=n) if hits
             else np.zeros(n, dtype=np.int64))
    key = score * n + index.id_rank
    key[index.position[story_id]] = -1
    limit = min(limit, n - 1)
    top = np.argpartition(key, n - limit)[n - limit:]
    return top[np.argsort(-key[top])].tolist()


def gen_shared_args(stories: Sequence[RocStory], index: EndingIndex, k: int) -> list[ClozeInstance]:
    """k instances per story using the top-overlap endings (deterministic choice)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to pick wrong endings")
    instances = []
    for story in stories:
        rng = random.Random(f"shared:{story.id}")
        # When k exceeds the corpus, every available ending is used once.
        for j, i in enumerate(_top_candidates(story.id, index, k), start=1):
            wrong = index.entries[i].ending
            instances.append(_place_endings(story, wrong, j, "shared", rng))
    return instances


def gen_random_coherent(stories: Sequence[RocStory], index: EndingIndex,
                        pool: int, k: int, seed: int) -> list[ClozeInstance]:
    """k instances per story sampled from each story's `pool` best-overlap endings."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if pool < k:
        raise ValueError(f"pool ({pool}) must be at least k ({k})")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to pick wrong endings")
    instances = []
    for story in stories:
        rng = random.Random(f"coherent:{seed}:{story.id}")
        top = _top_candidates(story.id, index, pool)
        for j, i in enumerate(rng.sample(top, min(k, len(top))), start=1):
            wrong = index.entries[i].ending
            instances.append(_place_endings(story, wrong, j, "coherent", rng))
    return instances


def consensus_filter(instances: Sequence[ClozeInstance],
                     predictors: Sequence[Predictor]) -> list[ClozeInstance]:
    """Keep only instances all predictors label correctly; each predictor
    sees only the instances every earlier one got right."""
    if not predictors:
        raise ValueError("need at least one predictor")
    gold_labels(instances)
    kept = list(instances)
    for predict in predictors:
        kept = [inst for inst, label in zip(kept, predict(kept), strict=True)
                if label == inst.gold]
    return kept
