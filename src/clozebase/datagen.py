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
class EndingIndex:
    """Story endings by position plus an inverted lemma -> positions map.

    `endings[i]` is the ending of the i-th story the index was built from,
    `position` maps each story id to that i, `by_lemma` holds each ending
    lemma's positions as an array, and `id_rank` gives each position's rank
    in descending story-id order, so that `_top_candidates` ranks with numpy
    alone.
    """

    endings: tuple[str, ...]
    context_lemmas: Mapping[str, frozenset[str]]
    position: Mapping[str, int]
    by_lemma: Mapping[str, np.ndarray] = field(compare=False, repr=False)
    id_rank: np.ndarray = field(compare=False, repr=False)


def _argument_lemmas(texts: Sequence[str], annotator: Annotator) -> frozenset[str]:
    return frozenset(token.lemma.lower() for text in texts
                     for token in annotator(tokenize(text))
                     if coarse_class(token.pos) in _ARGUMENT_CLASSES)


def _positions(stories: Sequence[RocStory]) -> dict[str, int]:
    """Each story id's position; a repeated id is an error."""
    position: dict[str, int] = {}
    for i, story in enumerate(stories):
        if position.setdefault(story.id, i) != i:
            raise ValueError(f"duplicate story id {story.id!r}")
    return position


def build_ending_index(stories: Sequence[RocStory], annotator: Annotator) -> EndingIndex:
    position = _positions(stories)
    by_lemma: dict[str, list[int]] = {}
    context_lemmas: dict[str, frozenset[str]] = {}
    for i, story in enumerate(stories):
        for lemma in _argument_lemmas((story.ending,), annotator):
            by_lemma.setdefault(lemma, []).append(i)
        context_lemmas[story.id] = _argument_lemmas(story.context, annotator)
    id_rank = np.empty(len(stories), dtype=np.int64)
    id_rank[[position[i] for i in sorted(position, reverse=True)]] = np.arange(len(stories))
    return EndingIndex(
        endings=tuple(story.ending for story in stories),
        context_lemmas=context_lemmas,
        position=position,
        by_lemma={k: np.array(v, dtype=np.int64) for k, v in by_lemma.items()},
        id_rank=id_rank,
    )


def check_generation(stories: Sequence[RocStory], k: int,
                     pool: int | None = None) -> None:
    """The ValueError that refuses to generate k wrong endings per story
    (from a `pool` of candidates, when one is given)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if pool is not None and pool < k:
        raise ValueError(f"pool ({pool}) must be at least k ({k})")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to pick wrong endings")


def _generate(stories: Sequence[RocStory], strategy: str, rng_key: str,
              wrong: Callable[[int, RocStory, random.Random], list[str]],
              k: int, pool: int | None = None) -> list[ClozeInstance]:
    """One instance per wrong ending of each story, numbered from 1.

    Each story gets its own `random.Random` seeded from `rng_key` and its id.
    `wrong(position, story, rng)` draws on it first; then one coin flip per
    wrong ending, in order, picks which slot the real ending takes.
    """
    check_generation(stories, k, pool)
    _positions(stories)
    instances = []
    for p, story in enumerate(stories):
        rng = random.Random(f"{rng_key}:{story.id}")
        context = story.context     # one tuple, shared by the story's instances
        for j, ending in enumerate(wrong(p, story, rng), start=1):
            if rng.random() < 0.5:
                ending1, ending2, gold = story.ending, ending, ENDING1
            else:
                ending1, ending2, gold = ending, story.ending, ENDING2
            instances.append(ClozeInstance(
                id=f"{story.id}-{strategy}-{j}", context=context,
                ending1=ending1, ending2=ending2, gold=gold))
    return instances


def gen_random(stories: Sequence[RocStory], k: int, seed: int) -> list[ClozeInstance]:
    """k instances per story with wrong endings sampled uniformly from other stories."""
    # Sampling from range(n - 1) picks what sampling the list of the other
    # n - 1 endings would: random.sample and choice see only the length.
    others = range(len(stories) - 1)

    def wrong(p: int, story: RocStory, rng: random.Random) -> list[str]:
        if k <= len(others):
            chosen = rng.sample(others, k)
        else:
            chosen = list(others)
            chosen += [rng.choice(others) for _ in range(k - len(others))]
        return [stories[i + (i >= p)].ending for i in chosen]   # skip own slot

    return _generate(stories, "random", f"random:{seed}", wrong, k)


def _top_candidates(story_id: str, index: EndingIndex, limit: int) -> list[int]:
    """Positions of the first `limit` other endings in (-overlap, story id)
    order, where overlap counts the lemmas shared with the story's context.

    Scores come from one bincount over the context lemmas' `by_lemma`
    arrays; the key score * n + id_rank is unique per position, so the
    `limit` largest keys, sorted descending, are exactly that order, without
    sorting all N - 1. A story the index was not built from is a ValueError.
    """
    if story_id not in index.position:
        raise ValueError(f"story {story_id!r} is not in the ending index")
    n = len(index.endings)
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
    """k instances per story using the top-overlap endings (deterministic choice).
    When k exceeds the corpus, every available ending is used once."""
    def wrong(p: int, story: RocStory, rng: random.Random) -> list[str]:
        return [index.endings[i] for i in _top_candidates(story.id, index, k)]

    return _generate(stories, "shared", "shared", wrong, k)


def gen_random_coherent(stories: Sequence[RocStory], index: EndingIndex,
                        pool: int, k: int, seed: int) -> list[ClozeInstance]:
    """k instances per story sampled from each story's `pool` best-overlap endings."""
    def wrong(p: int, story: RocStory, rng: random.Random) -> list[str]:
        top = _top_candidates(story.id, index, pool)
        return [index.endings[i] for i in rng.sample(top, min(k, len(top)))]

    return _generate(stories, "coherent", f"coherent:{seed}", wrong, k, pool)


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
