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
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
    """Per-story ending lemma sets plus an inverted lemma -> entries map."""

    entries: tuple[EndingEntry, ...]
    by_lemma: Mapping[str, tuple[EndingEntry, ...]]
    context_lemmas: Mapping[str, frozenset[str]]


def _argument_lemmas(text: str, annotator: Annotator) -> frozenset[str]:
    lemmas = set()
    for token in annotator(tokenize(text)):
        if coarse_class(token.pos) in _ARGUMENT_CLASSES:
            lemmas.add(token.lemma.lower())
    return frozenset(lemmas)


def build_ending_index(stories: Sequence[RocStory], annotator: Annotator) -> EndingIndex:
    entries = []
    by_lemma: dict[str, list[EndingEntry]] = {}
    context_lemmas: dict[str, frozenset[str]] = {}
    for story in stories:
        entry = EndingEntry(
            story_id=story.id,
            ending=story.ending,
            lemmas=_argument_lemmas(story.ending, annotator),
        )
        entries.append(entry)
        for lemma in entry.lemmas:
            by_lemma.setdefault(lemma, []).append(entry)
        ctx = set()
        for sentence in story.context:
            ctx |= _argument_lemmas(sentence, annotator)
        context_lemmas[story.id] = frozenset(ctx)
    return EndingIndex(
        entries=tuple(entries),
        by_lemma={k: tuple(v) for k, v in by_lemma.items()},
        context_lemmas=context_lemmas,
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
    instances = []
    for story in stories:
        rng = random.Random(f"random:{seed}:{story.id}")
        others = [s.ending for s in stories if s.id != story.id]
        if k <= len(others):
            chosen = rng.sample(others, k)
        else:
            chosen = list(others)
            while len(chosen) < k:
                chosen.append(rng.choice(others))
        for j, wrong in enumerate(chosen, start=1):
            instances.append(_place_endings(story, wrong, j, "random", rng))
    return instances


def _ranked_candidates(story: RocStory, index: EndingIndex) -> list[EndingEntry]:
    """All other stories' endings, best lemma overlap first, ties by story id."""
    ctx = index.context_lemmas[story.id]
    scores: dict[str, int] = {}
    for lemma in ctx:
        for entry in index.by_lemma.get(lemma, ()):
            if entry.story_id != story.id:
                scores[entry.story_id] = scores.get(entry.story_id, 0) + 1
    ranked = [e for e in index.entries if e.story_id != story.id]
    ranked.sort(key=lambda e: (-scores.get(e.story_id, 0), e.story_id))
    return ranked


def gen_shared_args(stories: Sequence[RocStory], index: EndingIndex, k: int) -> list[ClozeInstance]:
    """k instances per story using the top-overlap endings (deterministic choice)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(stories) < 2:
        raise ValueError("need at least 2 stories to pick wrong endings")
    instances = []
    for story in stories:
        rng = random.Random(f"shared:{story.id}")
        ranked = _ranked_candidates(story, index)
        # When k exceeds the corpus, every available ending is used once.
        chosen = [e.ending for e in ranked[:k]]
        for j, wrong in enumerate(chosen, start=1):
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
        ranked = _ranked_candidates(story, index)[:pool]
        chosen = [e.ending for e in rng.sample(ranked, min(k, len(ranked)))]
        for j, wrong in enumerate(chosen, start=1):
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
