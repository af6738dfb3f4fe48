"""Embedding-based feature extraction for two-ending story classification.

Feature blocks, all derived from a word-embedding table:

* centroids of the story and of each candidate ending
* plain cosine similarity between story and ending centroids
* maximized similarity: mean of the top-N per-word cosines against the
  ending centroid, N in {1, 2, 3, 5}
* maximized aligned similarity: mean over story words of the best pairwise
  cosine with any ending word
* 25 part-of-speech pair similarities over {noun, verb, adj, adv, pronoun}^2

The `all` config keeps every block; each named config for the ablations is
a mask over that layout, the set of blocks it keeps, so its names and values
are a subsequence of `all`'s. Scaling maps every feature into [0, 1] with
train-set min/max.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .annotate import AnnotatedToken, Annotator, CoarseClass, coarse_class, tokenize
from .corpus import ClozeInstance
from .embeddings import (EmbeddingTable, cosine_normed, lookup, mean_vector,
                         vector_norm)
from .errors import ParseError

MAX_SIM_TOPNS = (1, 2, 3, 5)
POS_CLASSES = (CoarseClass.NOUN, CoarseClass.VERB, CoarseClass.ADJ,
               CoarseClass.ADV, CoarseClass.PRONOUN)


class FeatureConfig(enum.Enum):
    ALL = "all"
    ALL_WO_POS_SIM = "all-wo-pos-sim"
    ALL_WO_MAX_SIM = "all-wo-max-sim"
    ALL_WO_SIM = "all-wo-sim"
    REPR_PLUS_SIM = "repr-plus-sim"
    ENDINGS_ONLY = "endings-only"
    SIMS_ONLY = "sims-only"


class Block(enum.Enum):
    """A block of the `all` layout; a config is the set of blocks it keeps."""
    STORY_CENTROID = "story-centroid"
    ENDING_CENTROIDS = "ending-centroids"
    PLAIN_SIM = "plain-sim"
    MAX_SIM = "max-sim"
    ALIGNED_SIM = "aligned-sim"
    POS_SIM = "pos-sim"


_CENTROIDS = frozenset({Block.STORY_CENTROID, Block.ENDING_CENTROIDS})
_SIM_SUFFIXES = {
    Block.PLAIN_SIM: ("sim",),
    Block.MAX_SIM: tuple(f"maxsim_top{n}" for n in MAX_SIM_TOPNS),
    Block.ALIGNED_SIM: ("alignedsim",),
    Block.POS_SIM: tuple(f"possim_{cs.value}_{ce.value}"
                         for cs in POS_CLASSES for ce in POS_CLASSES),
}
# The `all` layout as (block, text) slots; text 0 is the story, k ending k.
_LAYOUT = ((Block.STORY_CENTROID, 0), (Block.ENDING_CENTROIDS, 1),
           (Block.ENDING_CENTROIDS, 2),
           *((block, k) for k in (1, 2) for block in _SIM_SUFFIXES))

_ALL = frozenset(Block)
CONFIG_BLOCKS: dict[FeatureConfig, frozenset[Block]] = {
    FeatureConfig.ALL: _ALL,
    FeatureConfig.ALL_WO_POS_SIM: _ALL - {Block.POS_SIM},
    # "without maximized similarity" drops the aligned variant too.
    FeatureConfig.ALL_WO_MAX_SIM: _ALL - {Block.MAX_SIM, Block.ALIGNED_SIM},
    FeatureConfig.ALL_WO_SIM: _ALL - {Block.PLAIN_SIM},
    FeatureConfig.REPR_PLUS_SIM: _CENTROIDS | {Block.PLAIN_SIM},
    FeatureConfig.ENDINGS_ONLY: frozenset({Block.ENDING_CENTROIDS}),
    FeatureConfig.SIMS_ONLY: _ALL - _CENTROIDS,
}


@functools.cache
def feature_names(config: FeatureConfig, dim: int) -> tuple[str, ...]:
    """The `all` layout's names at width `dim` that the config keeps; one
    tuple per (config, dim), shared by every vector of the layout."""
    centroid = [f"centroid_{i}" for i in range(dim)]
    return tuple(f"{('story', 'e1', 'e2')[k]}_{suffix}"
                 for block, k in _LAYOUT if block in CONFIG_BLOCKS[config]
                 for suffix in _SIM_SUFFIXES.get(block, centroid))


def config_for_layout(names: Sequence[str]) -> tuple[FeatureConfig, int] | None:
    """The config and width whose layout is exactly `names`, else None; a
    layout without centroids is every width's and gets width 0."""
    names = tuple(names)
    dim = sum(name.startswith("e1_centroid_") for name in names)
    for config in FeatureConfig:
        if ((dim > 0) == bool(CONFIG_BLOCKS[config] & _CENTROIDS)
                and names == feature_names(config, dim)):
            return config, dim
    return None


@dataclass(frozen=True)
class FeatureVector:
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.names) != self.values.shape[0]:
            raise ValueError(
                f"{len(self.names)} names but {self.values.shape[0]} values")


_Word = tuple[np.ndarray, float]    # a vector and its norm


class _Text(NamedTuple):
    """A token sequence looked up once.

    `words` are the in-vocabulary vectors with their norms, in token order;
    `unique` holds each distinct vector once and `slots[i]` is the index in
    `unique` of `words[i]`, so a per-word score is computed once per
    distinct vector. `center` is the centroid with its norm.
    """
    words: list[_Word]
    unique: list[_Word]
    slots: list[int]
    center: _Word


def _resolver(table: EmbeddingTable) -> Callable[[str], _Word | None]:
    """`lookup` plus the vector's norm, memoized per token string."""
    memo: dict[str, _Word | None] = {}

    def resolve(token: str) -> _Word | None:
        if token in memo:
            return memo[token]
        vec = lookup(table, token)
        if vec is not None:     # float64, as `cosine_normed` takes; a no-op on float64
            vec = np.asarray(vec, dtype=np.float64)
        word = memo[token] = None if vec is None else (vec, vector_norm(vec))
        return word
    return resolve


def _center(vectors: Sequence[np.ndarray], dim: int) -> _Word:
    vec = mean_vector(vectors, dim)
    return vec, vector_norm(vec)


def _text(tokens: Sequence[str], resolve: Callable[[str], _Word | None],
          dim: int) -> _Text:
    words = [word for word in map(resolve, tokens) if word is not None]
    unique = list({id(word[0]): word for word in words}.values())
    slot_of = {id(word[0]): slot for slot, word in enumerate(unique)}
    slots = [slot_of[id(word[0])] for word in words]
    return _Text(words, unique, slots, _center([word[0] for word in words], dim))


def _plain_sim(story: _Text, ending: _Text) -> float:
    return cosine_normed(*story.center, *ending.center)


def _max_sims(story: _Text, ending: _Text,
              topns: Sequence[int]) -> list[float]:
    if not story.words:
        return [0.0] * len(topns)
    per_vector = [cosine_normed(vec, norm, *ending.center)
                  for vec, norm in story.unique]
    scores = [per_vector[slot] for slot in story.slots]
    scores.sort(reverse=True)
    return [float(sum(top) / len(top)) for top in (scores[:n] for n in topns)]


def _aligned_sim(story: _Text, ending: _Text) -> float:
    if not story.words or not ending.words:
        return 0.0
    per_vector = [max([cosine_normed(vec, norm, other, other_norm)
                       for other, other_norm in ending.words])
                  for vec, norm in story.unique]
    best = [per_vector[slot] for slot in story.slots]
    return float(sum(best) / len(best))


def _class_centers(annotated: Sequence[AnnotatedToken],
                   resolve: Callable[[str], _Word | None], dim: int) -> list[_Word]:
    """The centroid of each class in POS_CLASSES, with its norm."""
    members: dict[CoarseClass, list[np.ndarray]] = {cls: [] for cls in POS_CLASSES}
    for tok in annotated:
        vectors = members.get(coarse_class(tok.pos))
        word = None if vectors is None else resolve(tok.surface)
        if word is not None:
            vectors.append(word[0])
    return [_center(members[cls], dim) for cls in POS_CLASSES]


def _pos_sims(story_centers: Sequence[_Word],
              ending_centers: Sequence[_Word]) -> list[float]:
    return [cosine_normed(*cs, *ce) for cs in story_centers for ce in ending_centers]


def sim_story_ending(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                     table: EmbeddingTable) -> float:
    resolve = _resolver(table)
    return _plain_sim(_text(story_tokens, resolve, table.dim),
                      _text(ending_tokens, resolve, table.dim))


def max_sim_topn(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                 table: EmbeddingTable, n: int) -> float:
    """Mean of the n best per-story-word cosines with the ending centroid."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    resolve = _resolver(table)
    return _max_sims(_text(story_tokens, resolve, table.dim),
                     _text(ending_tokens, resolve, table.dim), (n,))[0]


def aligned_sim(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                table: EmbeddingTable) -> float:
    """Mean over story words of the best pairwise cosine with any ending word."""
    resolve = _resolver(table)
    return _aligned_sim(_text(story_tokens, resolve, table.dim),
                        _text(ending_tokens, resolve, table.dim))


def pos_sims(story_annotated: Sequence[AnnotatedToken],
             ending_annotated: Sequence[AnnotatedToken],
             table: EmbeddingTable) -> list[float]:
    """Cosine for each ordered (story class, ending class) pair; 25 values."""
    resolve = _resolver(table)
    return _pos_sims(_class_centers(story_annotated, resolve, table.dim),
                     _class_centers(ending_annotated, resolve, table.dim))


def _extract_blocks(instance: ClozeInstance, table: EmbeddingTable,
                    annotator: Annotator | None,
                    blocks: frozenset[Block]) -> np.ndarray:
    """The values of `blocks` in `all`'s order, each token looked up once and
    the story side built once for both endings; bit-equal to the block
    functions'."""
    if Block.POS_SIM in blocks and annotator is None:
        raise ValueError("part-of-speech similarities need annotations, but "
                         "no annotator was given")
    dim = table.dim
    resolve = _resolver(table)
    story_sentences = [tokenize(s) for s in instance.context]
    ending_tokens = (tokenize(instance.ending1), tokenize(instance.ending2))
    texts = [_text(tokens, resolve, dim) for tokens in
             ([tok for sent in story_sentences for tok in sent], *ending_tokens)]
    if Block.POS_SIM in blocks:
        classes = [_class_centers(annotated, resolve, dim) for annotated in (
            [tok for sent in story_sentences for tok in annotator(sent)],
            *map(annotator, ending_tokens))]
    values: dict[Block, Callable[[int], np.ndarray | list[float]]] = {
        Block.STORY_CENTROID: lambda k: texts[k].center[0],
        Block.ENDING_CENTROIDS: lambda k: texts[k].center[0],
        Block.PLAIN_SIM: lambda k: [_plain_sim(texts[0], texts[k])],
        Block.MAX_SIM: lambda k: _max_sims(texts[0], texts[k], MAX_SIM_TOPNS),
        Block.ALIGNED_SIM: lambda k: [_aligned_sim(texts[0], texts[k])],
        Block.POS_SIM: lambda k: _pos_sims(classes[0], classes[k]),
    }
    return np.concatenate([values[block](k) for block, k in _LAYOUT
                           if block in blocks])


def extract(instance: ClozeInstance, table: EmbeddingTable,
            annotator: Annotator | None, config: FeatureConfig) -> FeatureVector:
    """Compute the blocks the config keeps for one instance, in layout order."""
    return FeatureVector(feature_names(config, table.dim), _extract_blocks(
        instance, table, annotator, CONFIG_BLOCKS[config]))


def extract_matrix(instances: Sequence[ClozeInstance], table: EmbeddingTable,
                   annotator: Annotator | None, configs: Sequence[FeatureConfig]
                   ) -> tuple[np.ndarray, dict[FeatureConfig, np.ndarray]]:
    """Extract every block some config keeps, one row per instance, and
    give each config's columns: `matrix[:, columns[config]]` is what
    `extract` gives for that config, to the bit."""
    blocks = frozenset().union(*(CONFIG_BLOCKS[c] for c in configs))
    kept = set().union(*(feature_names(c, table.dim) for c in configs))
    index = {name: column for column, name in enumerate(
        n for n in feature_names(FeatureConfig.ALL, table.dim) if n in kept)}
    columns = {c: np.array([index[n] for n in feature_names(c, table.dim)])
               for c in configs}
    matrix = np.empty((len(instances), len(index)))
    for row, instance in zip(matrix, instances):
        row[:] = _extract_blocks(instance, table, annotator, blocks)
    return matrix, columns


@dataclass(frozen=True)
class Scaler:
    names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.names) == self.mins.shape[0] == self.maxs.shape[0]):
            raise ValueError("scaler names/mins/maxs lengths differ")
        if np.any(self.maxs < self.mins):
            raise ValueError("scaler has max < min")


def fit_scaler(train: Sequence[FeatureVector]) -> Scaler:
    if not train:
        raise ValueError("cannot fit a scaler on an empty training set")
    names = train[0].names
    matrix = np.stack([v.values for v in train])
    return Scaler(names=names, mins=matrix.min(axis=0), maxs=matrix.max(axis=0))


def min_max_scale(scaler: Scaler, values: np.ndarray) -> np.ndarray:
    """Scale a row, or each row of a matrix, element-wise into [0,1];
    constant features map to 0; unseen values clamp."""
    span = scaler.maxs - scaler.mins
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (values - scaler.mins) / span
    return np.clip(np.where(span == 0, 0.0, scaled), 0.0, 1.0)


def apply_scaler(scaler: Scaler, vector: FeatureVector) -> FeatureVector:
    """`min_max_scale` of a vector of the scaler's layout."""
    if vector.names != scaler.names:
        raise ValueError("feature layout does not match the scaler")
    return FeatureVector(vector.names, min_max_scale(scaler, vector.values))


def save_features(path: str | Path, vectors: Sequence[FeatureVector],
                  labels: Sequence[int]) -> None:
    """Text matrix: header of names, then value rows with the label last."""
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
    if not vectors:
        raise ValueError("nothing to save")
    names = vectors[0].names
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        for vector, label in zip(vectors, labels):
            if vector.names != names:
                raise ValueError("inconsistent feature layout across vectors")
            if label not in (1, 2):
                raise ValueError(f"label must be 1 or 2, got {label!r}")
            row = [repr(float(x)) for x in vector.values]
            row.append(str(label))
            handle.write(",".join(row) + "\n")


def load_features(path: str | Path) -> tuple[list[FeatureVector], list[int]]:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty feature file")
    if len(lines) == 1:
        raise ParseError(f"{path}: no feature rows after the header")
    names = tuple(lines[0].split(","))
    vectors: list[FeatureVector] = []
    labels: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(names) + 1:
            raise ParseError(f"{path}: line {lineno}: expected "
                             f"{len(names) + 1} columns, got {len(fields)}")
        if fields[-1] not in ("1", "2"):
            raise ParseError(f"{path}: line {lineno}: label must be 1 or 2, "
                             f"got {fields[-1]!r}")
        try:
            values = np.asarray([float(x) for x in fields[:-1]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParseError(f"{path}: line {lineno}: non-finite value in "
                             f"column {names[bad[0]]}")
        vectors.append(FeatureVector(names=names, values=values))
        labels.append(int(fields[-1]))
    return vectors, labels
