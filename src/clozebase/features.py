"""Embedding-based feature extraction for two-ending story classification.

Feature blocks, all derived from a word-embedding table:

* centroids of the story and of each candidate ending
* plain cosine similarity between story and ending centroids
* maximized similarity: mean of the top-N per-word cosines against the
  ending centroid, N in {1, 2, 3, 5}
* maximized aligned similarity: mean over story words of the best pairwise
  cosine with any ending word
* 25 part-of-speech pair similarities over {noun, verb, adj, adv, pronoun}^2

A named config gates blocks on and off for ablations. Scaling maps every
feature into [0, 1] with train-set min/max.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .annotate import AnnotatedToken, Annotator, CoarseClass, coarse_class, tokenize
from .corpus import ClozeInstance
from .embeddings import EmbeddingTable, centroid, cosine, lookup
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


@dataclass(frozen=True)
class FeatureFlags:
    repr_story: bool
    repr_endings: bool
    plain_sim: bool
    max_sim: bool
    aligned_sim: bool
    pos_sim: bool


_FLAG_TABLE: dict[FeatureConfig, FeatureFlags] = {
    FeatureConfig.ALL: FeatureFlags(True, True, True, True, True, True),
    FeatureConfig.ALL_WO_POS_SIM: FeatureFlags(True, True, True, True, True, False),
    # "without maximized similarity" drops the aligned variant too.
    FeatureConfig.ALL_WO_MAX_SIM: FeatureFlags(True, True, True, False, False, True),
    FeatureConfig.ALL_WO_SIM: FeatureFlags(True, True, False, True, True, True),
    FeatureConfig.REPR_PLUS_SIM: FeatureFlags(True, True, True, False, False, False),
    FeatureConfig.ENDINGS_ONLY: FeatureFlags(False, True, False, False, False, False),
    FeatureConfig.SIMS_ONLY: FeatureFlags(False, False, True, True, True, True),
}


def flags_for(config: FeatureConfig) -> FeatureFlags:
    return _FLAG_TABLE[config]


def feature_names(config: FeatureConfig, dim: int) -> tuple[str, ...]:
    """The fixed, layout-stable name sequence for a config and embedding width."""
    flags = flags_for(config)
    names: list[str] = []
    if flags.repr_story:
        names.extend(f"story_centroid_{i}" for i in range(dim))
    if flags.repr_endings:
        for k in (1, 2):
            names.extend(f"e{k}_centroid_{i}" for i in range(dim))
    for k in (1, 2):
        if flags.plain_sim:
            names.append(f"e{k}_sim")
        if flags.max_sim:
            names.extend(f"e{k}_maxsim_top{n}" for n in MAX_SIM_TOPNS)
        if flags.aligned_sim:
            names.append(f"e{k}_alignedsim")
        if flags.pos_sim:
            names.extend(f"e{k}_possim_{cs.value}_{ce.value}"
                         for cs in POS_CLASSES for ce in POS_CLASSES)
    return tuple(names)


def feature_length(config: FeatureConfig, dim: int) -> int:
    return len(feature_names(config, dim))


@dataclass(frozen=True)
class FeatureVector:
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.names) != self.values.shape[0]:
            raise ValueError(
                f"{len(self.names)} names but {self.values.shape[0]} values")


def _in_vocab(tokens: Sequence[str], table: EmbeddingTable) -> list[np.ndarray]:
    vectors = []
    for token in tokens:
        vec = lookup(table, token)
        if vec is not None:
            vectors.append(vec)
    return vectors


def sim_story_ending(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                     table: EmbeddingTable) -> float:
    return cosine(centroid(table, story_tokens), centroid(table, ending_tokens))


def max_sim_topn(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                 table: EmbeddingTable, n: int) -> float:
    """Mean of the n best per-story-word cosines with the ending centroid."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ending_centroid = centroid(table, ending_tokens)
    scores = [cosine(vec, ending_centroid) for vec in _in_vocab(story_tokens, table)]
    if not scores:
        return 0.0
    scores.sort(reverse=True)
    top = scores[:min(n, len(scores))]
    return float(sum(top) / len(top))


def aligned_sim(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                table: EmbeddingTable) -> float:
    """Mean over story words of the best pairwise cosine with any ending word."""
    story_vecs = _in_vocab(story_tokens, table)
    ending_vecs = _in_vocab(ending_tokens, table)
    if not story_vecs or not ending_vecs:
        return 0.0
    best = [max(cosine(sv, ev) for ev in ending_vecs) for sv in story_vecs]
    return float(sum(best) / len(best))


def _class_centroid(annotated: Sequence[AnnotatedToken], cls: CoarseClass,
                    table: EmbeddingTable) -> np.ndarray:
    members = [tok.surface for tok in annotated if coarse_class(tok.pos) is cls]
    return centroid(table, members)


def pos_sims(story_annotated: Sequence[AnnotatedToken],
             ending_annotated: Sequence[AnnotatedToken],
             table: EmbeddingTable) -> list[float]:
    """Cosine for each ordered (story class, ending class) pair; 25 values."""
    story_centroids = {cls: _class_centroid(story_annotated, cls, table)
                       for cls in POS_CLASSES}
    ending_centroids = {cls: _class_centroid(ending_annotated, cls, table)
                        for cls in POS_CLASSES}
    return [cosine(story_centroids[cs], ending_centroids[ce])
            for cs in POS_CLASSES for ce in POS_CLASSES]


def extract(instance: ClozeInstance, table: EmbeddingTable,
            annotator: Annotator | None, config: FeatureConfig) -> FeatureVector:
    """Compute the gated feature blocks for one instance, in layout order."""
    flags = flags_for(config)
    if flags.pos_sim and annotator is None:
        raise ValueError(f"config {config.value} needs part-of-speech "
                         "annotations but no annotator was given")

    story_sentences = [tokenize(s) for s in instance.context]
    story_tokens = [tok for sent in story_sentences for tok in sent]
    ending_tokens = {1: tokenize(instance.ending1), 2: tokenize(instance.ending2)}

    if flags.pos_sim:
        assert annotator is not None
        story_annotated = [tok for sent in story_sentences for tok in annotator(sent)]
        ending_annotated = {k: annotator(ending_tokens[k]) for k in (1, 2)}

    values: list[float] = []
    if flags.repr_story:
        values.extend(centroid(table, story_tokens))
    if flags.repr_endings:
        for k in (1, 2):
            values.extend(centroid(table, ending_tokens[k]))
    for k in (1, 2):
        if flags.plain_sim:
            values.append(sim_story_ending(story_tokens, ending_tokens[k], table))
        if flags.max_sim:
            values.extend(max_sim_topn(story_tokens, ending_tokens[k], table, n)
                          for n in MAX_SIM_TOPNS)
        if flags.aligned_sim:
            values.append(aligned_sim(story_tokens, ending_tokens[k], table))
        if flags.pos_sim:
            values.extend(pos_sims(story_annotated, ending_annotated[k], table))
    return FeatureVector(
        names=feature_names(config, table.dim),
        values=np.asarray(values, dtype=np.float64),
    )


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


def apply_scaler(scaler: Scaler, vector: FeatureVector) -> FeatureVector:
    """Min-max scale into [0,1]; constant features map to 0; unseen values clamp."""
    if vector.names != scaler.names:
        raise ValueError("feature layout does not match the scaler")
    span = scaler.maxs - scaler.mins
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (vector.values - scaler.mins) / span
    scaled = np.where(span == 0, 0.0, scaled)
    return FeatureVector(names=vector.names, values=np.clip(scaled, 0.0, 1.0))


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
        vectors.append(FeatureVector(names=names, values=values))
        labels.append(int(fields[-1]))
    return vectors, labels


def config_from_names(names: Sequence[str]) -> FeatureConfig:
    """Recover the extraction config from a persisted header layout."""
    dims = [int(n.rsplit("_", 1)[1]) for n in names if n.startswith("story_centroid_")]
    dims += [int(n.rsplit("_", 1)[1]) for n in names if n.startswith("e1_centroid_")]
    dim = max(dims) + 1 if dims else 0
    for config in FeatureConfig:
        if dim and tuple(names) == feature_names(config, dim):
            return config
    # Centroid-free layouts are dimension-independent.
    for config in FeatureConfig:
        flags = flags_for(config)
        if flags.repr_story or flags.repr_endings:
            continue
        if tuple(names) == feature_names(config, 1):
            return config
    raise ValueError("feature names do not match any known configuration")
