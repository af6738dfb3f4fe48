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

The story and each ending are looked up on their own, each once: its
centroid, then its distinct in-vocabulary vectors, read from the table in
one step. The story's side is built once per instance, and each ending is
taken against it: one batched call gives the story's plain, max-sim and
aligned cosines with that ending, and one 5 x 5 call the POS similarities.
Each batch is a stacked `np.matmul` of (1 x d)(d x 1) cores, not a GEMM,
so every cosine, centroid and mean equals the per-pair definition
(`ndarray.dot` over the two norms, rows added in order) bit for bit; that
definition is kept in the tests, as the oracle the batched code is checked
against.
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
from .embeddings import EmbeddingTable, _row, gather, mean_rows
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


class _Text(NamedTuple):
    """A token sequence looked up once.

    `rows` is the centroid followed by each distinct table row the tokens
    reach, once, in order of first use, and `norms` their norms; `at[i]` is
    the row of the i-th token, None when it has no vector, and `slots` the
    rows of the in-vocabulary tokens in order, so a per-word score is
    computed once per distinct table row.
    """
    rows: np.ndarray
    norms: np.ndarray
    at: list[int | None]
    slots: list[int]


def _norms(rows: np.ndarray) -> np.ndarray:
    """Each row's norm, sqrt(v·v), each v·v a (1 x d)(d x 1) core of one
    stacked `np.matmul`: the same `ndarray.dot` as the per-pair norm."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())


def _cosines(a: np.ndarray, norm_a: np.ndarray, b: np.ndarray,
             norm_b: np.ndarray) -> np.ndarray:
    """The (m x k) cosines of a's rows with b's rows, each equal to the
    per-pair a·b / (|a| |b|) to the bit, and 0.0 where either norm is 0.

    One stacked `np.matmul` of (1 x d)(d x 1) cores gives every dot product;
    numpy runs each core through the `ddot` that `ndarray.dot` runs, where
    a GEMM would reorder the sums. Each norm is tested on its own, as the
    per-pair definition tests them: the product of a zero and an infinite
    norm is NaN, not 0.
    """
    dots = np.matmul(a[:, None, None, :], b[None, :, :, None])[:, :, 0, 0]
    return np.divide(dots, np.multiply.outer(norm_a, norm_b),
                     out=np.zeros_like(dots),
                     where=np.logical_and.outer(norm_a != 0.0, norm_b != 0.0))


def _text(tokens: Sequence[str], table: EmbeddingTable) -> _Text:
    """The tokens looked up: one table read and one `_norms` call."""
    records = [_row(table, tok) for tok in tokens]
    found = {row: i for i, row in enumerate(dict.fromkeys(
        r for r in records if r is not None), start=1)}
    at = [found.get(r) for r in records]
    slots = [i for i in at if i is not None]
    # The distinct rows, gathered and widened in one step. The centroid is
    # `mean_rows` of every word's row in order; with no word repeated,
    # those rows are rows[1:] as they stand.
    rows = np.zeros((len(found) + 1, table.dim))
    rows[1:] = gather(table, list(found))
    rows[0] = mean_rows(rows[slots] if len(slots) > len(found) else rows[1:])
    return _Text(rows, _norms(rows), at, slots)


def _max_sims(story: _Text, sims: np.ndarray,
              topns: Sequence[int]) -> list[float]:
    if not story.slots:
        return [0.0] * len(topns)
    per_row = sims[:, 0].tolist()
    scores = [per_row[slot] for slot in story.slots]
    scores.sort(reverse=True)
    return [float(sum(top) / len(top)) for top in (scores[:n] for n in topns)]


def _aligned_sim(story: _Text, ending: _Text, sims: np.ndarray) -> float:
    if not story.slots or not ending.slots:
        return 0.0
    # Python's `max` per row, as the per-pair loop took it: a NaN after a
    # row's first value is passed over, not propagated as `np.max` would.
    per_row = [max(row) for row in sims[:, 1:].tolist()]
    best = [per_row[slot] for slot in story.slots]
    return float(sum(best) / len(best))


@functools.lru_cache(maxsize=256)
def _class_row(pos: str) -> int | None:
    """The index in POS_CLASSES of the tag's coarse class; None outside them.
    Cached by tag, so a token costs no `Enum.__hash__`."""
    cls = coarse_class(pos)
    return POS_CLASSES.index(cls) if cls in POS_CLASSES else None


def _class_centers(annotated: Sequence[AnnotatedToken], text: _Text
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The centroid of each class in POS_CLASSES in the annotated text, one
    row per class, and their norms. The i-th annotated token is the text's
    i-th token, so its row is `text.at[i]`; each class's centroid is
    `mean_rows` of its rows in order, the zero vector for none."""
    if len(annotated) != len(text.at):
        raise ValueError(f"the annotator gave {len(annotated)} tokens for a "
                         f"text of {len(text.at)}")
    members: list[list[int]] = [[] for _ in POS_CLASSES]
    for tok, at in zip(annotated, text.at):
        if at is not None and (cls := _class_row(tok.pos)) is not None:
            members[cls].append(at)
    centers = np.zeros((len(POS_CLASSES), text.rows.shape[1]))
    for center, slots in zip(centers, members):
        if slots:
            center[:] = mean_rows(text.rows[slots])
    return centers, _norms(centers)


def sim_story_ending(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                     table: EmbeddingTable) -> float:
    story, ending = _text(story_tokens, table), _text(ending_tokens, table)
    return float(_cosines(story.rows[:1], story.norms[:1],
                          ending.rows[:1], ending.norms[:1])[0, 0])


def max_sim_topn(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                 table: EmbeddingTable, n: int) -> float:
    """Mean of the n best per-story-word cosines with the ending centroid."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    story, ending = _text(story_tokens, table), _text(ending_tokens, table)
    column = _cosines(story.rows, story.norms, ending.rows[:1], ending.norms[:1])
    return _max_sims(story, column, (n,))[0]


def aligned_sim(story_tokens: Sequence[str], ending_tokens: Sequence[str],
                table: EmbeddingTable) -> float:
    """Mean over story words of the best pairwise cosine with any ending word."""
    story, ending = _text(story_tokens, table), _text(ending_tokens, table)
    return _aligned_sim(story, ending, _cosines(story.rows, story.norms,
                                               ending.rows, ending.norms))


def pos_sims(story_annotated: Sequence[AnnotatedToken],
             ending_annotated: Sequence[AnnotatedToken],
             table: EmbeddingTable) -> list[float]:
    """Cosine for each ordered (story class, ending class) pair; 25 values."""
    story, ending = (
        _class_centers(a, _text([tok.surface for tok in a], table))
        for a in (story_annotated, ending_annotated))
    return _cosines(*story, *ending).ravel().tolist()


_PAIR_SIMS = frozenset({Block.PLAIN_SIM, Block.MAX_SIM, Block.ALIGNED_SIM})


def _extract_blocks(instance: ClozeInstance, table: EmbeddingTable,
                    annotator: Annotator | None,
                    blocks: frozenset[Block]) -> np.ndarray:
    """The values of `blocks` in `all`'s order, the story's side built once
    and each ending taken against it; bit-equal to the block functions'."""
    if Block.POS_SIM in blocks and annotator is None:
        raise ValueError("part-of-speech similarities need annotations, but "
                         "no annotator was given")
    story_sentences = [tokenize(s) for s in instance.context]
    tokens = ([tok for sent in story_sentences for tok in sent],
              tokenize(instance.ending1), tokenize(instance.ending2))
    texts = [_text(text, table) for text in tokens]
    story = texts[0]
    if blocks & _PAIR_SIMS:
        # In ending k's cosines, [0, 0] is the plain similarity, column 0
        # holds each story word's with the ending centroid, and [1:, 1:]
        # each pair of words'.
        sims = {k: _cosines(story.rows, story.norms, texts[k].rows,
                            texts[k].norms) for k in (1, 2)}
    if Block.POS_SIM in blocks:
        story_classes = _class_centers(
            [tok for sent in story_sentences for tok in annotator(sent)], story)
        classes = {k: _cosines(*story_classes, *_class_centers(
            annotator(tokens[k]), texts[k])) for k in (1, 2)}
    values: dict[Block, Callable[[int], np.ndarray | list[float]]] = {
        Block.STORY_CENTROID: lambda k: texts[k].rows[0],
        Block.ENDING_CENTROIDS: lambda k: texts[k].rows[0],
        Block.PLAIN_SIM: lambda k: sims[k][0, :1],
        Block.MAX_SIM: lambda k: _max_sims(story, sims[k], MAX_SIM_TOPNS),
        Block.ALIGNED_SIM: lambda k: [_aligned_sim(story, texts[k], sims[k])],
        Block.POS_SIM: lambda k: classes[k].ravel(),
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
    """Each element of a row, or of a matrix's rows, scaled into [0,1] in a
    fresh C-ordered array; constant features map to 0, unseen values clamp."""
    span = scaler.maxs - scaler.mins
    scaled = np.divide(values - scaler.mins, span,
                       out=np.zeros(np.shape(values)), where=span != 0)
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def apply_scaler(scaler: Scaler, vector: FeatureVector) -> FeatureVector:
    """`min_max_scale` of a vector of the scaler's layout."""
    if vector.names != scaler.names:
        raise ValueError("feature layout does not match the scaler")
    return FeatureVector(vector.names, min_max_scale(scaler, vector.values))


def save_features(path: str | Path, vectors: Sequence[FeatureVector],
                  labels: Sequence[int]) -> None:
    """Text matrix: header of names, then value rows with the label last.
    Every row is checked before the file is opened, so a bad row leaves the
    path as it was."""
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
    if not vectors:
        raise ValueError("nothing to save")
    names = vectors[0].names
    for vector, label in zip(vectors, labels):
        if vector.names != names:
            raise ValueError("inconsistent feature layout across vectors")
        if label not in (1, 2):
            raise ValueError(f"label must be 1 or 2, got {label!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        for vector, label in zip(vectors, labels):
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
