"""Story Cloze / ROC Stories file parsing, the 90/10 dev split, and swap augmentation."""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import ParseError

ENDING1 = 1
ENDING2 = 2
_Labeled = TypeVar("_Labeled")    # a ClozeInstance or a neural.EmbeddedInstance


@dataclass(frozen=True, slots=True)
class ClozeInstance:
    """One classification instance: four context sentences and two candidate endings.

    `gold` is 1 or 2 (the index of the correct ending) or None for unlabeled data.
    """

    id: str
    context: tuple[str, str, str, str]
    ending1: str
    ending2: str
    gold: int | None = None

    def __post_init__(self) -> None:
        if len(self.context) != 4:
            raise ValueError(f"instance {self.id!r}: expected 4 context sentences, got {len(self.context)}")
        if self.gold not in (None, ENDING1, ENDING2):
            raise ValueError(f"instance {self.id!r}: gold must be 1, 2 or None, got {self.gold!r}")

    @property
    def gold_ending(self) -> str:
        if self.gold is None:
            raise ValueError(f"instance {self.id!r} is unlabeled")
        return self.ending1 if self.gold == ENDING1 else self.ending2


@dataclass(frozen=True)
class RocStory:
    """A five-sentence story; the fifth sentence is its (only, correct) ending."""

    id: str
    title: str
    sentences: tuple[str, str, str, str, str]

    def __post_init__(self) -> None:
        if len(self.sentences) != 5:
            raise ValueError(f"story {self.id!r}: expected 5 sentences, got {len(self.sentences)}")

    @property
    def context(self) -> tuple[str, str, str, str]:
        return self.sentences[:4]

    @property
    def ending(self) -> str:
        return self.sentences[4]


@dataclass(frozen=True)
class DevSplit:
    dev_train: tuple[ClozeInstance, ...]
    dev_dev: tuple[ClozeInstance, ...]


def _csv_rows(path: Path, widths: tuple[int, ...]) -> Iterator[tuple[int, list[str]]]:
    """(row number, row) for each row after the mandatory header, whose
    width must be one of `widths`; every row must have the header's width."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        try:
            header = next(rows)
        except StopIteration:
            raise ParseError(f"{path}: empty file, header row required") from None
        if len(header) not in widths:
            allowed = " or ".join(map(str, widths))
            raise ParseError(f"{path}: row 1: expected {allowed} columns in header, got {len(header)}")
        for rownum, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {rownum}: expected {len(header)} columns, got {len(row)}")
            yield rownum, row


def parse_cloze_csv(path: str | Path) -> list[ClozeInstance]:
    """Parse a Story Cloze CSV: id, 4 context sentences, 2 endings, optional gold column.

    Columns are positional; the mandatory header row decides whether the
    gold indicator column (valued 1 or 2) is present.
    """
    path = Path(path)
    instances: list[ClozeInstance] = []
    for rownum, row in _csv_rows(path, (7, 8)):
        labeled = len(row) == 8
        if labeled and row[7] not in ("1", "2"):
            raise ParseError(f"{path}: row {rownum}: gold indicator must be 1 or 2, got {row[7]!r}")
        instances.append(ClozeInstance(
            id=row[0],
            context=(row[1], row[2], row[3], row[4]),
            ending1=row[5],
            ending2=row[6],
            gold=int(row[7]) if labeled else None,
        ))
    return instances


def write_cloze_csv(path: str | Path, instances: Sequence[ClozeInstance]) -> None:
    """Serialize instances to the same schema parse_cloze_csv consumes."""
    labeled = [inst.gold is not None for inst in instances]
    if any(labeled) and not all(labeled):
        raise ValueError("cannot mix labeled and unlabeled instances in one file")
    with_label = all(labeled)    # vacuously true for an empty list
    header = ["id", "sentence1", "sentence2", "sentence3", "sentence4", "ending1", "ending2"]
    if with_label:
        header.append("label")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for inst in instances:
            row = [inst.id, *inst.context, inst.ending1, inst.ending2]
            if with_label:
                row.append(str(inst.gold))
            writer.writerow(row)


def parse_roc_csv(path: str | Path) -> list[RocStory]:
    """Parse a ROC Stories CSV: id, title, 5 sentences; story ids must be unique."""
    path = Path(path)
    stories: list[RocStory] = []
    first_row: dict[str, int] = {}
    for rownum, row in _csv_rows(path, (7,)):
        if row[0] in first_row:
            raise ParseError(f"{path}: row {rownum}: story id {row[0]!r} "
                             f"already used on row {first_row[row[0]]}")
        first_row[row[0]] = rownum
        stories.append(RocStory(
            id=row[0],
            title=row[1],
            sentences=(row[2], row[3], row[4], row[5], row[6]),
        ))
    return stories


def write_roc_csv(path: str | Path, stories: Sequence[RocStory]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "title", "sentence1", "sentence2", "sentence3", "sentence4", "sentence5"])
        for story in stories:
            writer.writerow([story.id, story.title, *story.sentences])


def split_dev(instances: Sequence[ClozeInstance], ratio: float, seed: int) -> DevSplit:
    """Seeded random partition; the first round(ratio*N) shuffled instances train.

    Rounding is half away from zero.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    order = list(instances)
    random.Random(seed).shuffle(order)
    cut = math.floor(ratio * len(order) + 0.5)
    return DevSplit(dev_train=tuple(order[:cut]), dev_dev=tuple(order[cut:]))


def gold_labels(instances: Sequence) -> list[int]:
    """The gold label of each instance (anything with `id` and `gold`)."""
    for inst in instances:
        if inst.gold is None:
            raise ValueError(f"instance {inst.id} is unlabeled")
    return [inst.gold for inst in instances]


def swap_endings(instance: _Labeled) -> _Labeled:
    """Exchange the two endings and invert the label; id gains a -swap suffix.
    Every other field (context, or an EmbeddedInstance's story) is shared."""
    if instance.gold is None:
        raise ValueError(f"instance {instance.id!r} is unlabeled, cannot swap its label")
    return replace(instance, id=instance.id + "-swap",
                   ending1=instance.ending2, ending2=instance.ending1,
                   gold=ENDING1 if instance.gold == ENDING2 else ENDING2)


def augment_swap(instances: Iterable[_Labeled]) -> list[_Labeled]:
    """Double a labeled set: each instance is emitted with both ending orders."""
    augmented: list[_Labeled] = []
    for inst in instances:
        if inst.gold is None:
            raise ValueError(f"instance {inst.id!r} is unlabeled, augmentation needs labels")
        augmented.append(inst)
        augmented.append(swap_endings(inst))
    return augmented
