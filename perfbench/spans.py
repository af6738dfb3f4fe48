"""In-memory spans recorded around the benchmark's calls into each module.

A span has a name of the form "<module>.<function>", a start and end time,
the index of its parent span and the workload it belongs to. Spans are only
kept in memory while the run goes on and are written out when it ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.workload))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return [span.duration - covered(kids)
                for span, kids in zip(self.spans, children)]

    def module_self_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.module] = totals.get(span.module, 0.0) + own
        return totals

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def mean(self, name: str) -> float:
        durations = [s.duration for s in self.spans if s.name == name]
        return sum(durations) / len(durations) if durations else 0.0

    def top_level_coverage(self, start: float, end: float) -> float:
        """Share of [start, end] covered by spans without a parent."""
        tops = [(max(s.start, start), min(s.end, end)) for s in self.spans
                if s.parent is None and s.end > start and s.start < end]
        return covered(tops) / (end - start)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
