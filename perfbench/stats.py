"""Summary statistics and output checks used by the benchmark."""
from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# Percentiles considered for the tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    beyond: int
    samples: int


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted data and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: Iterable[float]) -> Tail:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    best = None
    for percentile in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, percentile)
        if beyond >= TAIL_MIN_BEYOND:
            best = Tail(percentile, value, beyond, len(ordered))
    if best is None:
        raise ValueError(f"{len(ordered)} samples leave fewer than "
                         f"{TAIL_MIN_BEYOND} beyond the median")
    return best


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def per_second(items_per_call: int, seconds: Sequence[float]) -> float:
    """Throughput over several calls that each handled the same items."""
    return items_per_call * len(seconds) / sum(seconds)


def rows_digest(rows: Iterable[Sequence[object]]) -> str:
    """SHA-256 over rows of exact values, one row per line."""
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(str(v) for v in row).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def close(actual: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(actual - expected) <= atol + rtol * abs(expected)


@dataclass
class Checks:
    """Counts operations and their failures; a failed output check counts too."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def count(self, done: int = 1) -> None:
        """Operations that returned normally."""
        self.attempted += done

    def expect(self, ok: bool, message: str) -> None:
        """An output check; a mismatch counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
