"""Pre-trained word embedding tables and the vector arithmetic built on them.

Supports the two common distribution formats (word2vec binary, GloVe text).
A table is one read-only matrix of rows and one token -> row index. Rows are
kept at the file's precision: a word2vec table holds its file's float32
rows, half the bytes of their float64 widening, and a GloVe or `make_table`
table holds float64 rows, since decimal text is not float32-exact. Every
computation widens a row to float64 where it reads it, which is exact, so
its results do not depend on the stored precision; `lookup` returns float64.
"""
from __future__ import annotations

import enum
import os
import stat
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError


# Bytes read from a word2vec binary file at a time.
_CHUNK_BYTES = 1 << 20


class EmbeddingFormat(enum.Enum):
    WORD2VEC_BINARY = "w2v-bin"
    GLOVE_TEXT = "glove-txt"


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> vector map: row `index[token]` of `rows`.

    `rows` is one (records x dim) matrix at its file's precision: float32
    for a word2vec table, float64 for a GloVe or `make_table` one. The table
    marks it read-only. A token repeated in a file keeps its first position
    in `index` and its last record's row, so a row may have no token.
    `lookup` returns float64 either way. Safe for concurrent read-only
    access once constructed.
    """

    dim: int
    rows: np.ndarray
    index: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {self.dim}")
        if self.rows.ndim != 2 or self.rows.shape[1] != self.dim:
            raise ValueError(f"rows of shape {self.rows.shape} are not "
                             f"{self.dim}-d")
        self.rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self.index)

    @property
    def entries(self) -> Mapping[str, np.ndarray]:
        """A read-only token -> row view, in the index's order."""
        return _Entries(self)


class _Entries(Mapping[str, np.ndarray]):
    __slots__ = ("_table",)

    def __init__(self, table: EmbeddingTable) -> None:
        self._table = table

    def __getitem__(self, token: str) -> np.ndarray:
        return self._table.rows[self._table.index[token]]

    def __contains__(self, token: object) -> bool:
        return token in self._table.index

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.index)

    def __len__(self) -> int:
        return len(self._table.index)


def make_table(entries: Mapping[str, Iterable[float]], dim: int) -> EmbeddingTable:
    """Build a table from in-memory data, validating shape and finiteness."""
    vectors = []
    for token, values in entries.items():
        vec = np.asarray(values, dtype=np.float64)
        if vec.shape != (dim,):
            raise ValueError(f"vector for {token!r} has shape {vec.shape}, expected ({dim},)")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"vector for {token!r} contains non-finite values")
        vectors.append(vec)
    # a dim below 1 is the table's to refuse, with its own message
    rows = np.stack(vectors) if vectors else np.empty((0, max(dim, 0)))
    return EmbeddingTable(dim, rows, {token: i for i, token in enumerate(entries)})


def load_embeddings(path: str | Path, format: EmbeddingFormat | str) -> EmbeddingTable:
    """Load a pre-trained embedding file in the given format."""
    path = Path(path)
    fmt = EmbeddingFormat(format) if not isinstance(format, EmbeddingFormat) else format
    if fmt is EmbeddingFormat.WORD2VEC_BINARY:
        return _load_word2vec_binary(path)
    return _load_glove_text(path)


def _load_word2vec_binary(path: Path) -> EmbeddingTable:
    # Layout: ASCII header "<vocab> <dim>\n", then per record the token bytes
    # terminated by a single space, dim little-endian float32s, and an
    # optional trailing newline.
    #
    # The file is read in _CHUNK_BYTES blocks. `buf` holds the unparsed bytes
    # from absolute offset `base` on; each pass over it parses the complete
    # records, then copies their vectors' bytes straight into the
    # preallocated float32 matrix: a joined copy of the block, once freed,
    # would stay resident as a hole in the heap. A record cut by the block's
    # end waits for the next.
    with open(path, "rb") as handle:
        buf = b""
        while (newline := buf.find(b"\n")) < 0:
            chunk = handle.read(_CHUNK_BYTES)
            if not chunk:
                raise ParseError(f"{path}: no header line (file is empty or truncated at byte 0)")
            buf += chunk
        header = buf[:newline].split()
        if len(header) != 2:
            raise ParseError(f"{path}: malformed header {buf[:newline]!r}")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ParseError(f"{path}: malformed header {buf[:newline]!r}") from None
        if vocab_size < 0 or dim <= 0:
            raise ParseError(f"{path}: malformed header counts vocab={vocab_size} dim={dim}")

        # A record takes at least its space and its vector, so no more rows
        # than this fit in a regular file: a header that claims more (or a
        # huge dim) ends in a truncation error, not in a huge allocation. A
        # pipe's size is unknown, so there the header's count is trusted.
        record_bytes = 4 * dim
        rows = vocab_size
        info = os.fstat(handle.fileno())
        if stat.S_ISREG(info.st_mode):
            rows = min(rows, (info.st_size - newline - 1) // (record_bytes + 1))
        matrix = np.empty((rows, dim), dtype="<f4")
        index: dict[str, int] = {}
        record, base, pos = 0, 0, newline + 1
        eof = False
        while record < vocab_size:
            first = record
            tokens: list[str] = []
            starts: list[int] = []
            failure = None
            while record < vocab_size:
                space = buf.find(b" ", pos)
                if space < 0:
                    if eof:
                        failure = f"record {record} truncated at byte {base + pos}"
                    break
                try:
                    token = buf[pos:space].decode("utf-8")
                except UnicodeDecodeError:
                    failure = f"record {record} token at byte {base + pos} is not UTF-8"
                    break
                vec_start, vec_end = space + 1, space + 1 + record_bytes
                if vec_end >= len(buf) and not eof:
                    break       # the byte after the vector decides the newline
                if vec_end > len(buf):
                    failure = f"record {record} vector truncated at byte {base + vec_start}"
                    break
                index[token] = record
                tokens.append(token)
                starts.append(vec_start)
                record += 1
                pos = vec_end + (buf[vec_end:vec_end + 1] == b"\n")
            # the rows parsed so far come before the failure in the file
            if starts:
                src, dst = memoryview(buf), memoryview(matrix).cast("B")
                at = first * record_bytes
                for start in starts:
                    dst[at:at + record_bytes] = src[start:start + record_bytes]
                    at += record_bytes
                finite = np.isfinite(matrix[first:record]).all(axis=1)
                if not finite.all():
                    bad = int(finite.argmin())
                    raise ParseError(f"{path}: record {first + bad} ({tokens[bad]!r}) "
                                     "has non-finite components")
            if failure is not None:
                raise ParseError(f"{path}: {failure}")
            if record < vocab_size:
                chunk = handle.read(_CHUNK_BYTES)
                eof = not chunk
                base, buf, pos = base + pos, buf[pos:] + chunk, 0

        rest = buf[pos:]
        while True:
            if rest.strip():
                raise ParseError(f"{path}: unexpected trailing data at byte {base + pos}")
            rest = handle.read(_CHUNK_BYTES)
            if not rest:
                break
    return EmbeddingTable(dim, matrix, index)


def _load_glove_text(path: Path) -> EmbeddingTable:
    # One record per line: token and dim decimal literals, space-separated.
    # Each line's float64 bytes go on the end of one buffer, which becomes
    # `rows` without a copy; line n is row n - 1.
    index: dict[str, int] = {}
    values = array("d")
    dim: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                raise ParseError(f"{path}: empty record at line {lineno}")
            parts = line.split(" ")
            token, raw_values = parts[0], parts[1:]
            if dim is None:
                dim = len(raw_values)
                if dim == 0:
                    raise ParseError(f"{path}: line {lineno} has a token but no values")
            elif len(raw_values) != dim:
                raise ParseError(
                    f"{path}: line {lineno} has {len(raw_values)} values, expected {dim}")
            try:
                vec = np.array(raw_values, dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}: line {lineno} has a malformed number") from None
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{path}: line {lineno} has non-finite components")
            values.frombytes(vec.tobytes())
            index[token] = lineno - 1
    if dim is None:
        raise ParseError(f"{path}: empty file")
    return EmbeddingTable(dim, np.frombuffer(values).reshape(-1, dim), index)


def _row(table: EmbeddingTable, token: str) -> int | None:
    """The token's row index, else its lowercase form's; None when both miss."""
    row = table.index.get(token)
    if row is None:
        row = table.index.get(token.lower())
    return row


def lookup(table: EmbeddingTable, token: str) -> np.ndarray | None:
    """Exact-match lookup with a lowercase fallback, as a read-only float64
    vector; None when both miss."""
    row = _row(table, token)
    if row is None:
        return None
    vec = np.asarray(table.rows[row], dtype=np.float64)     # a float64 row is a view
    vec.flags.writeable = False
    return vec


def centroid(table: EmbeddingTable, tokens: Iterable[str]) -> np.ndarray:
    """Mean vector of the tokens that resolve via lookup.

    Tokens without a vector are skipped; the zero vector is returned when
    nothing resolves, so all-OOV fragments still yield a usable value.
    """
    found = [row for row in (_row(table, t) for t in tokens) if row is not None]
    return mean_vector(table.rows[found], table.dim)


def mean_vector(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Mean of the vectors in float64, added in order from +0.0; the zero
    vector when there are none."""
    if len(vectors) == 0:
        return np.zeros(dim)
    return sum_rows(np.array(vectors, dtype=np.float64)) / len(vectors)


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of a float64 matrix added in order from +0.0, to the bit as
    a loop of `+=` adds them. numpy reduces axis 0 of two or more columns a
    row at a time, but sums a single column pairwise, so that one is looped."""
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0, initial=0.0)
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total
