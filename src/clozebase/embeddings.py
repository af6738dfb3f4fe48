"""Pre-trained word embedding tables and the vector arithmetic built on them.

Supports the two common distribution formats (word2vec binary, GloVe text).
A table is a token -> record index plus the records' vectors, and `gather`
is the one way to read them. A word2vec table loaded from a regular file
checks every record at load but keeps no vector: `gather` reads a record's
vector from the file the first time it is asked for and keeps it, so a
process holds only the rows its inputs reach. Every other table holds all
its rows from the load on. Rows are kept at the file's precision: a
word2vec table keeps its file's float32 rows, half the bytes of their
float64 widening, and a GloVe or `make_table` table float64 rows, since
decimal text is not float32-exact. Every computation widens a row to float64
where it reads it, which is exact, so its results do not depend on the
stored precision; `lookup` returns float64.
"""
from __future__ import annotations

import enum
import os
import stat
import threading
import weakref
from array import array
from collections.abc import Mapping
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ParseError


# Bytes read from a word2vec binary file at a time.
_CHUNK_BYTES = 1 << 20


class EmbeddingFormat(enum.Enum):
    WORD2VEC_BINARY = "w2v-bin"
    GLOVE_TEXT = "glove-txt"


class _VectorFile(NamedTuple):
    """A word2vec file's own descriptor, and its size and modification time
    when it was loaded."""
    path: Path
    fd: int
    size: int
    mtime_ns: int

    def read(self, offsets: np.ndarray, dim: int) -> np.ndarray:
        """The float32 vectors at these byte offsets, as a (len x dim)
        matrix. The file must still be the one that was loaded and checked:
        a changed size or modification time, a short read or a non-finite
        value is refused."""
        width = 4 * dim
        data = b"".join(os.pread(self.fd, width, at) for at in offsets.tolist())
        info = os.fstat(self.fd)
        if (len(data) == width * len(offsets)
                and (info.st_size, info.st_mtime_ns) == (self.size, self.mtime_ns)):
            rows = np.frombuffer(data, dtype="<f4").reshape(len(offsets), dim)
            if np.isfinite(rows).all():
                return rows
        raise ParseError(f"{self.path}: file changed after it was loaded")


class EmbeddingTable:
    """Immutable token -> vector map: the vector of record `index[token]`,
    read with `gather`.

    The rows read so far sit in one store at the file's precision: float32
    for a word2vec table, float64 for a GloVe or `make_table` one. One int64
    code per record holds the file offset of its vector until the record is
    read, and from then on the complement (~) of its row in the store. A
    table built from rows, or loaded from a GloVe file or a pipe, holds every
    row from the start. A word2vec table loaded from a regular file reads a
    row the first time it is asked for, through a descriptor of its own that
    is closed when the table is collected.

    A token repeated in a file keeps its first position in `index` and its
    last record, so a record may have no token. Safe for concurrent reads:
    reads of rows already held take no lock, and fills run under one lock
    and publish a row's code only after the row is in the store.
    """

    __slots__ = ("dim", "index", "_store", "_codes", "_filled", "_file",
                 "_lock", "__weakref__")

    def __init__(self, dim: int, rows: np.ndarray,
                 index: Mapping[str, int]) -> None:
        """A table that holds `rows`, record i's vector in row i; the table
        marks them read-only. Refuses rows that are not `dim` wide and an
        index that maps a token to anything but one of them."""
        if dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise ValueError(f"rows of shape {rows.shape} are not {dim}-d")
        outside = [tok for tok, row in index.items() if not (
            isinstance(row, (int, np.integer)) and 0 <= row < len(rows))]
        if outside:
            raise ValueError(f"index maps {outside[0]!r} to row "
                             f"{index[outside[0]]} of {len(rows)} rows")
        rows.flags.writeable = False
        self.dim = dim
        self.index = index
        self._store = rows
        self._codes = ~np.arange(len(rows))
        self._filled = len(rows)
        self._file: _VectorFile | None = None
        self._lock = threading.Lock()

    @classmethod
    def _on_file(cls, dim: int, index: Mapping[str, int], offsets: np.ndarray,
                 file: _VectorFile) -> EmbeddingTable:
        """A table that holds no row yet: record i's vector is read from
        `file` at `offsets[i]` on first use. The loader numbers `index`
        by the records it gives offsets for."""
        table = cls(dim, np.empty((0, dim), dtype="<f4"), {})
        table.index, table._codes, table._file = index, offsets, file
        weakref.finalize(table, os.close, file.fd)
        return table

    def __len__(self) -> int:
        return len(self.index)

    @property
    def entries(self) -> Mapping[str, np.ndarray]:
        """A read-only token -> row view, in the index's order."""
        return _Entries(self)

    def _fill(self, records: np.ndarray) -> np.ndarray:
        """Read the records not yet held into the store; all their codes."""
        with self._lock:
            codes = self._codes[records]
            missing = np.unique(records[codes >= 0])
            if len(missing):
                rows = self._file.read(self._codes[missing], self.dim)
                start = self._filled
                end = start + len(missing)
                if end > len(self._store):
                    grown = np.empty((max(end, 2 * len(self._store)), self.dim),
                                     dtype=self._store.dtype)
                    grown[:start] = self._store[:start]
                    self._store = grown
                self._store[start:end] = rows
                self._codes[missing] = ~np.arange(start, end)
                self._filled = end
                codes = self._codes[records]
            return codes


def gather(table: EmbeddingTable, records: Sequence[int]) -> np.ndarray:
    """The vectors of these records, in order, as a new (len(records) x dim)
    matrix at the table's stored precision. A record not read yet is read
    from the table's file first."""
    records = np.asarray(records, dtype=np.intp)
    codes = table._codes[records]
    if (codes >= 0).any():
        codes = table._fill(records)
    return table._store[~codes]


class _Entries(Mapping[str, np.ndarray]):
    __slots__ = ("_table",)

    def __init__(self, table: EmbeddingTable) -> None:
        self._table = table

    def __getitem__(self, token: str) -> np.ndarray:
        vec = gather(self._table, [self._table.index[token]])[0]
        vec.flags.writeable = False
        return vec

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
    # records, then copies their vectors' bytes into the float32 `block` and
    # checks that they are finite. A record cut by the block's end waits for
    # the next. `block` is one spare array that every pass reuses. From a
    # regular file the table keeps each vector's offset and a descriptor of
    # its own, and reads the vector again on first use. A pipe cannot be read
    # twice: there each block's bytes go on the end of one buffer, which
    # becomes the table's rows without a copy, so nothing is sized from the
    # header's count.
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

        # A record takes at least its space and its vector, so no more
        # offsets than this fit in a regular file: a header that claims more
        # (or a huge dim) ends in a truncation error, not in a huge
        # allocation.
        record_bytes = 4 * dim
        info = os.fstat(handle.fileno())
        on_file = stat.S_ISREG(info.st_mode) and hasattr(os, "pread")
        if on_file:
            offsets = np.empty(min(vocab_size, (info.st_size - newline - 1)
                                   // (record_bytes + 1)), dtype=np.int64)
        else:
            data = bytearray()
        spare = np.empty((0, dim), dtype="<f4")
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
                if on_file:
                    np.add(starts, base, out=offsets[first:record])
                if len(spare) < len(starts):
                    spare = np.empty((len(starts), dim), dtype="<f4")
                block = spare[:len(starts)]
                src, dst = memoryview(buf), memoryview(block).cast("B")
                at = 0
                for start in starts:
                    dst[at:at + record_bytes] = src[start:start + record_bytes]
                    at += record_bytes
                finite = np.isfinite(block).all(axis=1)
                if not finite.all():
                    bad = int(finite.argmin())
                    raise ParseError(f"{path}: record {first + bad} ({tokens[bad]!r}) "
                                     "has non-finite components")
                if not on_file:
                    data += dst
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
        if not on_file:
            return EmbeddingTable(
                dim, np.frombuffer(data, dtype="<f4").reshape(-1, dim), index)
        file = _VectorFile(path, os.dup(handle.fileno()), info.st_size,
                           info.st_mtime_ns)
    return EmbeddingTable._on_file(dim, index, offsets, file)


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
    """The token's record, else its lowercase form's; None when both miss."""
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
    vec = np.asarray(gather(table, [row])[0], dtype=np.float64)
    vec.flags.writeable = False
    return vec


def centroid(table: EmbeddingTable, tokens: Iterable[str]) -> np.ndarray:
    """Mean vector of the tokens that resolve via lookup.

    Tokens without a vector are skipped; the zero vector is returned when
    nothing resolves, so all-OOV fragments still yield a usable value.
    """
    found = [row for row in (_row(table, t) for t in tokens) if row is not None]
    return mean_vector(gather(table, found), table.dim)


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
