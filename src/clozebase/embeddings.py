"""Pre-trained word embedding tables and the vector arithmetic built on them.

Supports the two common distribution formats (word2vec binary, GloVe text).
All vectors are widened to float64 on load; downstream feature code assumes
64-bit precision.
"""
from __future__ import annotations

import enum
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError


# Bytes read from a word2vec binary file at a time.
_CHUNK_BYTES = 1 << 20


class EmbeddingFormat(enum.Enum):
    WORD2VEC_BINARY = "w2v-bin"
    GLOVE_TEXT = "glove-txt"


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> float64 vector map.

    Every vector is read-only; a word2vec table's vectors are the rows of one
    vocab x dim matrix. Safe for concurrent read-only access once constructed.
    """

    dim: int
    entries: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {self.dim}")

    def __len__(self) -> int:
        return len(self.entries)


def make_table(entries: Mapping[str, Iterable[float]], dim: int) -> EmbeddingTable:
    """Build a table from in-memory data, validating shape and finiteness."""
    store: dict[str, np.ndarray] = {}
    for token, values in entries.items():
        vec = np.array(values, dtype=np.float64)     # a copy: the flag below is ours
        if vec.shape != (dim,):
            raise ValueError(f"vector for {token!r} has shape {vec.shape}, expected ({dim},)")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"vector for {token!r} contains non-finite values")
        vec.flags.writeable = False
        store[token] = vec
    return EmbeddingTable(dim=dim, entries=store)


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
    # records, then copies their vectors into the preallocated matrix in one
    # widening assignment. A record cut by the block's end waits for the next.
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
        matrix = np.empty((rows, dim), dtype=np.float64)
        tokens: list[str] = []
        base, pos = 0, newline + 1
        eof = False
        while len(tokens) < vocab_size:
            first = len(tokens)
            starts: list[int] = []
            failure = None
            while len(tokens) < vocab_size:
                record = len(tokens)
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
                tokens.append(token)
                starts.append(vec_start)
                pos = vec_end + (buf[vec_end:vec_end + 1] == b"\n")
            # the rows parsed so far come before the failure in the file
            if starts:
                view = memoryview(buf)
                block = np.frombuffer(b"".join([view[s:s + record_bytes] for s in starts]),
                                      dtype="<f4").reshape(len(starts), dim)
                finite = np.isfinite(block).all(axis=1)
                if not finite.all():
                    bad = first + int(finite.argmin())
                    raise ParseError(f"{path}: record {bad} ({tokens[bad]!r}) has non-finite components")
                matrix[first:len(tokens)] = block
            if failure is not None:
                raise ParseError(f"{path}: {failure}")
            if len(tokens) < vocab_size:
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
    matrix.flags.writeable = False
    # row views of the matrix; a repeated token keeps its first position and
    # its last vector, as repeated dict assignment does
    entries = dict(zip(tokens, matrix))
    return EmbeddingTable(dim=dim, entries=entries)


def _load_glove_text(path: Path) -> EmbeddingTable:
    # One record per line: token and dim decimal literals, space-separated.
    entries: dict[str, np.ndarray] = {}
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
            vec.flags.writeable = False
            entries[token] = vec
    if dim is None:
        raise ParseError(f"{path}: empty file")
    return EmbeddingTable(dim=dim, entries=entries)


def lookup(table: EmbeddingTable, token: str) -> np.ndarray | None:
    """Exact-match lookup with a lowercase fallback; None when both miss."""
    vec = table.entries.get(token)
    if vec is None:
        vec = table.entries.get(token.lower())
    return vec


def centroid(table: EmbeddingTable, tokens: Iterable[str]) -> np.ndarray:
    """Mean vector of the tokens that resolve via lookup.

    Tokens without a vector are skipped; the zero vector is returned when
    nothing resolves, so all-OOV fragments still yield a usable value.
    """
    vectors = [vec for vec in (lookup(table, t) for t in tokens) if vec is not None]
    return mean_vector(vectors, table.dim)


def mean_vector(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Mean of the vectors, added in order; the zero vector when there are none."""
    total = np.zeros(dim, dtype=np.float64)
    for vec in vectors:
        total += vec
    if not vectors:
        return total
    return total / len(vectors)
