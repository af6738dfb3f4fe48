from __future__ import annotations

import gc
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import clozebase
from clozebase import embeddings, features
from clozebase.annotate import heuristic_tag, tokenize
from clozebase.corpus import ClozeInstance
from clozebase.embeddings import (EmbeddingFormat, EmbeddingTable, centroid,
                                  gather, load_embeddings, lookup, make_table,
                                  mean_rows)
from clozebase.errors import ParseError
from clozebase.features import FeatureConfig, extract_matrix
from clozebase.neural import embed_instance

from conftest import VOCAB, make_instances


# ---------------------------------------------------------------------------
# Oracle: the loader that read the whole file into one bytes object and kept
# one float64 array per record, word for word. The streaming loader keeps the
# file's float32 rows instead: their float64 widening must be the oracle's
# vectors to the bit, with the same key order and the same errors.
# ---------------------------------------------------------------------------

def _oracle_load_word2vec_binary(path: Path) -> EmbeddingTable:
    # Layout: ASCII header "<vocab> <dim>\n", then per record the token bytes
    # terminated by a single space, dim little-endian float32s, and an
    # optional trailing newline.
    data = path.read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise ParseError(f"{path}: no header line (file is empty or truncated at byte 0)")
    header = data[:newline].split()
    if len(header) != 2:
        raise ParseError(f"{path}: malformed header {data[:newline]!r}")
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"{path}: malformed header {data[:newline]!r}") from None
    if vocab_size < 0 or dim <= 0:
        raise ParseError(f"{path}: malformed header counts vocab={vocab_size} dim={dim}")

    record_bytes = 4 * dim
    entries: dict[str, np.ndarray] = {}
    offset = newline + 1
    for record in range(vocab_size):
        space = data.find(b" ", offset)
        if space < 0:
            raise ParseError(f"{path}: record {record} truncated at byte {offset}")
        try:
            token = data[offset:space].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: record {record} token at byte {offset} is not UTF-8") from None
        vec_start = space + 1
        if vec_start + record_bytes > len(data):
            raise ParseError(f"{path}: record {record} vector truncated at byte {vec_start}")
        vec32 = np.frombuffer(data, dtype="<f4", count=dim, offset=vec_start)
        if not np.all(np.isfinite(vec32)):
            raise ParseError(f"{path}: record {record} ({token!r}) has non-finite components")
        entries[token] = vec32.astype(np.float64)
        offset = vec_start + record_bytes
        if offset < len(data) and data[offset:offset + 1] == b"\n":
            offset += 1
    if data[offset:].strip():
        raise ParseError(f"{path}: unexpected trailing data at byte {offset}")
    return make_table(entries, dim)


def w2v_raw(count: int, dim: int, records: list[tuple[bytes, bytes]],
            newlines: list[bool]) -> bytes:
    """Build word2vec-binary content by hand, straight from the layout:
    the header's count, then each raw token, a space, the raw payload and
    the optional newline."""
    out = [f"{count} {dim}\n".encode("ascii")]
    for (token, payload), newline in zip(records, newlines):
        out += [token, b" ", payload, b"\n" if newline else b""]
    return b"".join(out)


def w2v_bytes(records: list[tuple[str, list[float]]], dim: int,
              newline_after_vector: bool = True) -> bytes:
    raw = [(token.encode("utf-8"), np.asarray(values, dtype="<f4").tobytes())
           for token, values in records]
    return w2v_raw(len(records), dim, raw, [newline_after_vector] * len(records))


class TestWord2VecBinary:
    def test_two_record_fixture(self, tmp_path):
        records = [("hello", [1.0, -2.5, 0.125]), ("world", [0.0, 3.5, -1.0])]
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes(records, dim=3))
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        assert table.dim == 3
        assert len(table) == 2
        for token, values in records:
            expected = np.asarray(values, dtype=np.float32).astype(np.float64)
            np.testing.assert_array_equal(table.entries[token], expected)

    def test_float32_widening_is_bit_exact(self, tmp_path):
        # values not representable in float32 round there first, then widen
        raw = [0.1, 1 / 3, np.pi]
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("tok", raw)], dim=3))
        table = load_embeddings(path, "w2v-bin")
        expected = np.asarray(raw, dtype="<f4").astype(np.float64)
        got = lookup(table, "tok")
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_no_newline_after_vectors(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1, 2]), ("b", [3, 4])], dim=2,
                                   newline_after_vector=False))
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        assert set(table.entries) == {"a", "b"}

    def test_truncated_vector_reports_byte_offset(self, tmp_path):
        content = w2v_bytes([("hello", [1.0, 2.0, 3.0])], dim=3)
        path = tmp_path / "vecs.bin"
        path.write_bytes(content[:-6])       # cut into the float payload
        with pytest.raises(ParseError, match=r"byte \d+"):
            load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)

    def test_missing_record_is_truncation(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"2 3\n" + b"only " + np.zeros(3, "<f4").tobytes())
        with pytest.raises(ParseError, match="record 1"):
            load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)

    @pytest.mark.parametrize("header", [b"", b"abc\n", b"3\n", b"x y\n", b"2 0\n"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "vecs.bin"
        path.write_bytes(header)
        with pytest.raises(ParseError):
            load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1, 2])], dim=2) + b"junk")
        with pytest.raises(ParseError, match="trailing"):
            load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)


# Multibyte UTF-8 pieces for random tokens; none holds a space or a newline
# byte (U+00A0 is 0xC2 0xA0).
TOKEN_PIECES = ("a", "the", "é", "日本", "straße", "🙂", "x\u00a0y", "Ωmega")


def random_records(rng, vocab: int, dim: int) -> list[tuple[bytes, bytes]]:
    """Seeded records: multibyte tokens, about one in five a repeat, and
    payloads whose bytes are often 0x20 (space) or 0x0A (newline)."""
    records: list[tuple[bytes, bytes]] = []
    for i in range(vocab):
        if records and rng.random() < 0.2:
            token = records[int(rng.integers(len(records)))][0]
        else:
            pieces = rng.choice(TOKEN_PIECES, size=int(rng.integers(1, 4)))
            token = ("".join(pieces) + str(i)).encode("utf-8")
        raw = rng.integers(0, 256, size=4 * dim, dtype=np.uint8)
        special = rng.random(4 * dim) < 0.3
        raw[special] = rng.choice([0x20, 0x0A], size=int(special.sum()))
        values = raw.view("<f4")
        values[~np.isfinite(values)] = 0.5
        records.append((token, raw.tobytes()))
    return records


def newline_flags(rng, vocab: int, mode: str) -> list[bool]:
    if mode == "mixed":
        return [bool(b) for b in rng.integers(0, 2, size=vocab)]
    return [mode == "always"] * vocab


F4 = np.dtype(np.float32).str


def both_loads(path: Path) -> tuple[object, object]:
    """The oracle's and `load_embeddings`' outcome: (token, stored dtype,
    float64 widening's bytes) in key order, or the ParseError text. The
    oracle widens each record as it loads; the loader keeps the file's
    float32 row, which must widen to the oracle's bytes."""
    def outcome(load):
        try:
            table = load(path)
        except ParseError as exc:
            return str(exc)
        return [(token, vec.dtype.str, vec.astype(np.float64).tobytes())
                for token, vec in table.entries.items()]
    oracle = outcome(_oracle_load_word2vec_binary)
    if isinstance(oracle, list):
        assert {dtype for _, dtype, _ in oracle} <= {np.dtype(np.float64).str}
        oracle = [(token, F4, widened) for token, _, widened in oracle]
    return oracle, outcome(lambda p: load_embeddings(p, EmbeddingFormat.WORD2VEC_BINARY))


@pytest.fixture(params=[1, 7, "record", "default"])
def chunk_bytes(request, monkeypatch):
    """Sets the loader's block size; "record" is one minimal record, 4·dim+1."""
    def set_for(dim: int) -> None:
        if request.param == "record":
            monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 4 * dim + 1)
        elif request.param != "default":
            monkeypatch.setattr(embeddings, "_CHUNK_BYTES", request.param)
    return set_for


class TestStreamingMatchesOracle:
    @pytest.mark.parametrize("mode", ["always", "never", "mixed"])
    def test_random_files(self, tmp_path, chunk_bytes, mode):
        rng = np.random.default_rng(["always", "never", "mixed"].index(mode))
        path = tmp_path / "vecs.bin"
        repeats = 0
        for _ in range(4):
            vocab, dim = int(rng.integers(0, 30)), int(rng.integers(1, 7))
            chunk_bytes(dim)
            records = random_records(rng, vocab, dim)
            repeats += vocab - len({token for token, _ in records})
            path.write_bytes(w2v_raw(vocab, dim, records,
                                     newline_flags(rng, vocab, mode)))
            oracle, streamed = both_loads(path)
            assert isinstance(oracle, list)
            assert streamed == oracle
        assert repeats > 0

    def test_truncated_at_every_byte(self, tmp_path, chunk_bytes):
        rng = np.random.default_rng(11)
        chunk_bytes(3)
        records = random_records(rng, 5, 3)
        content = w2v_raw(5, 3, records, newline_flags(rng, 5, "mixed"))
        path = tmp_path / "vecs.bin"
        for cut in range(len(content) + 1):
            path.write_bytes(content[:cut])
            oracle, streamed = both_loads(path)
            assert streamed == oracle, cut

    @pytest.mark.parametrize("name", [
        "nan", "inf then bad utf-8", "bad utf-8 then nan", "two non-finite",
        "trailing data", "trailing whitespace", "header short", "header long",
        "header lies", "dim lies"])
    def test_corrupted(self, tmp_path, chunk_bytes, name):
        rng = np.random.default_rng(12)
        dim = 3
        chunk_bytes(dim)
        records = random_records(rng, 6, dim)
        nan = np.array([0.0, np.nan, 1.0], dtype="<f4").tobytes()
        inf = np.array([np.inf, 0.0, 1.0], dtype="<f4").tobytes()
        count, tail = len(records), b""
        if name == "nan":
            records[2] = (records[2][0], nan)
        elif name == "inf then bad utf-8":    # one block at the default size
            records[2] = (records[2][0], inf)
            records[3] = (b"\xff\xfeok", records[3][1])
        elif name == "bad utf-8 then nan":
            records[1] = (b"caf\xc3", records[1][1])
            records[3] = (records[3][0], nan)
        elif name == "two non-finite":
            records[1], records[4] = (records[1][0], inf), (records[4][0], nan)
        elif name == "trailing data":
            tail = b"\n  junk"
        elif name == "trailing whitespace":
            tail = b" \n\t\r\n"
        elif name == "header short":
            count = 4
        elif name == "header long":
            count = 7
        elif name == "header lies":
            count = 1_000_000_000
        path = tmp_path / "vecs.bin"
        content = w2v_raw(count, dim, records, newline_flags(rng, 6, "mixed")) + tail
        if name == "dim lies":
            content = b"2 1000000000000\n" + content[content.index(b"\n") + 1:]
        path.write_bytes(content)
        oracle, streamed = both_loads(path)
        assert streamed == oracle
        assert isinstance(oracle, list) == (name == "trailing whitespace")

    def test_non_finite_record_named(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1.0, 2.0]), ("bad", [np.nan, 0.0])], dim=2))
        with pytest.raises(ParseError, match=r"record 1 \('bad'\) has non-finite"):
            load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)

    def test_lying_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "vecs.bin"
        content = w2v_bytes([("a", np.zeros(300))], dim=300)
        path.write_bytes(b"1000000000 300" + content[content.index(b"\n"):])
        with pytest.raises(ParseError, match="record 1 truncated"):
            load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_lying_header_on_a_pipe_is_a_parse_error(self, tmp_path):
        """A pipe's size is unknown, so no row is sized from its header: a
        claimed 10**11 records end in the truncation error, in small memory."""
        content = w2v_bytes([("a", np.zeros(300))], dim=300)
        content = b"100000000000 300" + content[content.index(b"\n"):]
        fifo = tmp_path / "pipe.bin"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(content)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=rf"^{re.escape(str(fifo))}: "
                               "record 1 truncated"):
                load_embeddings(fifo, EmbeddingFormat.WORD2VEC_BINARY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert peak < 16 * 2**20

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path, monkeypatch, chunk_bytes):
        """A pipe cannot be read twice: its table holds every row from the
        load on and never reads the pipe again."""
        chunk_bytes(5)
        rng = np.random.default_rng(13)
        records = random_records(rng, 40, 5)
        content = w2v_raw(40, 5, records, newline_flags(rng, 40, "mixed"))
        path = tmp_path / "vecs.bin"
        path.write_bytes(content)
        fifo = tmp_path / "pipe.bin"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(content)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            table = load_embeddings(fifo, EmbeddingFormat.WORD2VEC_BINARY)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        oracle = _oracle_load_word2vec_binary(path)

        def no_read(*args):
            raise AssertionError("the table read its file again")
        monkeypatch.setattr(os, "pread", no_read)
        assert list(table.entries) == list(oracle.entries)
        for token, vec in oracle.entries.items():
            assert table.entries[token].dtype.str == F4
            assert table.entries[token].astype(np.float64).tobytes() == vec.tobytes()

    def test_rows_of_one_read_only_matrix(self, tmp_path):
        """Every record reads as the file's float32 row, the one no token
        maps to included; an entry cannot be written, and a gathered matrix
        is the caller's own copy."""
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1, 2]), ("b", [3, 4]), ("a", [5, 6])], dim=2))
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        assert list(table.entries) == ["a", "b"]
        np.testing.assert_array_equal(table.entries["a"], [5.0, 6.0])
        for vec in table.entries.values():
            assert vec.dtype.str == F4 and not vec.flags.writeable
        rows = gather(table, [2, 0, 1, 0])
        assert rows.dtype.str == F4
        assert rows.tolist() == [[5, 6], [1, 2], [3, 4], [1, 2]]
        rows[:] = 0.0
        assert gather(table, [0]).tolist() == [[1, 2]]
        got = lookup(table, "A")
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tobytes() == table.entries["a"].astype(np.float64).tobytes()


SOURCES = ["w2v-bin", "glove-txt", "make_table"]


def table_from(source: str, records: list[tuple[str, list[float]]], dim: int,
               tmp_path: Path) -> EmbeddingTable:
    """A table of float32-exact records, from a file of the source's format
    or from `make_table`. A repeated token keeps its first position and its
    last vector in every source."""
    if source == "w2v-bin":
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes(records, dim))
    elif source == "glove-txt":
        path = tmp_path / "glove.txt"
        path.write_text("".join(
            token + " " + " ".join(repr(float(v)) for v in values) + "\n"
            for token, values in records), encoding="utf-8")
    else:
        return make_table(dict(records), dim)
    return load_embeddings(path, source)


class TestReadOnlyVectors:
    @pytest.mark.parametrize("source", SOURCES)
    def test_lookup_result_cannot_be_written(self, tmp_path, source):
        table = table_from(source, [("w", [1.0, 2.0])], 2, tmp_path)
        with pytest.raises(ValueError, match="read-only"):
            lookup(table, "w")[0] = 1.0
        np.testing.assert_array_equal(lookup(table, "w"), [1.0, 2.0])

    @pytest.mark.parametrize("source", SOURCES)
    def test_entries_view(self, tmp_path, source):
        table = table_from(source, [("b", [1.0, 2.0]), ("a", [3.0, 4.0]),
                                    ("b", [5.0, 6.0])], 2, tmp_path)
        entries = table.entries
        assert len(entries) == len(table) == 2
        assert list(entries) == ["b", "a"]
        assert entries.get("B") is None and "B" not in entries
        assert "a" in entries
        np.testing.assert_array_equal(entries["b"], [5.0, 6.0])
        stored = np.float32 if source == "w2v-bin" else np.float64
        records = [table.index[token] for token in entries]
        assert gather(table, records).dtype == stored
        for token, row in entries.items():
            assert row.dtype == stored and not row.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0
        np.testing.assert_array_equal(gather(table, records),
                                      [[5.0, 6.0], [3.0, 4.0]])
        with pytest.raises(TypeError):
            entries["c"] = np.zeros(2)
        assert lookup(table, "B") is not None      # through "b"

    def test_make_table_leaves_the_callers_array_writeable(self):
        values = np.array([1.0, 2.0])
        table = make_table({"w": values}, dim=2)
        assert values.flags.writeable
        values[0] = 9.0
        np.testing.assert_array_equal(table.entries["w"], [1.0, 2.0])


class TestSourcesAgree:
    def test_outputs_are_byte_identical(self, tmp_path):
        """Tables of the same float32-exact values, from each source, give
        the same bytes from every reader. "The", "Beach", "PLAYED" and "DOG"
        reach a row through the lowercase fallback, "Dog" has its own, and
        "dog" is given twice: each source keeps its last vector, so the
        word2vec table has a record no token maps to."""
        dim = 16
        rng = np.random.default_rng(21)
        records = [(w, rng.standard_normal(dim).astype("<f4"))
                   for w in (*VOCAB, "Dog", "dog")]
        instances = make_instances(12, seed=22) + [ClozeInstance(
            "case", ("The Dog walked to the Beach.", "She liked the dog.",
                     "He PLAYED.", "dog Dog DOG dog."),
            "She smiled at the Dog.", "The Cat ran.", 2)]
        tokens = [tok for inst in instances
                  for text in (*inst.context, inst.ending1, inst.ending2)
                  for tok in tokenize(text)]
        tables = {source: table_from(source, records, dim, tmp_path)
                  for source in SOURCES}
        assert max(tables["w2v-bin"].index.values()) == len(tables["w2v-bin"])
        outputs = {}
        for source, table in tables.items():
            assert lookup(table, "DOG").tobytes() == (
                records[-1][1].astype(np.float64).tobytes())
            embedded = [embed_instance(inst, table) for inst in instances]
            outputs[source] = (
                extract_matrix(instances, table, heuristic_tag,
                               list(FeatureConfig))[0].tobytes(),
                b"".join(part.tobytes() for emb in embedded
                         for part in (emb.story, emb.ending1, emb.ending2)),
                centroid(table, tokens).tobytes(),
                [None if (vec := lookup(table, tok)) is None else vec.tobytes()
                 for tok in tokens])
        assert outputs["w2v-bin"] == outputs["glove-txt"] == outputs["make_table"]


# Run in a fresh interpreter, so that nothing this test process allocated
# hides the loader's high-water mark. `ru_maxrss` would not do: Linux carries
# the parent's high-water mark through fork and exec into the child's, so the
# child reads the high-water mark of its own address space instead. With
# "held", the probe instead prints what the loaded table keeps, as
# tracemalloc counts it: the same bytes on every run, and no allocator
# retention or tracing overhead in them.
_RSS_PROBE = """
import sys, tracemalloc
from clozebase.embeddings import load_embeddings

def high_water():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

if sys.argv[3] == "held":
    tracemalloc.start()
    table = load_embeddings(sys.argv[1], sys.argv[2])
    print(tracemalloc.get_traced_memory()[0])
else:
    before = high_water()
    table = load_embeddings(sys.argv[1], sys.argv[2])
    print(high_water() - before)
"""


def load_cost(path: Path, format: str) -> tuple[int, int]:
    """(the load's high-water growth, the bytes the table keeps)."""
    src = str(Path(clozebase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return tuple(int(subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(path), format, mode], env=env,
        capture_output=True, text=True, timeout=120, check=True).stdout)
        for mode in ("growth", "held"))


def index_bytes(tokens: list[str]) -> int:
    """What a token -> row dict of these tokens measures: its table, and
    each key and value object."""
    index = {token: row for row, token in enumerate(tokens)}
    return (sys.getsizeof(index) + sum(map(sys.getsizeof, index))
            + sum(map(sys.getsizeof, index.values())))


# A table keeps its index, and each word costs what the index measures, with
# 25 % headroom: one array object per word would break that. A word2vec
# table read from a file adds one int64 file offset per record and no row.
# The load's peak adds the buffers it reads through.
INDEX_HEADROOM = 1.25
needs_proc = pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                                reason="needs the Linux /proc high-water mark")


def write_table(path: Path, vocab: int, dim: int) -> tuple[list[str], np.ndarray]:
    """A word2vec file of `vocab` seeded float32 rows; its tokens and rows."""
    rng = np.random.default_rng(5)
    payload = rng.standard_normal((vocab, dim)).astype("<f4")
    tokens = [f"word{i}" for i in range(vocab)]
    with open(path, "wb") as handle:
        handle.write(f"{vocab} {dim}\n".encode("ascii"))
        for token, row in zip(tokens, payload):
            handle.write(token.encode("ascii") + b" " + row.tobytes() + b"\n")
    return tokens, payload


@needs_proc
def test_load_peak_is_close_to_the_matrix(tmp_path):
    vocab = 20_000
    path = tmp_path / "vecs.bin"
    tokens, _ = write_table(path, vocab, 300)
    growth, held = load_cost(path, "w2v-bin")
    # one file offset per record, plus the index: the load keeps no row
    bound = 8 * vocab + INDEX_HEADROOM * index_bytes(tokens)
    assert 0 < held <= bound, held / bound
    # six blocks: the unparsed bytes, the next block and their
    # concatenation, which are live at once, the copy of a block's vectors
    # that the finiteness check reads, and two that the allocator keeps of
    # freed ones
    bound += 6 * embeddings._CHUNK_BYTES
    assert 0 < growth <= bound, growth / bound


def test_reading_rows_keeps_only_those_rows(tmp_path):
    vocab, dim = 20_000, 300
    path = tmp_path / "vecs.bin"
    _, payload = write_table(path, vocab, dim)
    table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
    first, second = np.split(np.random.default_rng(7).permutation(vocab)[:1000], 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = []
        for batch in (first, first, second):
            assert gather(table, batch).tobytes() == payload[batch].tobytes()
            kept.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    rows = 4 * dim * np.array([500, 500, 1000])
    assert (rows <= kept).all() and (kept <= rows + (64 << 10)).all(), kept


class TestReadOnFirstUse:
    """A word2vec table loaded from a regular file reads each row from the
    file the first time it is asked for."""

    def test_rows_match_the_oracle(self, tmp_path, chunk_bytes):
        rng = np.random.default_rng(14)
        vocab, dim = 60, 5
        chunk_bytes(dim)
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_raw(vocab, dim, random_records(rng, vocab, dim),
                                 newline_flags(rng, vocab, "mixed")))
        oracle = _oracle_load_word2vec_binary(path)
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        tokens = list(oracle.entries)
        for _ in range(4):       # overlapping batches in any order, repeats too
            batch = [tokens[i] for i in rng.integers(len(tokens), size=20)]
            rows = gather(table, [table.index[token] for token in batch])
            assert rows.dtype.str == F4
            assert rows.astype(np.float64).tobytes() == b"".join(
                oracle.entries[token].tobytes() for token in batch)

    def test_concurrent_reads_read_each_row_once(self, tmp_path, monkeypatch):
        vocab, dim = 400, 3
        path = tmp_path / "vecs.bin"
        tokens, payload = write_table(path, vocab, dim)
        reads = []
        pread = os.pread

        def counted(fd, size, at):
            reads.append(at)
            return pread(fd, size, at)
        monkeypatch.setattr(os, "pread", counted)
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        assert reads == []
        rng = np.random.default_rng(16)
        batches = [rng.integers(vocab, size=30) for _ in range(64)]
        wrong = []

        def work(mine):
            for batch in mine:
                if gather(table, batch).tobytes() != payload[batch].tobytes():
                    wrong.append(batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(batches[i::8],))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(reads) == len(set(reads)) == len(np.unique(batches))

    def test_unlinked_file_still_reads(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1, 2]), ("b", [3, 4])], dim=2))
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        path.unlink()
        np.testing.assert_array_equal(table.entries["b"], [3.0, 4.0])

    @pytest.mark.parametrize("change", ["grown", "truncated", "touched",
                                        "non-finite in place"])
    def test_changed_file_is_refused(self, tmp_path, change):
        path = tmp_path / "vecs.bin"
        content = w2v_bytes([("a", [1, 2, 3]), ("b", [4, 5, 6])], dim=3)
        path.write_bytes(content)
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        np.testing.assert_array_equal(table.entries["a"], [1.0, 2.0, 3.0])
        info = os.stat(path)
        if change == "grown":
            with open(path, "ab") as handle:
                handle.write(b"\n")
        elif change == "truncated":
            os.truncate(path, len(content) - 4)
        elif change == "touched":
            os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))
        else:                # the same size and modification time as loaded
            with open(path, "r+b") as handle:
                handle.seek(content.index(b"b ") + 2)
                handle.write(np.float32(np.nan).tobytes())
            os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           "file changed after it was loaded$"):
            table.entries["b"]
        # a row read before the change still reads
        np.testing.assert_array_equal(table.entries["a"], [1.0, 2.0, 3.0])

    def test_descriptor_closed_with_the_table(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1, 2])], dim=2))
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        fd = table._file.fd
        os.fstat(fd)
        del table
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(fd)


@needs_proc
def test_glove_load_peak_is_close_to_the_matrix(tmp_path):
    vocab, dim = 20_000, 8
    rng = np.random.default_rng(6)
    tokens = [f"word{i}" for i in range(vocab)]
    path = tmp_path / "glove.txt"
    with open(path, "w") as handle:
        for token, row in zip(tokens, rng.standard_normal((vocab, dim))):
            handle.write(token + " " + " ".join(map(repr, row.tolist())) + "\n")
    growth, held = load_cost(path, "glove-txt")
    # the float64 matrix, which its growing buffer over-allocates by up to
    # 1/16, plus the index
    bound = 8 * vocab * dim * 17 / 16 + INDEX_HEADROOM * index_bytes(tokens)
    assert 0 < held <= bound, held / bound
    # the file reader's buffer and one line's arrays
    bound += 1 << 20
    assert 0 < growth <= bound, growth / bound


class TestGloveText:
    def test_three_by_four_fixture(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("cat 1 2 3 4\ndog 5 6 7 8\nfish -1 -2 -3 -4\n")
        table = load_embeddings(path, EmbeddingFormat.GLOVE_TEXT)
        assert table.dim == 4
        assert len(table) == 3
        np.testing.assert_array_equal(table.entries["dog"],
                                      [5.0, 6.0, 7.0, 8.0])

    def test_round_trip_through_text(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = {f"w{i}": rng.standard_normal(5) for i in range(4)}
        path = tmp_path / "glove.txt"
        with open(path, "w") as handle:
            for token, vec in entries.items():
                handle.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")
        table = load_embeddings(path, "glove-txt")
        for token, vec in entries.items():
            np.testing.assert_array_equal(table.entries[token], vec)

    def test_inconsistent_width_names_line(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("a 1 2 3\nb 1 2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(path, EmbeddingFormat.GLOVE_TEXT)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("a 1 2\nb 1 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(path, EmbeddingFormat.GLOVE_TEXT)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("a 1 nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_embeddings(path, EmbeddingFormat.GLOVE_TEXT)

    @pytest.mark.parametrize("text, message", [
        ("a 1 2\n\nb 3 4\n", "empty record at line 2"),
        ("a\nb 1 2\n", "line 1 has a token but no values"),
    ])
    def test_bad_record_names_line(self, tmp_path, text, message):
        path = tmp_path / "glove.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           f"{message}$"):
            load_embeddings(path, EmbeddingFormat.GLOVE_TEXT)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_embeddings(path, EmbeddingFormat.GLOVE_TEXT)


class TestMakeTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            make_table({"a": [1.0, 2.0]}, dim=3)

    def test_finiteness_validation(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_table({"a": [1.0, float("inf")]}, dim=2)

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            make_table({}, dim=0)


class TestTableConstruction:
    def test_rows_of_another_width_refused(self):
        with pytest.raises(ValueError,
                           match=r"rows of shape \(2, 2\) are not 3-d"):
            EmbeddingTable(3, np.zeros((2, 2)), {"a": 0, "b": 1})

    @pytest.mark.parametrize("row", [-1, 2, 5, 1.5])
    def test_index_outside_the_rows_refused(self, row):
        with pytest.raises(ValueError,
                           match=f"index maps 'b' to row {row} of 2 rows"):
            EmbeddingTable(2, np.zeros((2, 2)), {"a": 0, "b": row})


class TestLookup:
    def test_exact_hit(self, table):
        got = lookup(table, "dog")
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tobytes() == gather(table, [table.index["dog"]])[0].tobytes()
        assert got.tobytes() == table.entries["dog"].tobytes()

    def test_lowercase_fallback(self, table):
        np.testing.assert_array_equal(lookup(table, "Dog"),
                                      table.entries["dog"])

    def test_miss_returns_none(self, table):
        assert lookup(table, "zzqx0") is None


class TestCentroid:
    def test_mean_of_resolved(self, table):
        tokens = ["dog", "cat", "zzqx0"]
        expected = (table.entries["dog"] + table.entries["cat"]) / 2
        np.testing.assert_allclose(centroid(table, tokens), expected,
                                   rtol=0, atol=1e-15)

    def test_all_oov_is_zero(self, table):
        np.testing.assert_array_equal(centroid(table, ["zzqx0", "zzqx1"]),
                                      np.zeros(table.dim))

    def test_empty_is_zero(self, table):
        np.testing.assert_array_equal(centroid(table, []), np.zeros(table.dim))

    def test_is_the_mean_vector_of_its_rows(self, table):
        tokens = ["dog", "cat", "zzqx0", "Dog", "the"]
        rows = gather(table, [table.index[t.lower()] for t in tokens
                              if t.lower() in table.index])
        assert centroid(table, tokens).tobytes() == (
            oracle_mean_vector(list(rows), table.dim).tobytes())


# ---------------------------------------------------------------------------
# Oracles: the row means that `mean_rows` replaced, kept as they were. The
# centroid took `mean_vector` of its vectors; the feature code divided
# `sum_rows` of a float64 matrix by the row count into a zero row, and left
# the zero row for no rows.
# ---------------------------------------------------------------------------

def oracle_sum_rows(rows):
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0, initial=0.0)
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def oracle_mean_vector(vectors, dim):
    if len(vectors) == 0:
        return np.zeros(dim)
    return oracle_sum_rows(np.array(vectors, dtype=np.float64)) / len(vectors)


def oracle_divided_sum(rows):
    out = np.zeros(rows.shape[1])
    if len(rows):
        np.divide(oracle_sum_rows(rows), len(rows), out=out)
    return out


def spread_rows(n, dim, dtype, seed):
    """Rows of mixed signs and magnitudes, whose sums round differently in
    another order."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-8, 8, (n, dim))
    return rows.astype(dtype)


class TestMeanRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dim", [1, 2, 7])
    @pytest.mark.parametrize("n", [0, 1, 3, 200])
    def test_equals_the_replaced_means(self, dtype, dim, n):
        rows = spread_rows(n, dim, dtype, seed=100 * dim + n)
        got = mean_rows(rows)
        assert got.dtype == np.float64 and got.shape == (dim,)
        assert got.tobytes() == oracle_mean_vector(list(rows), dim).tobytes()
        assert got.tobytes() == oracle_divided_sum(
            rows.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_negative_zero_rows(self, dtype, dim):
        zeros = np.full((3, dim), -0.0, dtype=dtype)
        mixed = np.concatenate([zeros, spread_rows(2, dim, dtype, seed=7),
                                zeros])
        for rows in (zeros, mixed, zeros[:1]):
            got = mean_rows(rows)
            assert got.tobytes() == oracle_mean_vector(list(rows), dim).tobytes()
            assert got.tobytes() == oracle_divided_sum(
                rows.astype(np.float64)).tobytes()
        # added from +0.0, as a `+=` loop adds them: never a -0.0
        assert not np.signbit(mean_rows(zeros)).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", [np.asfortranarray,
                                        lambda rows: rows[::2]])
    def test_any_memory_layout_is_added_row_by_row(self, dtype, layout):
        # numpy reduces the contiguous axis of such a matrix pairwise
        rows = layout(spread_rows(200, 3, dtype, seed=11))
        assert not rows.flags.c_contiguous
        assert mean_rows(rows).tobytes() == oracle_mean_vector(
            list(rows), 3).tobytes()

    def test_single_column_is_added_in_order(self):
        # numpy's own sum of one column is pairwise, and rounds otherwise
        rows = spread_rows(200, 1, np.float64, seed=3)
        assert mean_rows(rows)[0] != rows[:, 0].sum() / len(rows)


def cosine(a, b):
    """The cosine of two vectors, as the feature code takes it."""
    a, b = a[None, :], b[None, :]
    return float(features._cosines(a, features._norms(a),
                                   b, features._norms(b))[0, 0])


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_opposite(self):
        v = np.array([1.0, -2.0])
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_norm_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.standard_normal(8), rng.standard_normal(8)
            manual = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cosine(a, b) == pytest.approx(manual, abs=1e-15)
