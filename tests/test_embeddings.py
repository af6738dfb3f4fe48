from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import clozebase
from clozebase import embeddings, features
from clozebase.embeddings import (EmbeddingFormat, EmbeddingTable, centroid,
                                  load_embeddings, lookup, make_table)
from clozebase.errors import ParseError


# ---------------------------------------------------------------------------
# Oracle: the loader that read the whole file into one bytes object and kept
# one float64 array per record, word for word. The streaming loader must give
# the same vectors to the bit, the same key order and the same errors.
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
    return EmbeddingTable(dim=dim, entries=entries)


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
        np.testing.assert_array_equal(table.entries["tok"], expected)
        assert table.entries["tok"].dtype == np.float64

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


def both_loads(path: Path) -> tuple[object, object]:
    """The oracle's and `load_embeddings`' outcome: (token, dtype, vector
    bytes) in key order, or the ParseError text."""
    def outcome(load):
        try:
            table = load(path)
        except ParseError as exc:
            return str(exc)
        return [(token, vec.dtype.str, vec.tobytes())
                for token, vec in table.entries.items()]
    return (outcome(_oracle_load_word2vec_binary),
            outcome(lambda p: load_embeddings(p, EmbeddingFormat.WORD2VEC_BINARY)))


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
    def test_reads_from_a_pipe(self, tmp_path):
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
        assert list(table.entries) == list(oracle.entries)
        for token, vec in oracle.entries.items():
            assert table.entries[token].tobytes() == vec.tobytes()

    def test_rows_of_one_read_only_matrix(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(w2v_bytes([("a", [1, 2]), ("b", [3, 4]), ("a", [5, 6])], dim=2))
        table = load_embeddings(path, EmbeddingFormat.WORD2VEC_BINARY)
        assert list(table.entries) == ["a", "b"]
        np.testing.assert_array_equal(table.entries["a"], [5.0, 6.0])
        bases = {id(vec.base) for vec in table.entries.values()}
        assert len(bases) == 1
        assert lookup(table, "A") is table.entries["a"]


class TestReadOnlyVectors:
    @pytest.mark.parametrize("source", ["w2v-bin", "glove-txt", "make_table"])
    def test_lookup_result_cannot_be_written(self, tmp_path, source):
        if source == "w2v-bin":
            path = tmp_path / "vecs.bin"
            path.write_bytes(w2v_bytes([("w", [1.0, 2.0])], dim=2))
            table = load_embeddings(path, source)
        elif source == "glove-txt":
            path = tmp_path / "glove.txt"
            path.write_text("w 1 2\n")
            table = load_embeddings(path, source)
        else:
            table = make_table({"w": [1.0, 2.0]}, dim=2)
        with pytest.raises(ValueError, match="read-only"):
            lookup(table, "w")[0] = 1.0
        np.testing.assert_array_equal(lookup(table, "w"), [1.0, 2.0])

    def test_make_table_leaves_the_callers_array_writeable(self):
        values = np.array([1.0, 2.0])
        table = make_table({"w": values}, dim=2)
        assert values.flags.writeable
        values[0] = 9.0
        np.testing.assert_array_equal(table.entries["w"], [1.0, 2.0])


# Run in a fresh interpreter, so that nothing this test process allocated
# hides the loader's high-water mark. `ru_maxrss` would not do: Linux carries
# the parent's high-water mark through fork and exec into the child's, so the
# child reads the high-water mark of its own address space instead.
_RSS_PROBE = """
import sys
from clozebase.embeddings import load_embeddings

def high_water():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

before = high_water()
table = load_embeddings(sys.argv[1], "w2v-bin")
print(high_water() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="needs the Linux /proc high-water mark")
def test_load_peak_is_close_to_the_matrix(tmp_path):
    vocab, dim = 20_000, 300
    rng = np.random.default_rng(5)
    payload = rng.standard_normal((vocab, dim)).astype("<f4")
    path = tmp_path / "vecs.bin"
    with open(path, "wb") as handle:
        handle.write(f"{vocab} {dim}\n".encode("ascii"))
        for i in range(vocab):
            handle.write(f"word{i} ".encode("ascii") + payload[i].tobytes() + b"\n")
    src = str(Path(clozebase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    growth = int(done.stdout)
    matrix_bytes = 8 * vocab * dim
    assert 0 < growth <= 1.3 * matrix_bytes, growth / matrix_bytes


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


class TestLookup:
    def test_exact_hit(self, table):
        assert lookup(table, "dog") is table.entries["dog"]

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
