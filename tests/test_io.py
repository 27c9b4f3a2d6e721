import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curlow import io
from curlow.io import (
    DENSE_BANNER,
    ParseError,
    read_matrix,
    write_matrix,
)


def test_identity_round_trip_dense(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix(np.eye(2), path)
    lines = path.read_text().splitlines()
    assert lines[0] == DENSE_BANNER
    assert lines[1].split() == ["2", "2"]
    # column-major entry order
    assert [float(x) for x in lines[2:]] == [1.0, 0.0, 0.0, 1.0]
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_csv_header_and_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    M = np.arange(6, dtype=float).reshape(2, 3)
    write_matrix(M, path, format="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "# rows=2 cols=3"
    assert lines[1] == "0,1,2"
    assert np.array_equal(read_matrix(path), M)


def test_random_round_trip_is_bitwise_both_formats(tmp_path):
    g = np.random.default_rng(1)
    M = g.standard_normal((50, 40)) * np.exp(g.uniform(-8, 8, size=(50, 40)))
    for fmt, name in (("dense-array", "m.mtx"), ("csv", "m.csv")):
        path = tmp_path / name
        write_matrix(M, path, format=fmt)
        back = read_matrix(path)
        assert back.shape == M.shape
        assert np.array_equal(back, M)  # 17 significant digits: bit-exact


def _one_shot_text(M, fmt):
    """The file text built whole, as the writer did before it streamed."""
    n, m = M.shape
    if fmt == "dense-array":
        lines = [DENSE_BANNER, f"{n} {m}", *map("{:.17g}".format, M.T.ravel().tolist())]
    else:
        lines = [f"# rows={n} cols={m}"]
        lines += [",".join(map("{:.17g}".format, row)) for row in M.tolist()]
    return "\n".join(lines) + "\n"


def test_streamed_writer_matches_the_one_shot_text(tmp_path, monkeypatch):
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    M = np.random.default_rng(3).standard_normal((7, 5))
    M.ravel()[[0, 9, 17, 34]] = extremes
    # 8 entries a block: one column (dense-array) or one row (csv) at a time
    monkeypatch.setattr(io, "BLOCK_ENTRIES", 8)
    for fmt in ("dense-array", "csv"):
        path = tmp_path / f"m.{fmt}"
        write_matrix(M, path, format=fmt)
        assert path.read_bytes() == _one_shot_text(M, fmt).encode("ascii")
        assert np.array_equal(read_matrix(path), M)
        assert [str(x) for x in read_matrix(path).ravel()[[0, 9, 17, 34]]] \
            == ["-0.0", "5e-324", "1.7976931348623157e+308",
                "-1.7976931348623157e+308"]


def test_writer_holds_one_block_of_text(tmp_path):
    # 4 blocks of 2^16 entries; the text of the whole matrix, built at
    # once, would take 15 MB (csv) to 29 MB (dense-array)
    M = np.random.default_rng(4).standard_normal((512, 512))
    for fmt in ("dense-array", "csv"):
        tracemalloc.start()
        try:
            write_matrix(M, tmp_path / "m.out", format=fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * io.BLOCK_ENTRIES, (fmt, peak)
        assert (tmp_path / "m.out").read_bytes() \
            == _one_shot_text(M, fmt).encode("ascii")


def test_writer_is_byte_deterministic(tmp_path):
    g = np.random.default_rng(2)
    M = g.standard_normal((10, 7))
    p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(M, p1)
    write_matrix(M, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(np.eye(2), tmp_path / "m.x", format="json")


def test_dense_bad_banner(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2\n1\n1\n1\n1\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert err.value.line_no == 1


def test_dense_wrong_entry_count(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text(f"{DENSE_BANNER}\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_dense_non_numeric_entry_reports_line(tmp_path):
    path = tmp_path / "junk.mtx"
    path.write_text(f"{DENSE_BANNER}\n2 1\n1.0\nbogus\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert err.value.line_no == 4
    assert "bogus" in str(err.value)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# rows=2 cols=3\n1,2,3\n4,5\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_csv_dimension_mismatch_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("# rows=3 cols=2\n1,2\n3,4\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "nope.mtx")


def test_non_ascii_byte_names_its_file_and_line(tmp_path, monkeypatch):
    cases = [
        ("head.mtx", b"%%MatrixMarket matrix array real g\xc3n\n", 1, 0xC3),
        ("note.mtx", f"{DENSE_BANNER}\n2 1\n1\n% caf\xe9\n2\n".encode("latin-1"), 4, 0xE9),
        ("entry.mtx", f"{DENSE_BANNER}\n2 1\n1\n2\xc3\n".encode("latin-1"), 4, 0xC3),
        ("row.csv", b"# rows=2 cols=2\n1,2\n3,\x804\n", 3, 0x80),
    ]
    # 3 characters a block: the byte is found by the block that holds it
    monkeypatch.setattr(io, "BLOCK_CHARS", 3)
    for name, raw, line_no, byte in cases:
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert str(err.value) == f"{path}:{line_no}: non-ASCII byte {byte:#04x}"


# --- the streamed reader against the whole-file reader it replaced ------------


def _whole_file_reader(path):
    """The reader before it streamed: the whole text, then its lines."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    if lines[0].startswith("%%"):
        return _whole_file_dense_array(lines, path)
    if lines[0].startswith("#"):
        return _whole_file_csv(lines, path)
    raise ParseError(path, 1, "unrecognized matrix header")


def _whole_file_dense_array(lines, path):
    first = lines[0].strip()
    if not first.startswith("%%MatrixMarket"):
        raise ParseError(path, 1, "missing MatrixMarket banner")
    if first != DENSE_BANNER:
        raise ParseError(path, 1, f"unsupported header {first!r}")
    dims = None
    for line_no, ln in enumerate(lines[1:], start=2):
        text = ln.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, line_no, "size line must be 'n m'")
        dims = (io._parse_int(parts[0], path, line_no, "row count"),
                io._parse_int(parts[1], path, line_no, "column count"))
        break
    if dims is None:
        raise ParseError(path, len(lines), "missing size line")
    n, m = dims
    if n < 1 or m < 1:
        raise ParseError(path, line_no, f"dimensions must be positive, got {n} {m}")
    try:
        values = list(map(float, lines[line_no:]))
    except ValueError:
        values = None
    if values is None or len(values) != n * m:
        values = _whole_file_scan(lines, line_no, n * m, path)
    return np.asarray(values, dtype=np.float64).reshape((m, n)).T


def _whole_file_scan(lines, start, count, path):
    values = []
    for line_no, ln in enumerate(lines[start:], start=start + 1):
        text = ln.strip()
        if not text or text.startswith("%"):
            continue
        values.append(io._parse_float(text, path, line_no))
        if len(values) > count:
            raise ParseError(path, line_no, f"more than {count} entries")
    if len(values) != count:
        raise ParseError(path, len(lines), f"expected {count} entries, found {len(values)}")
    return values


def _whole_file_csv(lines, path):
    header = lines[0].strip()
    parts = header.lstrip("#").split()
    fields = dict(p.split("=", 1) for p in parts if "=" in p)
    if not header.startswith("#") or set(fields) != {"rows", "cols"}:
        raise ParseError(path, 1, "header must be '# rows=R cols=C'")
    n = io._parse_int(fields["rows"], path, 1, "rows")
    m = io._parse_int(fields["cols"], path, 1, "cols")
    if n < 1 or m < 1:
        raise ParseError(path, 1, f"dimensions must be positive, got {n} {m}")
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        text = ln.strip()
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != m:
            raise ParseError(path, k, f"expected {m} columns, found {len(cells)}")
        rows.append([io._parse_float(c, path, k) for c in cells])
        if len(rows) > n:
            raise ParseError(path, k, f"more than {n} rows")
    if len(rows) != n:
        raise ParseError(path, len(lines), f"expected {n} rows, found {len(rows)}")
    return np.asarray(rows, dtype=np.float64)


_TOKENS = ["0", "-0.0", "1", "2.5e-3", " 7 ", "1_0", "inf", "-inf", "nan",
           "1e999", "\t3", "\x1f4"]
_BAD_TOKENS = ["1x", "", "  ", "%c", "1 2", "1,2", "--1", "0x1"]
_EXTRA_LINES = ["", "   ", "% note", "%%", "\t"]
_BREAKS = ["\n", "\r\n", "\r", "\f", "\v"]


@st.composite
def matrix_files(draw):
    """The bytes of a small dense-array or CSV file, whose lines end in any
    mix of line breaks; about half are malformed."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    faulty = draw(st.booleans())
    token = st.sampled_from(_TOKENS + _BAD_TOKENS * faulty)
    extra = st.sampled_from(_EXTRA_LINES)
    spread = int(faulty)  # too few or too many entries or cells
    dense = draw(st.booleans())
    if dense:
        head = [DENSE_BANNER, *draw(st.lists(extra, max_size=2)), f"{n} {m}"]
        body = draw(st.lists(token, min_size=n * m - spread,
                             max_size=n * m + spread))
    else:
        # blank lines are skipped; a comment line is a malformed row
        extra = extra if faulty else st.sampled_from(["", "   "])
        head = [f"# rows={n} cols={m}"]
        widths = draw(st.lists(st.integers(m - spread, m + spread),
                               min_size=n - spread, max_size=n + spread))
        body = [",".join(draw(st.lists(token, min_size=k, max_size=k)))
                for k in widths]
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(extra))
    lines = head + body
    ends = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(a + b for a, b in zip(lines, ends)).encode("ascii")


def _outcome(read, path):
    """The array's bits, shape, strides and flags, or the ParseError text."""
    try:
        A = read(path)
    except ParseError as exc:
        return str(exc)
    return (A.tobytes(order="A"), A.shape, A.strides, A.flags.c_contiguous,
            A.flags.f_contiguous)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(raw=matrix_files(), block_chars=st.integers(1, 8),
       chunk_bytes=st.integers(1, 8))
# a "1\f2" line holds two entries; "\r\n" split by the decoder's reads
@example(raw=f"{DENSE_BANNER}\n2 1\n1\f2\n".encode(), block_chars=2, chunk_bytes=3)
@example(raw=f"{DENSE_BANNER}\r\n1 2\r\n3\r\n4\r\n".encode(),
         block_chars=1, chunk_bytes=1)
# a read that stops right after a "\f", then a line longer than a block,
# which the rest of the read crosses past a "\v" to its "\n"
@example(raw=f"{DENSE_BANNER}\n3 1\n1\f2.500\v-3.25e-1\n".encode(),
         block_chars=2, chunk_bytes=3)
# a last line longer than a block with no line break after it
@example(raw=f"{DENSE_BANNER}\n1 1\n-1.2500".encode(), block_chars=2,
         chunk_bytes=3)
@example(raw=b"# rows=1 cols=3\n1,2.5,-3.75", block_chars=4, chunk_bytes=2)
# a row past the header's count, parsed in one pass and line by line
@example(raw=b"# rows=1 cols=2\n1,2\n3,4\n5,x\n", block_chars=8, chunk_bytes=3)
@example(raw=b"# rows=2 cols=1\n1\n\n2\n3\n", block_chars=8, chunk_bytes=3)
# ragged rows whose cells total n*m, which a check of the block's cell count
# alone would read as [[1, 2], [3, 4]]
@example(raw=b"# rows=2 cols=2\n1,2,3\n4\n", block_chars=8, chunk_bytes=3)
# a width-1 CSV row still splits at commas; a dense-array entry does not
@example(raw=b"# rows=1 cols=1\n1,2\n", block_chars=8, chunk_bytes=3)
@example(raw=f"{DENSE_BANNER}\n1 1\n1,2\n".encode(), block_chars=8, chunk_bytes=3)
# a comment sends a dense-array block with an entry too many down the scan
@example(raw=f"{DENSE_BANNER}\n2 1\n1\n% note\n2\n3\n".encode(), block_chars=64,
         chunk_bytes=3)
def test_streamed_reader_matches_the_whole_file_reader(tmp_path_factory, raw,
                                                       block_chars,
                                                       chunk_bytes):
    path = tmp_path_factory.mktemp("eq") / "m.txt"
    path.write_bytes(raw)
    expect = _outcome(_whole_file_reader, path)

    def small_reads(*args, **kwargs):
        # the text layer decodes chunk_bytes bytes a time, so "\r" and "\n"
        # can arrive in different reads
        fh = open(*args, **kwargs)
        fh._CHUNK_SIZE = chunk_bytes
        return fh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "BLOCK_CHARS", block_chars)
        mp.setattr(io, "open", small_reads, raising=False)
        assert _outcome(read_matrix, path) == expect


# --- memory -------------------------------------------------------------------


def test_reader_holds_the_result_and_a_block(tmp_path):
    # 300 x 300 random entries of 17 digits: a 1.8 MB file, 7 blocks; the
    # whole-file reader peaked near 15 times the result's 0.72 MB
    M = np.random.default_rng(6).standard_normal((300, 300))
    path = tmp_path / "m.mtx"
    write_matrix(M, path)
    tracemalloc.start()
    try:
        A = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(A, M)
    # the blocks and their concatenation, and the text and line strings of
    # the block being parsed and the next one being read
    assert peak < 2 * A.nbytes + 16 * io.BLOCK_CHARS, peak


def test_reader_buffers_what_it_reads_not_what_the_header_says(tmp_path):
    path = tmp_path / "huge.mtx"
    path.write_text(f"{DENSE_BANNER}\n1000000000 1000000000\n1.0\n2.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}:4: expected 1000000000000000000 entries, found 2"
    assert peak < 4 * io.BLOCK_CHARS, peak


def test_csv_reader_stops_at_the_first_row_past_the_header(tmp_path):
    # a million rows under a one-row header: refused at the second row,
    # after one block, not after parsing the body's 32 MB of cells
    path = tmp_path / "long.csv"
    path.write_text("# rows=1 cols=4\n" + "1,2,3,4\n" * 1_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}:3: more than 1 rows"
    assert peak < 16 * io.BLOCK_CHARS, peak


def test_dense_reader_stops_at_the_first_entry_past_the_header(tmp_path):
    # a million entries under a 1 x 1 header: refused at the second entry,
    # after parsing two lines of one block. The block's ~65k line strings
    # dominate the peak: 4.52 MB measured, against 5.04 MB when the whole
    # block was parsed before its count was checked
    path = tmp_path / "long.mtx"
    path.write_text(f"{DENSE_BANNER}\n1 1\n" + "1.5\n" * 1_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}:4: more than 1 entries"
    assert peak < 18 * io.BLOCK_CHARS, peak
