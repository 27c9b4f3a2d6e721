import numpy as np
import pytest

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
