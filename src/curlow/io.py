"""Dense-matrix file formats.

The MatrixMarket array convention and a small CSV dialect with a
`# rows=R cols=C` header. The writer serializes doubles with 17
significant digits so a write/read round trip is bit-exact, and identical
inputs always produce identical bytes.
"""
from __future__ import annotations

import os

import numpy as np

from .linalg import as_matrix

DENSE_BANNER = "%%MatrixMarket matrix array real general"

_FORMATS = ("dense-array", "csv")


class ParseError(Exception):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(token: str, path, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(path, line_no, f"non-numeric token {token!r}") from None


def _parse_int(token: str, path, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, line_no, f"{what} must be an integer, got {token!r}") from None


def write_matrix(M, path, format: str = "dense-array") -> None:
    A = as_matrix(M)
    n, m = A.shape
    if format == "dense-array":
        lines = [DENSE_BANNER, f"{n} {m}"]
        for j in range(m):
            for i in range(n):
                lines.append(_fmt(A[i, j]))
    elif format == "csv":
        lines = [f"# rows={n} cols={m}"]
        for i in range(n):
            lines.append(",".join(_fmt(v) for v in A[i, :]))
    else:
        raise ValueError(f"format must be one of {_FORMATS}, got {format!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_dense_array(lines: list[str], path) -> np.ndarray:
    body = [(k + 1, ln.strip()) for k, ln in enumerate(lines)]
    it = iter(body)
    line_no, first = next(it)
    if not first.startswith("%%MatrixMarket"):
        raise ParseError(path, line_no, "missing MatrixMarket banner")
    if first != DENSE_BANNER:
        raise ParseError(path, line_no, f"unsupported header {first!r}")
    dims = None
    for line_no, text in it:
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, line_no, "size line must be 'n m'")
        dims = (_parse_int(parts[0], path, line_no, "row count"),
                _parse_int(parts[1], path, line_no, "column count"))
        break
    if dims is None:
        raise ParseError(path, len(body), "missing size line")
    n, m = dims
    if n < 1 or m < 1:
        raise ParseError(path, line_no, f"dimensions must be positive, got {n} {m}")
    values = []
    for line_no, text in it:
        if not text or text.startswith("%"):
            continue
        values.append(_parse_float(text, path, line_no))
        if len(values) > n * m:
            raise ParseError(path, line_no, f"more than {n * m} entries")
    if len(values) != n * m:
        raise ParseError(path, len(body), f"expected {n * m} entries, found {len(values)}")
    return np.asarray(values, dtype=np.float64).reshape((m, n)).T


def _read_csv_matrix(lines: list[str], path) -> np.ndarray:
    header = lines[0].strip()
    parts = header.lstrip("#").split()
    fields = dict(p.split("=", 1) for p in parts if "=" in p)
    if not header.startswith("#") or set(fields) != {"rows", "cols"}:
        raise ParseError(path, 1, "header must be '# rows=R cols=C'")
    n = _parse_int(fields["rows"], path, 1, "rows")
    m = _parse_int(fields["cols"], path, 1, "cols")
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
        rows.append([_parse_float(c, path, k) for c in cells])
    if len(rows) != n:
        raise ParseError(path, len(lines), f"expected {n} rows, found {len(rows)}")
    return np.asarray(rows, dtype=np.float64)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    if lines[0].startswith("%%"):
        return _read_dense_array(lines, path)
    if lines[0].startswith("#"):
        return _read_csv_matrix(lines, path)
    raise ParseError(path, 1, "unrecognized matrix header")


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
