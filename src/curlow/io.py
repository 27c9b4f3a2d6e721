"""Dense-matrix file formats.

The MatrixMarket array convention and a small CSV dialect with a
`# rows=R cols=C` header. The writer serializes doubles with 17
significant digits so a write/read round trip is bit-exact, and identical
inputs always produce identical bytes. Neither side holds the text of a
large matrix whole: the writer formats and writes about BLOCK_ENTRIES
entries at a time, and the reader parses about BLOCK_CHARS characters of
whole lines at a time into float64 blocks.
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


# applied to Python floats from .tolist(), for which it gives the text of
# format(x, ".17g")
_fmt = "{:.17g}".format

# entries formatted per write: whole rows of the written layout (columns of
# M in dense-array), at least one
BLOCK_ENTRIES = 2**16

# characters read per block of lines
BLOCK_CHARS = 2**18


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
        # column-major, one entry a line
        head, rows, sep = f"{DENSE_BANNER}\n{n} {m}", A.T, "\n"
    elif format == "csv":
        head, rows, sep = f"# rows={n} cols={m}", A, ","
    else:
        raise ValueError(f"format must be one of {_FORMATS}, got {format!r}")
    step = max(1, BLOCK_ENTRIES // rows.shape[1])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head + "\n")
        for start in range(0, rows.shape[0], step):
            fh.write("".join(sep.join(map(_fmt, row)) + "\n"
                             for row in rows[start:start + step].tolist()))


def _check_ascii(line: str, path, line_no: int) -> None:
    if not line.isascii():
        # read with surrogateescape: a byte b >= 0x80 arrives as U+DC00 + b
        bad = next(c for c in line if not c.isascii())
        raise ParseError(path, line_no, f"non-ASCII byte {ord(bad) - 0xDC00:#04x}")


class _Lines:
    """The lines of a text file as str.splitlines() splits its whole text,
    read about BLOCK_CHARS characters at a time. Each read runs on to a
    "\n", to which universal newlines turn "\r\n" and "\r", or to the end
    of the file; "\n" ends a line for str.splitlines() too, so no block
    cuts a line. `line_no` is the number of lines handed out so far; at
    the end of the file, all of them."""

    def __init__(self, fh, path):
        self._fh, self._path = fh, path
        self._block: list[str] = []
        self._pos = 0
        self.line_no = 0

    def _fill(self) -> bool:
        """Read the next block of whole lines; False at the end of the file."""
        text = self._fh.read(BLOCK_CHARS) + self._fh.readline()
        self._block, self._pos = text.splitlines(), 0
        return bool(self._block)

    def next(self) -> str | None:
        """The next line, or None at the end of the file."""
        if self._pos == len(self._block) and not self._fill():
            return None
        self._pos += 1
        self.line_no += 1
        line = self._block[self._pos - 1]
        _check_ascii(line, self._path, self.line_no)
        return line

    def blocks(self):
        """The remaining lines, a block at a time, each with the line number
        of its first line."""
        while self._pos < len(self._block) or self._fill():
            block = self._block[self._pos:]
            self._pos = len(self._block)
            yield self.line_no + 1, block
            self.line_no += len(block)


def _read_dense_array(first: str, lines: _Lines, path) -> np.ndarray:
    first = first.strip()
    if not first.startswith("%%MatrixMarket"):
        raise ParseError(path, 1, "missing MatrixMarket banner")
    if first != DENSE_BANNER:
        raise ParseError(path, 1, f"unsupported header {first!r}")
    while (ln := lines.next()) is not None:
        text = ln.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, lines.line_no, "size line must be 'n m'")
        n = _parse_int(parts[0], path, lines.line_no, "row count")
        m = _parse_int(parts[1], path, lines.line_no, "column count")
        break
    else:
        raise ParseError(path, lines.line_no, "missing size line")
    if n < 1 or m < 1:
        raise ParseError(path, lines.line_no,
                         f"dimensions must be positive, got {n} {m}")
    count = n * m
    chunks, found = [], 0
    for start, block in lines.blocks():
        # one pass over a block of numbers; a block with comments, blank
        # lines or a fault is scanned line by line
        try:
            chunk = np.fromiter(map(float, block), np.float64, len(block))
        except ValueError:
            chunk = _scan_entries(block, start, count - found, count, path)
        if found + len(chunk) > count:
            # a block parsed in one pass has an entry on every line
            raise ParseError(path, start + count - found, f"more than {count} entries")
        chunks.append(chunk)
        found += len(chunk)
    if found != count:
        raise ParseError(path, lines.line_no, f"expected {count} entries, found {found}")
    return np.concatenate(chunks).reshape((m, n)).T


def _scan_entries(block: list[str], start: int, room: int, count: int,
                  path) -> np.ndarray:
    """The numbers in `block`, whose first line is line `start`, skipping
    blank and `%` lines; a fault, or a number past the first `room`,
    raises its ParseError with its 1-based line number."""
    values = []
    for line_no, ln in enumerate(block, start):
        _check_ascii(ln, path, line_no)
        text = ln.strip()
        if not text or text.startswith("%"):
            continue
        values.append(_parse_float(text, path, line_no))
        if len(values) > room:
            raise ParseError(path, line_no, f"more than {count} entries")
    return np.array(values, dtype=np.float64)


def _read_csv_matrix(header: str, lines: _Lines, path) -> np.ndarray:
    header = header.strip()
    parts = header.lstrip("#").split()
    fields = dict(p.split("=", 1) for p in parts if "=" in p)
    if not header.startswith("#") or set(fields) != {"rows", "cols"}:
        raise ParseError(path, 1, "header must be '# rows=R cols=C'")
    n = _parse_int(fields["rows"], path, 1, "rows")
    m = _parse_int(fields["cols"], path, 1, "cols")
    if n < 1 or m < 1:
        raise ParseError(path, 1, f"dimensions must be positive, got {n} {m}")
    chunks, found = [], 0
    for start, block in lines.blocks():
        # one pass over the m-cell rows of the block's first n - found + 1
        # lines; blank lines, a ragged row or a fault: line by line
        head, chunk = block[:n - found + 1], None
        if all(ln.count(",") == m - 1 for ln in head):
            try:
                chunk = np.fromiter(map(float, ",".join(head).split(",")),
                                    np.float64, len(head) * m)
            except ValueError:
                pass
        if chunk is not None and len(head) > n - found:
            raise ParseError(path, start + n - found, f"more than {n} rows")
        chunks.append(_scan_rows(block, start, m, n - found, n, path)
                      if chunk is None else chunk)
        found += len(chunks[-1]) // m
    if found != n:
        raise ParseError(path, lines.line_no, f"expected {n} rows, found {found}")
    return np.concatenate(chunks).reshape((n, m))


def _scan_rows(block: list[str], start: int, m: int, room: int, n: int,
               path) -> np.ndarray:
    """The cells of the rows in `block`, whose first line is line `start`,
    skipping blank lines; a fault, or a row past the first `room`, raises
    its ParseError with its 1-based line number."""
    values = []
    for line_no, ln in enumerate(block, start):
        _check_ascii(ln, path, line_no)
        text = ln.strip()
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != m:
            raise ParseError(path, line_no, f"expected {m} columns, found {len(cells)}")
        values += [_parse_float(c, path, line_no) for c in cells]
        if len(values) > room * m:
            raise ParseError(path, line_no, f"more than {n} rows")
    return np.array(values, dtype=np.float64)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = _Lines(fh, path)
        first = lines.next()
        if first is None:
            raise ParseError(path, 1, "empty file")
        if first.startswith("%%"):
            return _read_dense_array(first, lines, path)
        if first.startswith("#"):
            return _read_csv_matrix(first, lines, path)
    raise ParseError(path, 1, "unrecognized matrix header")


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
