"""Dense-matrix file formats.

The MatrixMarket array convention and a small CSV dialect with a
`# rows=R cols=C` header. The writer serializes doubles with 17
significant digits so a write/read round trip is bit-exact, and identical
inputs always produce identical bytes. Neither side holds the text of a
large matrix whole: the writer formats and writes about BLOCK_ENTRIES
entries at a time, and the reader parses about BLOCK_CHARS characters of
whole lines at a time into float64 blocks. One body reader serves both
formats: a dense-array body is n*m one-cell records, a CSV body n records
of m cells, and either stops at the first record past the header's count.
"""
from __future__ import annotations

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


def _read_body(lines: _Lines, path, count: int, width: int, sep: str | None,
               comment: str | None, unit: str) -> np.ndarray:
    """The cells of the `count` records that make up the rest of the file,
    flat. A record is a line of `width` cells split at `sep`, or with no
    `sep` the line itself; blank lines and lines that start with `comment`
    are skipped. A fault, a record past the first `count` or too few
    records raises its ParseError with its 1-based line number."""

    def scan(block: list[str], start: int, room: int) -> np.ndarray:
        # line by line, from line `start`, taking at most `room` records
        values = []
        for line_no, ln in enumerate(block, start):
            _check_ascii(ln, path, line_no)
            text = ln.strip()
            if not text or comment and text.startswith(comment):
                continue
            cells = [text] if sep is None else text.split(sep)
            if len(cells) != width:
                raise ParseError(path, line_no, f"expected {width} columns, found {len(cells)}")
            values += [_parse_float(c, path, line_no) for c in cells]
            if len(values) > room * width:
                raise ParseError(path, line_no, f"more than {count} {unit}")
        return np.array(values, dtype=np.float64)

    chunks, found = [], 0
    for start, block in lines.blocks():
        # one pass over the block's first count - found + 1 lines; a block
        # with a skipped line, a ragged record or a fault: line by line
        room = count - found
        head, chunk = block[:room + 1], None
        if sep is None or all(ln.count(sep) == width - 1 for ln in head):
            cells = head if sep is None else sep.join(head).split(sep)
            try:
                chunk = np.fromiter(map(float, cells), np.float64, len(head) * width)
            except ValueError:
                pass
        if chunk is None:
            chunk = scan(block, start, room)
        elif len(head) > room:
            raise ParseError(path, start + room, f"more than {count} {unit}")
        chunks.append(chunk)
        found += len(chunk) // width
    if found != count:
        raise ParseError(path, lines.line_no, f"expected {count} {unit}, found {found}")
    return np.concatenate(chunks)


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
    return _read_body(lines, path, n * m, 1, None, "%", "entries").reshape((m, n)).T


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
    return _read_body(lines, path, n, m, ",", None, "rows").reshape((n, m))


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

