"""Minimal Matrix Market reader/writer for dense real matrices.

Supports the ``array`` and ``coordinate`` formats with ``general`` or
``symmetric`` symmetry, which covers the benchmark collections this
toolkit ingests. Parse errors report the 1-based line number. One loop
checks the header's format, field and symmetry against their allowed
values, and one parser (``_size``) reads and checks the size line of
either format: "rows cols" of an array, "rows cols nnz" of a coordinate
matrix. ``write_matrix`` refuses what ``read_matrix`` would refuse
through ``linalg.as_matrix``, the check every matrix input shares.

An ``array`` data block of plain decimal numbers (digits, signs,
points, exponents and whitespace alone) is read in one vectorized pass
over its bytes, viewed in the file's bytes at the block's offset. The
tokens that are exactly ``0`` or ``-0``, most of a banded operator's
dense file, become +0.0 and -0.0 there and never reach
``np.fromstring``: it is handed the other tokens alone, each with the
blanks after it, gathered end to end into one compact buffer that it
reads as Python's ``float`` does, raising on a malformed token. A block
without a zero token goes to it whole. Any other block, or one whose
count is wrong, is split and converted by one ``np.array(tokens,
dtype=np.float64)``; only when that fails too is the block scanned again
line by line to name the line at fault.
"""
from __future__ import annotations

import re

import numpy as np

from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix"]

# the header's words after "matrix" and the values each may take
_HEADER = (("format", ("array", "coordinate")), ("field", ("real", "integer")),
           ("symmetry", ("general", "symmetric")))
# the size line of each format
_SIZE = {"array": "rows cols", "coordinate": "rows cols nnz"}

# the ASCII line boundaries of str.splitlines, so that line numbers agree with it
_EOL = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e]")

# the bytes of a plain decimal array block; hex, nan, inf, underscores and
# the separators str.split alone knows (\x1c-\x1f) are not among them
_PLAIN = b"0123456789eE.+- \t\n\r\v\f"
_NONBLANK = re.compile(rb"[^ \t\n\r\v\f]")
# np.fromstring raises on unmatched data in numpy 2.4 (checked on 2.4.6);
# older releases may return the values before it with a DeprecationWarning
# instead, so they keep the split path
_FROMSTRING_RAISES = np.lib.NumpyVersion(np.__version__) >= "2.4.0"
# bytes per slice in _ends_a_zero: its masks stay below malloc's mmap threshold
_SLICE = 1 << 16


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content."""


def _fail(path, lineno, msg):
    raise MatrixMarketError(f"{path}:{lineno}: {msg}")


def _read_text(path) -> tuple[bytes, str]:
    """The file's bytes and their ASCII text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # the number of the line that holds the byte
        lineno = len((raw[:exc.start].decode("ascii") + "x").splitlines())
        _fail(path, lineno, f"non-ASCII byte 0x{raw[exc.start]:02x}; Matrix Market files are ASCII")


def _lines(text):
    """Yield (line number, line, offset after its line break) of ``text``."""
    pos, lineno = 0, 0
    while pos < len(text):
        eol = _EOL.search(text, pos)
        stop, end = (eol.start(), eol.end()) if eol else (len(text), len(text))
        lineno += 1
        yield lineno, text[pos:stop], end
        pos = end


def read_matrix(path) -> np.ndarray:
    """Read a Matrix Market file into a dense (n, m) float array.

    Coordinate entries are 1-based; duplicate coordinate entries are
    rejected; explicit zeros are preserved. Symmetric storage holds the
    lower triangle only (an entry above the diagonal is rejected) and is
    expanded. The file must be ASCII.
    """
    path = str(path)
    raw, text = _read_text(path)
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        _fail(path, 1, "empty file")
    header = first[1].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        _fail(path, 1, f"expected '%%MatrixMarket matrix <format> <field> <symmetry>', got {first[1]!r}")
    layout, field, symmetry = (word.lower() for word in header[2:])
    for (what, allowed), word in zip(_HEADER, (layout, field, symmetry)):
        if word not in allowed:
            _fail(path, 1, f"unsupported {what} {word!r} (only {' and '.join(map(repr, allowed))})")

    # skip comments, locate the size line
    lineno = 1
    for lineno, line, start in lines:
        if not line.startswith("%") and line.strip():
            break
    else:
        _fail(path, lineno, "missing size line")
    size = _size(path, lineno, line, layout, symmetry)
    if layout == "array":
        out = _read_array(path, raw, text, start, lineno, *size, symmetry)
    else:
        out = _read_coordinate(path, text, start, lineno, *size, symmetry)
    if not np.all(np.isfinite(out)):
        raise MatrixMarketError(f"{path}: matrix contains non-finite values")
    return out


def _size(path, lineno, line, layout, symmetry):
    """The integers of the size line ``line``: rows and cols of an
    array, rows, cols and nnz of a coordinate matrix."""
    names, size = _SIZE[layout], line.split()
    if len(size) != len(names.split()):
        _fail(path, lineno, f"{layout} size line must be {names!r}, got {line!r}")
    try:
        size = [int(word) for word in size]
    except ValueError:
        _fail(path, lineno, f"non-integer dimensions in {line!r}")
    n, m, *nnz = size
    if n < 1 or m < 1 or any(k < 0 for k in nnz):
        _fail(path, lineno, f"bad dimensions in {line!r}")
    if symmetry == "symmetric" and n != m:
        _fail(path, lineno, "symmetric matrices must be square")
    return size


def _data_lines(text, start, lineno):
    """(line number, stripped line) of the lines of ``text[start:]`` that
    are neither blank nor comments; ``lineno`` is the line before them."""
    for lineno, line in enumerate(text[start:].splitlines(), start=lineno + 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            yield lineno, stripped


def _read_array(path, raw, text, start, lineno, n, m, symmetry):
    # array format stores entries column by column
    count = n * m if symmetry == "general" else n * (n + 1) // 2
    # the block: the file's bytes from its offset (the text is ASCII, so
    # offsets agree), or its data lines joined
    if text.find("%", start) < 0:
        data, values = None, _plain_values(raw, start, count)
    else:
        data = "\n".join(line for _, line in _data_lines(text, start, lineno))
        values = _plain_values(data.encode("ascii"), 0, count)
    if values is None:
        # str.split, which knows separators that bytes.split does not
        tokens = (text[start:] if data is None else data).split()
        if len(tokens) == count:
            try:
                values = np.array(tokens, dtype=np.float64)
            except ValueError:
                pass
    if values is None:
        _array_error(path, text, start, lineno, count, n, m)
    if symmetry == "general":
        return np.ascontiguousarray(values.reshape(m, n).T)
    out = np.zeros((n, m))
    # column j holds rows j..n-1: the upper triangle's (row, col) pairs in
    # row-major order, swapped
    cols, rows = np.triu_indices(n)
    out[rows, cols] = values
    out[cols, rows] = values
    return out


def _plain_values(raw, start, count):
    """The ``count`` values of a block of plain decimal numbers, the
    bytes ``raw`` from offset ``start`` on; None for any other block, for
    a malformed number and for a wrong count.

    A block in which no "0" ends a token goes whole to one
    ``np.fromstring``. In any other, vectorized byte tests find the start
    of each token and code it: the tokens that are exactly ``0`` or
    ``-0`` are read as +0.0 and -0.0, and the bytes of the rest, each
    token with the blanks up to the next one, are gathered into one
    compact buffer for one ``np.fromstring``. So it scans the nonzero
    tokens and a separator each, not the block, and every value is
    bitwise the one that np.fromstring gives (``+0``, ``00`` or ``0.0``
    go to it too). np.fromstring reads a blank block as [-1.0], so it is
    never handed one: an empty or blank block is not plain, and a block
    of zero tokens alone makes no call.
    """
    if not _FROMSTRING_RAISES or _NONBLANK.search(raw, start) is None:
        return None
    # plain when every byte that is not plain lies before the block
    if len(raw.translate(None, _PLAIN)) != len(raw[:start].translate(None, _PLAIN)):
        return None
    b = np.frombuffer(raw, dtype=np.uint8, offset=start)
    if not _ends_a_zero(b):
        return _fromstring(raw[start:], count)
    # of the plain bytes, the whitespace ones are those up to b" "
    blank = b <= 32
    # the first byte of each token
    first = ~blank
    first[1:] &= blank[:-1]
    starts = np.flatnonzero(first)
    if starts.size != count:
        return None
    # code 1 at each "0" that ends a token, 2 at each "-" just before one:
    # at a token's start, the codes of the tokens "0" and "-0". The two
    # masks are reused, as each fresh one costs a page fault per 4 KB
    code = np.equal(b, 48, out=first).view(np.uint8)
    code[:-1] &= blank[1:]
    sign = np.equal(b[:-1], 45, out=blank[:-1])
    sign &= code[1:].view(bool)
    code[:-1] += sign
    code[:-1] += sign
    code = code[starts]
    values = np.zeros(count)
    values[code == 2] = -0.0
    rest = np.flatnonzero(code == 0)
    if rest.size:
        # each other token with the blanks up to the next one (the last
        # token's run to the block's end), end to end
        lo, hi = starts[rest], starts.take(rest + 1, mode="clip")
        hi[rest == count - 1] = b.size
        size = hi - lo
        at = np.repeat(lo - (np.cumsum(size) - size), size) + np.arange(size.sum())
        kept = _fromstring(b[at].tobytes(), rest.size)
        if kept is None:
            return None
        values[rest] = kept
    return values


def _ends_a_zero(b):
    """Whether a "0" of the plain bytes ``b`` ends a token; a block
    without one has no zero token. It is tested slice by slice: masks of
    a whole 3 MB block are mapped afresh on each read, and their page
    faults cost about as much again as the comparisons. The last byte,
    which no blank follows, is tested last."""
    for lo in range(0, b.size - 1, _SLICE):
        part = b[lo:lo + _SLICE + 1]
        zero = part[:-1] == 48
        zero &= part[1:] <= 32
        if zero.any():
            return True
    return bool(b[-1] == 48)


def _fromstring(raw, count):
    """The ``count`` values that np.fromstring reads from the bytes
    ``raw``; None if it reads another number of them or raises."""
    try:
        values = np.fromstring(raw, sep=" ")
    except ValueError:
        return None
    return values if values.size == count else None


def _array_error(path, text, start, lineno, count, n, m):
    """Raise the error of an array data block that did not convert to
    ``count`` floats: the line of its first surplus entry or unparsable
    token, or else the entry count."""
    found = 0
    for lineno, line in _data_lines(text, start, lineno):
        for token in line.split():
            if found == count:
                _fail(path, lineno, f"more than {count} entries for a {n} x {m} array")
            try:
                float(token)
            except ValueError:
                _fail(path, lineno, f"could not parse value {token!r}")
            found += 1
    if found != count:
        _fail(path, len(text.splitlines()), f"expected {count} entries, found {found}")
    raise MatrixMarketError(f"{path}: could not convert the {count} entries of a {n} x {m} array")


def _read_coordinate(path, text, start, lineno, n, m, nnz, symmetry):
    out = np.zeros((n, m))
    seen = set()
    count = 0
    for lineno, line in _data_lines(text, start, lineno):
        parts = line.split()
        if len(parts) != 3:
            _fail(path, lineno, f"coordinate entry must be 'i j value', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            _fail(path, lineno, f"could not parse entry {line!r}")
        if not (1 <= i <= n and 1 <= j <= m):
            _fail(path, lineno, f"index ({i}, {j}) outside {n} x {m}")
        if symmetry == "symmetric" and i < j:
            _fail(path, lineno, f"entry ({i}, {j}) above the diagonal; symmetric storage lists only i >= j")
        if (i, j) in seen:
            _fail(path, lineno, f"duplicate entry for ({i}, {j})")
        seen.add((i, j))
        out[i - 1, j - 1] = v
        if symmetry == "symmetric" and i != j:
            out[j - 1, i - 1] = v
        count += 1
    if count != nnz:
        _fail(path, len(text.splitlines()), f"header declares {nnz} entries, found {count}")
    return out


def write_matrix(path, a, comment: str | None = None) -> None:
    """Write a dense matrix in 'array real general' format.

    Values are formatted with 17 significant digits so they parse back
    to the original float64 values. Non-ASCII characters of ``comment``
    are written as backslash escapes. A matrix that ``read_matrix`` would
    refuse (empty or non-finite) raises ``ValueError`` before the file is
    opened: ``linalg.as_matrix`` checks it, as it checks every matrix the
    package takes.
    """
    a = as_matrix(a)
    n, m = a.shape
    head = ["%%MatrixMarket matrix array real general\n"]
    if comment:
        comment = comment.encode("ascii", "backslashreplace").decode("ascii")
        head.extend(f"% {line}\n" for line in comment.splitlines())
    head.append(f"{n} {m}\n")
    # one format operation over all entries, column by column
    body = ("%.17g\n" * a.size) % tuple(a.ravel(order="F").tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(head))
        fh.write(body)
