"""Minimal Matrix Market reader/writer for dense real matrices.

Supports the ``array`` and ``coordinate`` formats with ``general`` or
``symmetric`` symmetry, which covers the benchmark collections this
toolkit ingests. Parse errors report the 1-based line number.
"""
from __future__ import annotations

import numpy as np

__all__ = ["read_matrix", "write_matrix"]

_FIELDS = {"real", "integer"}
_SYMMETRIES = {"general", "symmetric"}


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content."""


def _fail(path, lineno, msg):
    raise MatrixMarketError(f"{path}:{lineno}: {msg}")


def read_matrix(path) -> np.ndarray:
    """Read a Matrix Market file into a dense (n, m) float array.

    Coordinate entries are 1-based; duplicate coordinate entries are
    rejected; explicit zeros are preserved. Symmetric storage holds the
    lower triangle only (an entry above the diagonal is rejected) and is
    expanded.
    """
    path = str(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        _fail(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        _fail(path, 1, f"expected '%%MatrixMarket matrix <format> <field> <symmetry>', got {lines[0]!r}")
    layout, field, symmetry = header[2].lower(), header[3].lower(), header[4].lower()
    if layout not in ("array", "coordinate"):
        _fail(path, 1, f"unsupported format {layout!r} (only 'array' and 'coordinate')")
    if field not in _FIELDS:
        _fail(path, 1, f"unsupported field {field!r} (only 'real' and 'integer')")
    if symmetry not in _SYMMETRIES:
        _fail(path, 1, f"unsupported symmetry {symmetry!r} (only 'general' and 'symmetric')")

    # skip comments, locate the size line
    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx >= len(lines):
        _fail(path, len(lines), "missing size line")
    size = lines[idx].split()
    if layout == "array":
        if len(size) != 2:
            _fail(path, idx + 1, f"array size line must be 'rows cols', got {lines[idx]!r}")
        try:
            n, m = int(size[0]), int(size[1])
        except ValueError:
            _fail(path, idx + 1, f"non-integer dimensions in {lines[idx]!r}")
        if n < 1 or m < 1:
            _fail(path, idx + 1, f"dimensions must be positive, got {n} x {m}")
        if symmetry == "symmetric" and n != m:
            _fail(path, idx + 1, "symmetric matrices must be square")
        out = _read_array(path, lines, idx + 1, n, m, symmetry)
    else:
        if len(size) != 3:
            _fail(path, idx + 1, f"coordinate size line must be 'rows cols nnz', got {lines[idx]!r}")
        try:
            n, m, nnz = int(size[0]), int(size[1]), int(size[2])
        except ValueError:
            _fail(path, idx + 1, f"non-integer dimensions in {lines[idx]!r}")
        if n < 1 or m < 1 or nnz < 0:
            _fail(path, idx + 1, f"bad dimensions {n} x {m} with {nnz} entries")
        if symmetry == "symmetric" and n != m:
            _fail(path, idx + 1, "symmetric matrices must be square")
        out = _read_coordinate(path, lines, idx + 1, n, m, nnz, symmetry)
    if not np.all(np.isfinite(out)):
        raise MatrixMarketError(f"{path}: matrix contains non-finite values")
    return out


def _data_lines(lines, start):
    for offset, line in enumerate(lines[start:]):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield start + offset + 1, stripped


def _read_array(path, lines, start, n, m, symmetry):
    out = np.zeros((n, m))
    # array format stores entries column by column
    if symmetry == "general":
        coords = [(i, j) for j in range(m) for i in range(n)]
    else:
        coords = [(i, j) for j in range(m) for i in range(j, n)]
    it = iter(coords)
    count = 0
    for lineno, text in _data_lines(lines, start):
        for token in text.split():
            try:
                i, j = next(it)
            except StopIteration:
                _fail(path, lineno, f"more than {len(coords)} entries for a {n} x {m} array")
            try:
                v = float(token)
            except ValueError:
                _fail(path, lineno, f"could not parse value {token!r}")
            out[i, j] = v
            if symmetry == "symmetric":
                out[j, i] = v
            count += 1
    if count != len(coords):
        _fail(path, len(lines), f"expected {len(coords)} entries, found {count}")
    return out


def _read_coordinate(path, lines, start, n, m, nnz, symmetry):
    out = np.zeros((n, m))
    seen = set()
    count = 0
    for lineno, text in _data_lines(lines, start):
        parts = text.split()
        if len(parts) != 3:
            _fail(path, lineno, f"coordinate entry must be 'i j value', got {text!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            _fail(path, lineno, f"could not parse entry {text!r}")
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
        _fail(path, len(lines), f"header declares {nnz} entries, found {count}")
    return out


def write_matrix(path, a, comment: str | None = None) -> None:
    """Write a dense matrix in 'array real general' format.

    Values are formatted with 17 significant digits so they parse back
    to the original float64 values.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    n, m = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{n} {m}\n")
        for j in range(m):
            for i in range(n):
                fh.write(f"{a[i, j]:.17g}\n")
