"""Plain-text reading and writing of term sequences.

The format is line-oriented.  The first significant line is a header:

    scalar
    vector <m>
    matrix <m> <s>

after which the terms follow: one number per line for scalars, one
whitespace-separated line of m numbers per vector, and m consecutive lines of
s numbers per matrix (blank lines between matrix blocks are allowed).  Lines
starting with ``#`` are comments anywhere in the file.  Numbers accept
anything python's ``complex()`` does, so ``1.5``, ``-2e-3``, and ``3+4j``
all work; a file with no complex entries loads as float.  A term with a
non-finite number (``nan``, ``inf``) is rejected.
"""

from __future__ import annotations

import numpy as np

__all__ = ["read_terms", "write_terms", "FormatError"]


class FormatError(ValueError):
    """Malformed sequence file."""


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_number(token, lineno):
    try:
        value = complex(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad number {token!r}") from None
    return value


def _parse_row(line, lineno, width):
    tokens = line.split()
    if len(tokens) != width:
        raise FormatError(
            f"line {lineno}: expected {width} numbers, got {len(tokens)}")
    return [_parse_number(t, lineno) for t in tokens]


def read_terms(path):
    """Read a sequence file; returns a list of numpy arrays.

    Scalars come back as 0-d arrays, vectors as 1-d, matrices as 2-d; dtype
    is float64 unless any entry is complex.  Raises :class:`FormatError`
    naming the line of a term's first number when the term is not finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = _significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("empty sequence file") from None

    fields = header.split()
    kind = fields[0].lower()
    if kind == "scalar":
        if len(fields) != 1:
            raise FormatError(f"line {lineno}: scalar header takes no sizes")
        shape = ()
    elif kind == "vector":
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: vector header wants one size")
        shape = (_parse_size(fields[1], lineno),)
    elif kind == "matrix":
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: matrix header wants two sizes")
        shape = (_parse_size(fields[1], lineno), _parse_size(fields[2], lineno))
    else:
        raise FormatError(f"line {lineno}: unknown kind {header.split()[0]!r}")

    rows = []     # (line of the term's first number, term)
    if kind == "scalar":
        for lineno, line in lines:
            tokens = line.split()
            for t in tokens:
                rows.append((lineno, np.array(_parse_number(t, lineno))))
    elif kind == "vector":
        for lineno, line in lines:
            rows.append((lineno, np.array(_parse_row(line, lineno, shape[0]))))
    else:
        block = []
        for lineno, line in lines:
            if not block:
                first = lineno
            block.append(_parse_row(line, lineno, shape[1]))
            if len(block) == shape[0]:
                rows.append((first, np.array(block)))
                block = []
        if block:
            raise FormatError(
                f"trailing partial matrix block of {len(block)} rows")

    terms = []
    for lineno, arr in rows:
        if not np.isfinite(arr).all():
            raise FormatError(f"line {lineno}: term is not finite")
        if np.all(arr.imag == 0):
            terms.append(arr.real.astype(np.float64))
        else:
            terms.append(arr.astype(np.complex128))
    if any(np.iscomplexobj(t) for t in terms):
        terms = [t.astype(np.complex128) for t in terms]
    return terms


def _parse_size(token, lineno):
    try:
        size = int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad size {token!r}") from None
    if size <= 0:
        raise FormatError(f"line {lineno}: sizes must be positive")
    return size


def _format_number(x):
    if np.iscomplexobj(x):
        c = complex(x)
        return repr(c.real) if c.imag == 0 else repr(c)
    return repr(float(x))


def write_terms(path, terms, comment=None):
    """Write arrays in the format :func:`read_terms` reads."""
    terms = [np.asarray(t) for t in terms]
    if not terms:
        raise ValueError("nothing to write")
    shape = terms[0].shape
    for t in terms:
        if t.shape != shape:
            raise ValueError("terms must share one shape")
    lines = []
    if comment:
        for row in str(comment).splitlines():
            lines.append(f"# {row}")
    if len(shape) == 0:
        lines.append("scalar")
        for t in terms:
            lines.append(_format_number(t[()]))
    elif len(shape) == 1:
        lines.append(f"vector {shape[0]}")
        for t in terms:
            lines.append(" ".join(_format_number(x) for x in t))
    elif len(shape) == 2:
        lines.append(f"matrix {shape[0]} {shape[1]}")
        for t in terms:
            for row in t:
                lines.append(" ".join(_format_number(x) for x in row))
            lines.append("")
    else:
        raise ValueError("terms must be scalars, vectors, or matrices")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines).rstrip("\n") + "\n")
