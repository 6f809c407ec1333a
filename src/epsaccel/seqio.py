"""Plain-text reading and writing of term sequences.

The format is line-oriented.  The first significant line is a header:

    scalar
    vector <m>
    matrix <m> <s>

after which the terms follow: whitespace-separated numbers for scalars (one
or more per line), one line of m numbers per vector, and m consecutive lines
of s numbers per matrix (blank lines between matrix blocks are allowed).
Lines starting with ``#`` are comments anywhere in the file.  Numbers accept
anything python's ``complex()`` does, so ``1.5``, ``-2e-3``, and ``3+4j``
all work; a file with no complex entries loads as float.  A term with a
non-finite number (``nan``, ``inf``) is rejected.

Reading is one pass over the file, a line at a time.  Each line is parsed
with ``float`` into one float64 buffer that holds every term; only a line
that ``float`` rejects is parsed again, token by token, with ``complex()``,
which also names a bad token.  ``float`` accepts a subset of what
``complex()`` does and rounds it alike, so every number is the one
``complex()`` gives.  A term whose imaginary parts are all zero is real,
and once one term is complex every term is complex128.  A bad number or
width is reported as its line is read; a non-finite term, by the line of
its first number, once the whole file is read.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = ["read_terms", "write_terms", "FormatError"]


class FormatError(ValueError):
    """Malformed sequence file."""


def _significant_lines(fh):
    """``(line number, stripped line)`` of each line that is neither blank nor
    a comment, read one line at a time.  Lines are numbered as
    ``str.splitlines`` splits them, which also breaks at form feeds and the
    other separators a text file's lines may hold."""
    lineno = 0
    for raw in fh:
        for line in raw.splitlines() or ("",):
            lineno += 1
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _parse_number(token, lineno):
    try:
        value = complex(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad number {token!r}") from None
    return value


def _parse_header(header, lineno):
    """The term shape a header line declares."""
    fields = header.split()
    kind = fields[0].lower()
    if kind == "scalar":
        if len(fields) != 1:
            raise FormatError(f"line {lineno}: scalar header takes no sizes")
        return ()
    if kind == "vector":
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: vector header wants one size")
        return (_parse_size(fields[1], lineno),)
    if kind == "matrix":
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: matrix header wants two sizes")
        return (_parse_size(fields[1], lineno), _parse_size(fields[2], lineno))
    raise FormatError(f"line {lineno}: unknown kind {fields[0]!r}")


def read_terms(path):
    """Read a sequence file; returns a list of numpy arrays.

    Scalars come back as 0-d arrays, vectors as 1-d, matrices as 2-d, each a
    view of one array that holds every term; dtype is float64 unless any
    entry is complex.  Raises :class:`FormatError` on a file with no terms,
    and naming the line of a term's first number when the term is not finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _significant_lines(fh)
        lineno, header = next(lines, (None, None))
        if header is None:
            raise FormatError("empty sequence file")
        shape = _parse_header(header, lineno)
        size = math.prod(shape)
        # a scalar line holds any count of terms, a vector or matrix line one
        # row of a term
        width = shape[-1] if shape else None
        reals = array("d")  # the real part of every number, in file order
        imags = {}          # a complex line's imaginary parts, by its first number
        firsts = []         # the line of each term's first number
        for lineno, line in lines:
            tokens = line.split()
            start = len(reals)
            if width is None:
                firsts += [lineno] * len(tokens)
            elif len(tokens) != width:
                raise FormatError(
                    f"line {lineno}: expected {width} numbers, got {len(tokens)}")
            elif start % size == 0:
                firsts.append(lineno)
            try:
                reals.extend(map(float, tokens))
            except ValueError:
                # complex() reads the line instead, and names a bad token;
                # float accepts a subset of what it does, rounded alike
                del reals[start:]
                values = [_parse_number(t, lineno) for t in tokens]
                reals.extend([v.real for v in values])
                imags[start] = [v.imag for v in values]
    if len(reals) % size:
        raise FormatError(
            f"trailing partial matrix block of {len(reals) % size // width} rows")
    if not reals:
        raise FormatError("input has a header but no terms")

    n = len(firsts)
    terms = np.frombuffer(reals, dtype=np.float64)
    finite = np.isfinite(terms)
    if imags:
        imag = np.zeros(len(reals))
        for start, values in imags.items():
            imag[start:start + len(values)] = values
        finite &= np.isfinite(imag)
    if not finite.all():
        raise FormatError(
            f"line {firsts[int(np.argmin(finite)) // size]}: term is not finite")
    terms = terms.reshape((n,) + shape)
    if imags:
        # a term whose imaginary parts are all zero is real, so a -0.0 among
        # them is dropped, and every term is complex once one is
        imag = imag.reshape(n, size)
        real = ~(imag != 0).any(axis=1)
        if not real.all():
            imag[real] = 0.0
            terms = terms.astype(np.complex128)
            terms.imag = imag.reshape(terms.shape)
    return [terms[i, ...] for i in range(n)]


def _parse_size(token, lineno):
    try:
        size = int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad size {token!r}") from None
    if size <= 0:
        raise FormatError(f"line {lineno}: sizes must be positive")
    return size


def _format_complex(c):
    return repr(c.real) if c.imag == 0 else repr(c)


def write_terms(path, terms, comment=None):
    """Write arrays in the format :func:`read_terms` reads.

    Each row is formatted from ``tolist()``: a real number by its ``repr``,
    which reads back to the same float64, and a complex one by its ``repr``,
    or by its real part's when its imaginary part is zero."""
    terms = [np.asarray(t) for t in terms]
    if not terms:
        raise ValueError("nothing to write")
    shape = terms[0].shape
    for t in terms:
        if t.shape != shape:
            raise ValueError("terms must share one shape")
    if len(shape) > 2:
        raise ValueError("terms must be scalars, vectors, or matrices")
    lines = []
    if comment:
        for row in str(comment).splitlines():
            lines.append(f"# {row}")
    lines.append(" ".join([("scalar", "vector", "matrix")[len(shape)], *map(str, shape)]))
    for t in terms:
        if np.iscomplexobj(t):
            values, fmt = t.astype(np.complex128, copy=False).tolist(), _format_complex
        else:
            values, fmt = t.astype(np.float64, copy=False).tolist(), repr
        if len(shape) == 0:
            lines.append(fmt(values))
        elif len(shape) == 1:
            lines.append(" ".join(map(fmt, values)))
        else:
            lines.extend(" ".join(map(fmt, row)) for row in values)
            lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines).rstrip("\n") + "\n")
