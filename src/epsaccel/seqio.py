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

Reading streams: :func:`read_terms` yields each term as it is parsed, and
holds one term and one line of the file, whatever its length.  Each row of
a vector or matrix is parsed by one ``np.array(tokens, np.float64)``, which
reads every token with ``float`` and writes it into the term, and a line of
scalars by ``float``; only a line that ``float`` rejects is parsed again,
token by token, with ``complex()``, which also names a bad token.  ``float``
accepts a subset of what ``complex()`` does and rounds it alike, so every
number is the one ``complex()`` gives.  A term whose imaginary parts are
all zero is real, and once one term is complex every term is complex128.
``complex()`` gives an imaginary part only to a token with a ``j`` or
``J``, so a file whose bytes hold neither is read once; one that holds
either is first parsed, keeping nothing, up to its first number with a
nonzero imaginary part or to its end, to settle the dtype before any term
is yielded.  A bad number or width is reported as its line is read, and
bytes that are not UTF-8, by the file's name, as they are read; a
non-finite term, by the line of its first number, once the whole file is
read, and no term after it is yielded.
"""

from __future__ import annotations

from contextlib import closing
from functools import partial

import numpy as np

__all__ = ["read_terms", "first_term", "write_terms", "FormatError"]


class FormatError(ValueError):
    """Malformed sequence file."""


def _significant_lines(fh):
    """``(line number, stripped line)`` of each line that is neither blank nor
    a comment, read one line at a time.  Lines are numbered as
    ``str.splitlines`` splits them, which also breaks at form feeds and the
    other separators a text file's lines may hold.  Raises
    :class:`FormatError` naming the file when its bytes are not UTF-8."""
    lineno = 0
    try:
        for raw in fh:
            for line in raw.splitlines() or ("",):
                lineno += 1
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except UnicodeDecodeError:
        raise FormatError(f"{fh.name}: not UTF-8 text") from None


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


def _parse(path):
    """The header's term shape, then ``(line, reals, imags)`` for each term
    in file order: the line of its first number, a flat float64 array of
    its real parts, and a list of its imaginary parts (0.0 on a line numpy
    read) when one of its lines needed ``complex()``, else None.

    Raises :class:`FormatError` on bytes that are not UTF-8 or a bad
    header, number or width as its line is read, then on a trailing partial
    matrix block, then on a file with no terms."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _significant_lines(fh)
        lineno, header = next(lines, (None, None))
        if header is None:
            raise FormatError("empty sequence file")
        shape = _parse_header(header, lineno)
        yield shape
        # a scalar line holds any count of terms, a vector or matrix line one
        # row of a term
        width = shape[-1] if shape else None
        size = width * shape[0] if len(shape) == 2 else width
        reals, imags, first, count, start = None, None, None, 0, 0
        for lineno, line in lines:
            tokens = line.split()
            if width is None:
                try:
                    values = list(map(float, tokens))
                except ValueError:
                    for v in [_parse_number(t, lineno) for t in tokens]:
                        yield lineno, np.array([v.real]), [v.imag]
                else:
                    for x in values:
                        yield lineno, np.array([x]), None
                count += len(tokens)
                continue
            if len(tokens) != width:
                raise FormatError(
                    f"line {lineno}: expected {width} numbers, got {len(tokens)}")
            try:
                # numpy reads each token with float(), which accepts a
                # subset of what complex() does and rounds it alike
                row = np.array(tokens, np.float64)
            except ValueError:
                # complex() reads the line instead, and names a bad token
                values = [_parse_number(t, lineno) for t in tokens]
                row = np.array([v.real for v in values])
                imags = [0.0] * start if imags is None else imags
                imags += [v.imag for v in values]
            else:
                if imags is not None:
                    imags += [0.0] * width
            if not start:
                first = lineno
                reals = row if width == size else np.empty(size)
            if width != size:
                reals[start:start + width] = row
            start += width
            if start == size:
                yield first, reals, imags
                imags, start = None, 0
                count += 1
    if start:
        raise FormatError(f"trailing partial matrix block of {start // width} rows")
    if not count:
        raise FormatError("input has a header but no terms")


def _complex_file(path):
    """Whether any term of the file is complex: any number with a nonzero
    imaginary part.  A file that holds no ``j`` or ``J`` is not read past
    that check; otherwise every line is parsed up to the first such number,
    and a format error met before it is raised."""
    with open(path, "rb") as fh:
        if not any(b"j" in block or b"J" in block
                   for block in iter(partial(fh.read, 1 << 14), b"")):
            return False
    with closing(_parse(path)) as terms:
        next(terms)
        return any(imags is not None and any(imags) for _, _, imags in terms)


def read_terms(path):
    """Yield the terms of a sequence file, each as it is parsed.

    Scalars come back as 0-d arrays, vectors as 1-d, matrices as 2-d; each
    term is its own array, and dtype is float64 unless some term is complex,
    when every term is complex128.  Holds one term and one line of the file
    at a time.  Raises :class:`FormatError`: on bytes that are not UTF-8 or
    a bad header, number or width as its line is reached; then, at the end
    of the file, on a trailing partial matrix block or a file with no terms;
    then on a term that is not finite, naming the line of its first number.
    No term after a non-finite one is yielded, and the rest of the file is
    still checked for the errors above before that one is raised.
    """
    as_complex = _complex_file(path)
    terms = _parse(path)
    shape = next(terms)
    # a vector is the flat array it was parsed into
    flat = len(shape) == 1
    bad = None
    for lineno, term, imags in terms:
        if bad is not None:
            continue
        if as_complex:
            # a term whose imaginary parts are all zero is real, so a -0.0
            # among them is dropped
            term = term.astype(np.complex128)
            if imags is not None and any(imags):
                term.imag = imags
        if not np.isfinite(term).all():
            bad = lineno
            continue
        yield term if flat else term.reshape(shape)
    if bad is not None:
        raise FormatError(f"line {bad}: term is not finite")


def first_term(path):
    """The first term of a sequence file, after every term of it has been
    read and checked as :func:`read_terms` checks them."""
    terms = read_terms(path)
    first = next(terms)
    for _ in terms:
        pass
    return first


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
