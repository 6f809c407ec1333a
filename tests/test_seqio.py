"""Text round-trips for sequence files."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epsaccel.seqio import FormatError, read_terms, write_terms


def roundtrip(tmp_path, terms, comment=None):
    path = tmp_path / "seq.txt"
    write_terms(path, terms, comment=comment)
    return list(read_terms(path))


def test_scalar_roundtrip(tmp_path):
    terms = [np.array(x) for x in (1.0, 0.5, 5.0 / 6.0, -2e-3)]
    back = roundtrip(tmp_path, terms, comment="partial sums")
    assert len(back) == 4
    for a, b in zip(terms, back):
        assert b.shape == () and b.dtype == np.float64
        assert a == b  # repr round-trip is exact


def test_vector_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    terms = [rng.standard_normal(5) for _ in range(7)]
    back = roundtrip(tmp_path, terms)
    assert all(np.array_equal(a, b) for a, b in zip(terms, back))
    assert back[0].dtype == np.float64


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    terms = [rng.standard_normal((3, 2)) for _ in range(4)]
    back = roundtrip(tmp_path, terms)
    assert all(np.array_equal(a, b) for a, b in zip(terms, back))
    assert back[0].shape == (3, 2)


def test_complex_roundtrip(tmp_path):
    terms = [np.array([1.0 + 2.0j, 0.5]), np.array([0.0, -1.0j])]
    back = roundtrip(tmp_path, terms)
    assert back[0].dtype == np.complex128
    assert all(np.array_equal(a, b) for a, b in zip(terms, back))


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(
        "# produced by hand\n\nvector 2\n1 2\n# midway note\n\n3 4\n")
    back = list(read_terms(path))
    assert np.array_equal(back[0], [1.0, 2.0])
    assert np.array_equal(back[1], [3.0, 4.0])


def test_matrix_blocks_with_separators(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("matrix 2 2\n1 0\n0 1\n\n2 0\n0 2\n")
    back = list(read_terms(path))
    assert np.array_equal(back[1], 2 * np.eye(2))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    for text in ("# nothing here\n", "# a header alone\nvector 3\n"):
        path.write_text(text)
        with pytest.raises(FormatError):
            list(read_terms(path))


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("tensor 2 2 2\n1\n")
    with pytest.raises(FormatError):
        list(read_terms(path))
    path.write_text("vector\n1\n")
    with pytest.raises(FormatError):
        list(read_terms(path))
    path.write_text("vector -3\n1\n")
    with pytest.raises(FormatError):
        list(read_terms(path))


def test_bad_number_and_width_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("vector 2\n1 apple\n")
    with pytest.raises(FormatError):
        list(read_terms(path))
    path.write_text("vector 2\n1 2 3\n")
    with pytest.raises(FormatError):
        list(read_terms(path))


def test_non_finite_terms_rejected(tmp_path):
    # complex() parses nan and inf; each term is checked once, and the error
    # names the line where the bad term starts
    path = tmp_path / "seq.txt"
    for text, line in (("scalar\n1.0\n# note\nnan\n", 4),
                       ("vector 2\n1 2\n3 -inf\n", 3),
                       ("vector 2\n1 2\n3 1+infj\n", 3),
                       ("matrix 2 2\n1 0\n0 1\n\n1 0\n0 inf\n", 5)):
        path.write_text(text)
        with pytest.raises(FormatError, match=f"line {line}:"):
            list(read_terms(path))


def test_partial_matrix_block_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("matrix 2 2\n1 0\n")
    with pytest.raises(FormatError):
        list(read_terms(path))


def test_write_guards(tmp_path):
    with pytest.raises(ValueError):
        write_terms(tmp_path / "x.txt", [])
    with pytest.raises(ValueError):
        write_terms(tmp_path / "x.txt", [np.ones(2), np.ones(3)])


def reference_terms(text):
    """The terms of a well-formed sequence file, each token parsed by
    ``complex()``: a term whose imaginary parts are all zero is float64, and
    every term is complex128 once one is."""
    lines = [line.strip() for line in text.splitlines()]
    header, *body = [line for line in lines if line and not line.startswith("#")]
    shape = tuple(int(size) for size in header.split()[1:])
    numbers = [complex(t) for line in body for t in line.split()]
    size = int(np.prod(shape))
    terms = []
    for i in range(0, len(numbers), size):
        arr = np.array(numbers[i:i + size], dtype=np.complex128).reshape(shape)
        terms.append(arr.real.astype(np.float64) if np.all(arr.imag == 0) else arr)
    if any(np.iscomplexobj(t) for t in terms):
        terms = [t.astype(np.complex128) for t in terms]
    return terms


# finite float64 values, with the signed zero, subnormals and the extremes
# drawn often
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e308, -1e308]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def number_token(draw, complex_line):
    """One number as a file may spell it: a real one in forms ``float``
    reads, or, on a complex line, in forms only ``complex()`` reads."""
    x = draw(finite_floats)
    if not complex_line:
        return draw(st.sampled_from([repr(x), f"{x:.17e}", f"{x:.17E}",
                                     repr(x) if repr(x)[0] == "-" else f"+{x!r}"]))
    y = draw(st.one_of(st.just(0.0), st.just(-0.0), finite_floats))
    return draw(st.sampled_from([repr(complex(x, y)), f"{x!r}{y:+.17g}j",
                                 f"({x!r}+0j)", f"{x!r}-0j", f"{y!r}j"]))


@st.composite
def sequence_texts(draw):
    """A sequence file: a scalar, vector or matrix header, terms whose lines
    are each real or complex, whitespace of spaces and tabs, and comments
    and blank lines anywhere."""
    kind = draw(st.sampled_from(["scalar", "vector", "matrix"]))
    shape = {"scalar": (), "vector": (draw(st.integers(1, 5)),),
             "matrix": (draw(st.integers(1, 3)), draw(st.integers(1, 3)))}[kind]
    row_lines = draw(st.integers(1, 12)) * (shape[0] if kind == "matrix" else 1)
    # a scalar line holds one number or several
    widths = ([draw(st.integers(1, 3)) for _ in range(row_lines)] if kind == "scalar"
              else [shape[-1]] * row_lines)
    lines = [" ".join([kind, *map(str, shape)])]
    for width in widths:
        complex_line = draw(st.booleans()) and draw(st.booleans())
        tokens = [draw(number_token(complex_line)) for _ in range(width)]
        gaps = [draw(st.sampled_from([" ", "\t", "  ", " \t "])) for _ in tokens]
        lines.append(draw(st.sampled_from(["", "  ", "\t"]))
                     + "".join(t + g for t, g in zip(tokens, gaps)))
        lines += draw(st.lists(st.sampled_from(["", "# a comment", "   ", "\t# indented"]),
                               max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=sequence_texts())
def test_reader_matches_a_complex_parse_of_every_token(tmp_path, text):
    path = tmp_path / "seq.txt"
    path.write_text(text, encoding="utf-8")
    got, want = list(read_terms(path)), reference_terms(text)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("text", [
    # the odd spellings: underscores, parentheses, a bare sign, a capital
    # exponent, an imaginary unit; with tabs, comments and blank lines
    "# by hand\n\nvector 3\n1_0\t(1+0j)  +.5\n\n# note\n1E3\t-0.0 1_000.5\n",
    "vector 3\n1_0\t(1+0j)  +.5\n1E3 1j -0.0\n",
    # mixed real and complex lines: a real term beside a complex one, and a
    # term whose complex spellings are all real
    "matrix 2 2\n1 2\n3+0j -0j\n\n5 6\n7 8+1j\n",
    "scalar\n1 2-0j\n(3+0j)\n",
])
def test_reader_odd_tokens(tmp_path, text):
    path = tmp_path / "seq.txt"
    path.write_text(text)
    got, want = list(read_terms(path)), reference_terms(text)
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
        [(b.dtype, b.shape, b.tobytes()) for b in want]


@pytest.mark.parametrize("text, message", [
    # a bad token, on a line float() reads up to it and on a complex line
    ("vector 2\n1 2\n# note\n3 x\n", "line 4: bad number 'x'"),
    ("vector 2\n1 2\n\n3+1j x\n", "line 4: bad number 'x'"),
    # a non-finite value names the line of its term's first number
    ("vector 2\n1 2\n\n3 inf\n", "line 4: term is not finite"),
    ("vector 2\n1 2\n3+1j nanj\n", "line 3: term is not finite"),
    ("matrix 2 2\n1 0\n0 1\n\n1 0\n# note\n0 1e400\n", "line 5: term is not finite"),
    ("matrix 2 2\n1 0\n0 1\n\n1 0\n0 inf+1j\n", "line 5: term is not finite"),
    # every number is read before any term is checked
    ("vector 2\n1 inf\n3 apple\n", "line 3: bad number 'apple'"),
])
def test_reader_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "seq.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{message}$"):
        list(read_terms(path))


def test_a_complex_last_term_makes_every_term_complex(tmp_path):
    # the dtype is settled before the first term is yielded: a real term
    # comes back complex128 with +0.0 imaginary parts, -0j included
    path = tmp_path / "seq.txt"
    rows = [f"{0.5 ** n!r} {-0.0 if n == 3 else 1.0}" for n in range(50)]
    path.write_text("vector 2\n" + "\n".join(rows) + "\n1 2-0j\n3 4j\n")
    terms = list(read_terms(path))
    assert len(terms) == 52
    assert all(t.dtype == np.complex128 for t in terms)
    assert all(not np.signbit(t.imag).any() for t in terms)
    assert terms[-1].tolist() == [3, 4j] and terms[3].tolist() == [0.125, -0.0]


@pytest.mark.parametrize("comment", ["# just a j", "# JJ", "#j"])
def test_a_j_outside_the_numbers_keeps_the_terms_real(tmp_path, comment):
    path = tmp_path / "seq.txt"
    path.write_text(f"{comment}\nmatrix 1 2\n1 2\n{comment}\n3 (4+0j)\n")
    terms = list(read_terms(path))
    assert [t.dtype for t in terms] == [np.float64, np.float64]
    assert terms[1].tolist() == [[3.0, 4.0]]


def test_no_term_is_yielded_after_a_non_finite_one(tmp_path):
    # the terms before it are yielded as they are read; the rest of the
    # file is still checked before the non-finite term is reported
    path = tmp_path / "seq.txt"
    rows = [f"{n} {n + 1}" for n in range(10)]
    rows[6] = "1 -inf"
    path.write_text("vector 2\n" + "\n".join(rows) + "\n")
    got = []
    with pytest.raises(FormatError, match="^line 8: term is not finite$"):
        for term in read_terms(path):
            got.append(term.tolist())
    assert got == [[n, n + 1] for n in range(6)]
    path.write_text("vector 2\n" + "\n".join(rows) + "\n1 2 3\n")
    with pytest.raises(FormatError, match="^line 12: expected 2 numbers, got 3$"):
        list(read_terms(path))


@pytest.mark.parametrize("header", ["vector 3", "matrix 2 3"])
def test_rows_hold_what_float_reads_of_each_token(tmp_path, header):
    # numpy casts a row's tokens with float(): the odd spellings, an
    # infinity, a negative NaN, and finite numbers whose sum overflows keep
    # float()'s bits and the verdict each term deserves
    from epsaccel.seqio import _parse

    rows = [("1_0 +.5 1E3", True), ("1.5e308 1.7e308 -1e308", True),
            ("1E3 infinity +.5", False), ("-nan 1_0 +.5", False)]
    path = tmp_path / "seq.txt"
    for row, finite in rows:
        # a matrix term's first row is a plain one, its second the row tested
        first = ["1 2 3"] if header.startswith("matrix") else []
        path.write_text("\n".join([header, *first, row]) + "\n")
        (_, reals, imags), = list(_parse(path))[1:]
        assert imags is None and reals.dtype == np.float64
        assert reals[-3:].tobytes() == np.array([float(t) for t in row.split()]).tobytes()
        if finite:
            term, = read_terms(path)
            assert term.reshape(-1)[-3:].tobytes() == reals[-3:].tobytes()
        else:
            with pytest.raises(FormatError, match="^line 2: term is not finite$"):
                list(read_terms(path))
    assert not np.isfinite(sum(float(t) for t in rows[1][0].split()[:2]))


def test_write_terms_is_repr_of_each_number(tmp_path):
    # float rows by repr; complex rows by repr, or the real part's repr when
    # the imaginary part is zero; other dtypes as float64 or complex128
    path = tmp_path / "seq.txt"
    write_terms(path, [np.array([0.1, -0.0, 1e308]), np.array([1, 2, 3])])
    assert path.read_text() == "vector 3\n0.1 -0.0 1e+308\n1.0 2.0 3.0\n"
    write_terms(path, [np.array([[1 + 0j, 0.5 - 2j]], dtype=np.complex64)])
    assert path.read_text() == "matrix 1 2\n1.0 (0.5-2j)\n"
    write_terms(path, [np.array(0.5 - 0.25j), np.array(complex(-0.0, 0.0))],
                comment="two\nlines")
    assert path.read_text() == "# two\n# lines\nscalar\n(0.5-0.25j)\n-0.0\n"
