"""Text round-trips for sequence files."""

import numpy as np
import pytest

from epsaccel.seqio import FormatError, read_terms, write_terms


def roundtrip(tmp_path, terms, comment=None):
    path = tmp_path / "seq.txt"
    write_terms(path, terms, comment=comment)
    return read_terms(path)


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
    back = read_terms(path)
    assert np.array_equal(back[0], [1.0, 2.0])
    assert np.array_equal(back[1], [3.0, 4.0])


def test_matrix_blocks_with_separators(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("matrix 2 2\n1 0\n0 1\n\n2 0\n0 2\n")
    back = read_terms(path)
    assert np.array_equal(back[1], 2 * np.eye(2))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(FormatError):
        read_terms(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("tensor 2 2 2\n1\n")
    with pytest.raises(FormatError):
        read_terms(path)
    path.write_text("vector\n1\n")
    with pytest.raises(FormatError):
        read_terms(path)
    path.write_text("vector -3\n1\n")
    with pytest.raises(FormatError):
        read_terms(path)


def test_bad_number_and_width_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("vector 2\n1 apple\n")
    with pytest.raises(FormatError):
        read_terms(path)
    path.write_text("vector 2\n1 2 3\n")
    with pytest.raises(FormatError):
        read_terms(path)


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
            read_terms(path)


def test_partial_matrix_block_rejected(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("matrix 2 2\n1 0\n")
    with pytest.raises(FormatError):
        read_terms(path)


def test_write_guards(tmp_path):
    with pytest.raises(ValueError):
        write_terms(tmp_path / "x.txt", [])
    with pytest.raises(ValueError):
        write_terms(tmp_path / "x.txt", [np.ones(2), np.ones(3)])
