"""Term conversion and functional evaluation."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsaccel import DimensionMismatchError, Functional
from epsaccel.vectorspace import BLOCK, BLOCKED_DOT, _pairwise_dot, as_term


def test_kinds_and_shapes():
    assert as_term(2.0).shape == ()
    assert as_term(np.ones(4)).shape == (4,)
    assert as_term(np.ones((2, 3))).shape == (2, 3)
    with pytest.raises(DimensionMismatchError):
        as_term(np.ones((2, 2, 2)))


def test_dtype_promotion():
    assert as_term([1, 2, 3]).dtype == np.float64
    assert as_term(np.ones(2, np.float32)).dtype == np.float64
    assert as_term([1 + 2j, 0]).dtype == np.complex128
    assert as_term(np.ones(2, np.complex64)).dtype == np.complex128
    with pytest.raises(TypeError):
        as_term(np.array(["a", "b"]))
    # C-contiguous float64 and complex128 terms pass through uncopied
    for a in (np.ones(3), np.ones(3, np.complex128), np.asarray(2.0)):
        assert as_term(a) is a


def test_terms_come_out_c_contiguous():
    # a Fortran-ordered, strided or float32 term is copied once into a
    # C-contiguous array of the same values and shape; a 0-d one stays 0-d
    m = np.arange(12.0).reshape(3, 4)
    for a in (np.asfortranarray(m), m[:, ::2], np.arange(8.0)[::2],
              np.asfortranarray(m, np.float32), np.float32(1.5)):
        t = as_term(a)
        assert t.flags.c_contiguous and t.shape == np.shape(a)
        assert not np.shares_memory(t, a)
        assert np.array_equal(t, a)


def test_dot_functional_conjugates_y():
    y = np.array([1.0 + 1.0j, 2.0])
    x = np.array([1.0j, 1.0])
    f = Functional.dot(y)
    # sum(conj(y) * x) = (1 - 1j)(1j) + 2 = 3 + 1j
    assert f(x) == pytest.approx(3.0 + 1.0j)
    # weighing by conj(y) gives the bilinear sum(y * x)
    g = Functional.dot(np.conj(y))
    assert g(x) == pytest.approx((1 + 1j) * 1j + 2.0)
    assert isinstance(f(np.ones(2)), complex)
    with pytest.raises(DimensionMismatchError):
        f(np.ones(3))


def test_real_dot_returns_python_float():
    f = Functional.dot(np.array([2.0, 0.5]))
    out = f(np.array([1.0, 4.0]))
    assert isinstance(out, float) and out == 4.0


def _bits(z):
    # any NaN as the one NaN: where both halves of a sum are NaN, numpy's
    # compiled pairwise sum and the blocked sum's Python-level add of the
    # halves keep the NaN of different operands
    z = complex(z)
    return struct.pack("<dd", *(math.nan if math.isnan(v) else v for v in (z.real, z.imag)))


# about the block and the splits, where an off-by-some split would show
EDGES = [1, 7, 9, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 9, 2 * BLOCK - 1, 2 * BLOCK,
         2 * BLOCK + 7, 2 * BLOCK + 12, 3 * BLOCK - 5, 3 * BLOCK + 8]
# y of ones takes the sum without the product only as float64; one entry off
# 1.0, or a complex 1+0j, keeps the product
Y_KINDS = ["random", "complex", "ones", "complex-ones", "ones-but-one"]
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.7e308, -1.7e308]


def _y(kind, rng, m):
    if kind == "random":
        return rng.standard_normal(m)
    if kind == "complex":
        return rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = np.ones(m, complex if kind == "complex-ones" else float)
    if kind == "ones-but-one":
        y[rng.integers(m)] = np.nextafter(1, 2)
    return y


def _sprinkle(rng, v):
    """``v`` with a few entries (and imaginary parts) set to signed zeros,
    infinities, NaN, subnormals or numbers near overflow."""
    for part in (v.real, v.imag) if np.iscomplexobj(v) else (v,):
        where = rng.integers(0, v.size, rng.integers(1, 9))
        part[where] = rng.choice(SPECIALS, where.size)
    return v


def _python_type(value):
    return complex if np.iscomplexobj(value) else float


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * BLOCK + 8)),
       seed=st.integers(0, 2**32 - 1), y_kind=st.sampled_from(Y_KINDS),
       x_complex=st.booleans(), conj_y=st.booleans(),
       spread=st.integers(0, 12), special=st.booleans())
@np.errstate(all="ignore")  # the special entries overflow or make NaN
def test_blocked_dot_is_the_plain_sum_bit_for_bit(m, seed, y_kind, x_complex,
                                                  conj_y, spread, special):
    # the blocked sum follows numpy's own pairwise split block by block;
    # the result must be (yuse * x).sum() exactly, whichever sum the
    # functional picks at this length and for this y
    rng = np.random.default_rng(seed)
    y = _y(y_kind, rng, m)
    x = rng.standard_normal(m) * 10.0 ** rng.integers(-spread, spread + 1, m)
    if x_complex:
        x = x + 1j * rng.standard_normal(m)
    if special:
        x = _sprinkle(rng, x)
    # the weights passed in are y or conj(y), so yuse is conj(y) or y
    weights = np.conj(y) if conj_y else y
    yuse = np.conj(weights)
    want = (yuse * x).sum()
    assert _bits(_pairwise_dot(yuse, x)) == _bits(want)
    got = Functional.dot(weights)(x)
    assert type(got) is _python_type(want)
    assert _bits(got) == _bits(want)


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * BLOCK + 8)),
       seed=st.integers(0, 2**32 - 1), y_kind=st.sampled_from(Y_KINDS),
       hi_complex=st.booleans(), lo_complex=st.booleans(),
       conj_y=st.booleans(), special=st.booleans())
@np.errstate(all="ignore")  # the special entries overflow or make NaN
def test_functional_of_a_difference_is_bit_identical(m, seed, y_kind, hi_complex,
                                                     lo_complex, conj_y, special):
    # the blocked sum forms hi - lo leaf by leaf; f(hi, lo) must give
    # f(hi - lo) exactly, of the same Python type
    rng = np.random.default_rng(seed)

    def draw(cplx):
        v = rng.standard_normal(m)
        v = v + 1j * rng.standard_normal(m) if cplx else v
        return _sprinkle(rng, v) if special else v

    y, hi, lo = _y(y_kind, rng, m), draw(hi_complex), draw(lo_complex)
    weights = np.conj(y) if conj_y else y
    f = Functional.dot(weights)
    got, want = f(hi, lo), f(hi - lo)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)
    yuse = np.conj(weights)
    # the difference is held, so numpy cannot multiply into it in place: its
    # in-place complex product can round otherwise
    diff = hi - lo
    plain = (yuse * diff).sum()
    assert type(got) is _python_type(plain)
    assert _bits(got) == _bits(plain)
    assert _bits(_pairwise_dot(yuse, hi, lo)) == _bits(plain)


@pytest.mark.parametrize("m", [BLOCKED_DOT - 9, BLOCKED_DOT - 1, BLOCKED_DOT,
                               BLOCKED_DOT + 1, BLOCKED_DOT + 9])
@pytest.mark.parametrize("kinds", ["real", "complex-x", "complex-y", "ones",
                                   "ones-complex-x", "ones-complex-lo", "ones-but-one",
                                   "complex-ones", "ones-special"])
@np.errstate(all="ignore")  # the special entries overflow or make NaN
def test_dot_is_bit_identical_on_both_sides_of_the_blocked_threshold(m, kinds):
    # f(x) takes the plain sum below BLOCKED_DOT and the blocked one from it
    # on, f(hi, lo) the blocked one at all these lengths, each without the
    # product for a float64 y of ones and float64 operands: every value is
    # (yuse * x).sum() or f(hi - lo) exactly
    rng = np.random.default_rng(m)
    y, hi, lo = rng.standard_normal((3, m))
    if kinds.startswith("ones") or kinds == "complex-ones":
        y = _y(kinds if kinds in Y_KINDS else "ones", rng, m)
    if kinds.endswith("complex-x"):
        hi = hi + 1j * rng.standard_normal(m)
    elif kinds == "ones-complex-lo":
        lo = lo + 1j * rng.standard_normal(m)
    elif kinds == "complex-y":
        y = y + 1j * rng.standard_normal(m)
    elif kinds == "ones-special":
        hi, lo = _sprinkle(rng, hi), _sprinkle(rng, lo)
    f = Functional.dot(y)
    want = (np.conj(y) * hi).sum()
    assert type(f(hi)) is _python_type(want)
    assert _bits(f(hi)) == _bits(want)
    got, want = f(hi, lo), f(hi - lo)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("m", [5, BLOCK + 9, BLOCKED_DOT + 9])
def test_only_a_float64_y_of_ones_on_float64_operands_skips_the_product(m):
    # one entry of y one ulp above 1.0 moves a lone 2**60 by 2**8, so the
    # sum shows whether the product was taken; so do the rounding of
    # float32 and integer operands and the NaN a complex 1+0j makes of inf
    x, zero = np.zeros(m), np.zeros(m)
    x[m // 2] = 2.0 ** 60
    y = np.ones(m)
    assert Functional.dot(y)(x) == Functional.dot(y)(x, zero) == 2.0 ** 60
    y[m // 2] = np.nextafter(1, 2)
    assert Functional.dot(y)(x) == Functional.dot(y)(x, zero) == 2.0 ** 60 + 2 ** 8
    f = Functional.dot(np.ones(m))
    x32 = np.ones(m, np.float32)
    x32[0] = 2 ** 24
    assert f(x32) == 2.0 ** 24 + m - 1
    ints = np.ones(m, np.int64)
    ints[0] = 2 ** 60
    assert type(f(ints)) is float and f(ints) == (np.ones(m) * ints).sum()
    cinf = np.zeros(m, complex)
    cinf[0] = math.inf
    with np.errstate(invalid="ignore"):
        for g in (f, Functional.dot(np.ones(m, complex))):
            # (1+0j) * inf is inf + nan*j
            assert type(g(cinf)) is complex and math.isnan(g(cinf).imag)


@pytest.mark.parametrize("kind", ["dot", "dot-above-block", "dot-0d", "trace",
                                  "trace_weighted", "bilinear"])
def test_a_difference_of_elements_of_two_shapes_is_rejected(kind):
    # lo is checked against x as x is against the functional: it was
    # broadcast, read in part, or failed with an IndexError
    m = BLOCK + 3
    f, x, los = {
        "dot": (Functional.dot(np.ones(5)), np.arange(5.0), [np.array(1.0), np.ones(4)]),
        "dot-above-block": (Functional.dot(np.ones(m)), np.ones(m),
                            [np.array(1.0), np.ones(m + 1), np.ones((1, m))]),
        "dot-0d": (Functional.dot(2.0), np.asarray(1.5), [np.ones(1)]),
        "trace": (Functional.trace(), np.eye(3), [np.ones((1, 3)), np.ones(3)]),
        "trace_weighted": (Functional.trace_weighted(np.eye(3)), np.eye(3),
                           [np.ones((3, 1))]),
        "bilinear": (Functional.bilinear(np.ones(3), np.ones(3)), np.eye(3),
                     [np.array(1.0)]),
    }[kind]
    for lo in los:
        with pytest.raises(DimensionMismatchError):
            f(x, lo)


def test_matrix_functionals_reject_a_term_of_another_shape():
    # trace_weighted wants a matrix Y, and it and bilinear a term of their
    # own shape
    with pytest.raises(DimensionMismatchError, match="matrix Y"):
        Functional.trace_weighted(np.ones(3))
    tw = Functional.trace_weighted(np.ones((2, 3)))
    bl = Functional.bilinear(np.ones(2), np.ones(3))
    assert tw(np.ones((2, 3))) == bl(np.ones((2, 3))) == 6.0
    for x in (np.ones((3, 2)), np.ones(6), np.array(1.0), np.ones((2, 3, 1))):
        for f, message in ((tw, r"trace_weighted shapes \(2, 3\) vs"),
                           (bl, r"bilinear form of shape \(2, 3\) vs element")):
            with pytest.raises(DimensionMismatchError, match=message):
                f(x)


@pytest.mark.parametrize("m", [1, 5, 100, BLOCK])
@np.errstate(all="ignore")  # the special entries overflow or make NaN
def test_the_lean_sum_of_ones_is_the_general_one(m):
    # a float64 y of ones of at most one block sums float64 ndarrays of its
    # shape through its lean branch, its scratch reused across calls, and
    # gives the plain sum's bits, strided operands included; other operands
    # take the general branch, and a shape of its own is rejected there
    from epsaccel.vectorspace import _F64

    rng = np.random.default_rng(m)
    f = Functional.dot(np.ones(m))
    assert f._lean is not None
    assert Functional.dot(np.ones(BLOCK + 1))._lean is None
    assert Functional.dot(np.ones(m, complex))._lean is None
    assert Functional.dot(np.ones(m) * 2)._lean is None
    for trial in range(6):
        hi, lo = _sprinkle(rng, rng.standard_normal(m)), rng.standard_normal(2 * m)[::2]
        for x in (hi, lo):
            want = x.sum()
            assert type(f(x)) is float and _bits(f(x)) == _bits(want)
        want = (hi - lo).sum()
        got = f(hi, lo)
        assert type(got) is float and _bits(got) == _bits(want)
        assert f._lean(hi, lo) == got or math.isnan(got)
    x32 = hi.astype(np.float32)
    for x, lo in ((x32, None), (hi, x32), (list(hi), None), (hi, hi + 0j)):
        assert f._lean(x, lo) is None
        assert _bits(f(x, lo)) == _bits(f(np.asarray(x, _F64) - (0 if lo is None else lo)))
    for x, lo in ((np.ones(m + 1), None), (hi, np.ones(m + 1))):
        with pytest.raises(DimensionMismatchError):
            f(x, lo)


def test_functional_of_a_difference_for_every_kind():
    # kinds without a blocked sum evaluate the difference itself
    rng = np.random.default_rng(5)
    X, Z = rng.standard_normal((2, 3, 3))
    u, v = rng.standard_normal((2, 3))
    for f in (Functional.trace(), Functional.trace_weighted(Z),
              Functional.bilinear(u, v)):
        assert _bits(f(X, Z)) == _bits(f(X - Z))
    h = Functional.dot(2.0 - 1.0j)
    assert _bits(h(np.asarray(1.5), np.asarray(0.25))) == _bits(h(np.asarray(1.25)))


@pytest.mark.parametrize("s", [1, 2, 50, 200, 1000])
@pytest.mark.parametrize("complex_", [False, True])
@np.errstate(all="ignore")  # the special entries overflow or make NaN
def test_trace_of_a_difference_reads_only_the_diagonals(s, complex_):
    # f(X, Z) is np.trace(X - Z) bit for bit, with signed zeros, infinities
    # and NaN on the diagonal and off it, and never forms X - Z
    rng = np.random.default_rng(s)
    f = Functional.trace()
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    for trial in range(12):
        X, Z = rng.standard_normal((2, s, s))
        if complex_:
            X, Z = X + 1j * rng.standard_normal((s, s)), Z + 1j * rng.standard_normal((s, s))
        for a in (X, Z):
            for part in (a.real, a.imag) if complex_ else (a,):
                rows = rng.integers(0, s, 4)
                part[rows, rows if trial % 2 else rng.integers(0, s, 4)] = rng.choice(specials, 4)
                if trial == 0:
                    np.fill_diagonal(part, rng.choice(specials))
        want = np.trace(X - Z)
        got = f(X, Z)
        assert type(got) is _python_type(want) and _bits(got) == _bits(want), trial
    tracemalloc.start()
    try:
        f(X, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * X.itemsize * s + 2048


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("form", ["trace(Y^H X)", "trace(Y X)"])
@pytest.mark.parametrize("m", [150, 60])
def test_trace_weighted_is_the_trace_of_the_product(complex_, form, m):
    # trace(Y^H X) weighs an s x m X by Y, and trace(Y X) by conj(Y).T; the
    # functional sums conj(W) * X elementwise instead of forming the
    # product, and the two round differently, each within about s * eps of
    # sum |W| |X|
    s = 150
    rng = np.random.default_rng(17)
    yshape = (s, m) if form == "trace(Y^H X)" else (m, s)
    for trial in range(4):
        Y, X = rng.standard_normal(yshape), rng.standard_normal((s, m))
        if complex_:
            Y = Y + 1j * rng.standard_normal(yshape)
            X = X + 1j * rng.standard_normal((s, m))
        if trial % 2:
            X = np.asfortranarray(X)
        if form == "trace(Y^H X)":
            W, want = Y, np.trace(Y.conj().T @ X)
        else:
            W, want = np.conj(Y).T, np.trace(Y @ X)
        got = Functional.trace_weighted(W)(X)
        assert isinstance(got, complex if complex_ else float)
        scale = np.abs(W).ravel() @ np.abs(X).ravel()
        assert abs(got - want) <= 2 * s * np.finfo(float).eps * scale


def test_trace_family():
    X = np.array([[1.0, 5.0], [7.0, 2.0]])
    assert Functional.trace()(X) == 3.0
    Y = np.eye(2)
    assert Functional.trace_weighted(Y)(X) == pytest.approx(3.0)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert Functional.bilinear(u, v)(X) == pytest.approx(5.0)
    with pytest.raises(DimensionMismatchError):
        Functional.trace()(np.ones(3))
