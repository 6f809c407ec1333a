"""Term conversion and functional evaluation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsaccel import DimensionMismatchError, Functional
from epsaccel.vectorspace import BLOCK, as_term


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
    # float64 and complex128 terms pass through uncopied
    for a in (np.ones(3), np.ones(3, np.complex128)):
        assert as_term(a) is a


def test_dot_functional_conjugates_y():
    y = np.array([1.0 + 1.0j, 2.0])
    x = np.array([1.0j, 1.0])
    f = Functional.dot(y)
    # sum(conj(y) * x) = (1 - 1j)(1j) + 2 = 3 + 1j
    assert f(x) == pytest.approx(3.0 + 1.0j)
    g = Functional.dot(y, conjugate=False)
    assert g(x) == pytest.approx((1 + 1j) * 1j + 2.0)
    assert isinstance(f(np.ones(2)), complex)
    with pytest.raises(DimensionMismatchError):
        f(np.ones(3))


def test_real_dot_returns_python_float():
    f = Functional.dot(np.array([2.0, 0.5]))
    out = f(np.array([1.0, 4.0]))
    assert isinstance(out, float) and out == 4.0


def _bits(z):
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


# about the block and the splits, where an off-by-some split would show
EDGES = [1, 7, 9, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 9, 2 * BLOCK - 1, 2 * BLOCK,
         2 * BLOCK + 7, 2 * BLOCK + 12, 3 * BLOCK - 5, 3 * BLOCK + 8]


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * BLOCK + 8)),
       seed=st.integers(0, 2**32 - 1), y_complex=st.booleans(),
       x_complex=st.booleans(), conjugate=st.booleans(),
       spread=st.integers(0, 12))
def test_blocked_dot_is_the_plain_sum_bit_for_bit(m, seed, y_complex, x_complex,
                                                  conjugate, spread):
    # above one block the dot functional sums block by block along numpy's
    # own pairwise split; the result must be (yuse * x).sum() exactly
    rng = np.random.default_rng(seed)

    def draw(cplx):
        v = rng.standard_normal(m) * 10.0 ** rng.integers(-spread, spread + 1, m)
        return v + 1j * rng.standard_normal(m) if cplx else v

    y, x = draw(y_complex), draw(x_complex)
    yuse = np.conj(y) if conjugate else y
    got = Functional.dot(y, conjugate=conjugate)(x)
    assert _bits(got) == _bits((yuse * x).sum())


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * BLOCK + 8)),
       seed=st.integers(0, 2**32 - 1), y_complex=st.booleans(),
       hi_complex=st.booleans(), lo_complex=st.booleans(),
       conjugate=st.booleans())
def test_functional_of_a_difference_is_bit_identical(m, seed, y_complex, hi_complex,
                                                     lo_complex, conjugate):
    # f(hi, lo) forms hi - lo leaf by leaf above one block; it must give
    # f(hi - lo) exactly, of the same Python type
    rng = np.random.default_rng(seed)

    def draw(cplx):
        v = rng.standard_normal(m)
        return v + 1j * rng.standard_normal(m) if cplx else v

    y, hi, lo = draw(y_complex), draw(hi_complex), draw(lo_complex)
    f = Functional.dot(y, conjugate=conjugate)
    got, want = f(hi, lo), f(hi - lo)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)


def test_functional_of_a_difference_for_every_kind():
    # kinds without a blocked sum evaluate the difference itself
    rng = np.random.default_rng(5)
    X, Z = rng.standard_normal((2, 3, 3))
    u, v = rng.standard_normal((2, 3))
    for f in (Functional.trace(), Functional.trace_weighted(Z),
              Functional.bilinear(u, v)):
        assert _bits(f(X, Z)) == _bits(f(X - Z))
    g = Functional.weighted_dot(u, Z)
    assert _bits(g(u, v)) == _bits(g(u - v))
    h = Functional.dot(2.0 - 1.0j)
    assert _bits(h(np.asarray(1.5), np.asarray(0.25))) == _bits(h(np.asarray(1.25)))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("conjugate", [True, False])
def test_trace_weighted_is_the_trace_of_the_product(complex_, conjugate):
    # the functional sums W * X elementwise instead of forming Y^H @ X; the
    # two round differently, each within about s * eps of sum |Y| |X|
    s = 150
    rng = np.random.default_rng(17)
    for trial in range(4):
        Y, X = rng.standard_normal((2, s, s))
        if complex_:
            Y = Y + 1j * rng.standard_normal((s, s))
            X = X + 1j * rng.standard_normal((s, s))
        if trial % 2:
            X = np.asfortranarray(X)
        want = np.trace((Y.conj().T if conjugate else Y) @ X)
        got = Functional.trace_weighted(Y, conjugate=conjugate)(X)
        assert isinstance(got, complex if complex_ else float)
        scale = np.abs(Y).ravel() @ np.abs(X).ravel()
        assert abs(got - want) <= 2 * s * np.finfo(float).eps * scale


def test_weighted_dot():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    y = np.array([1.0, 1.0])
    f = Functional.weighted_dot(y, M)
    assert f(np.array([1.0, 1.0])) == pytest.approx(4.0)


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
