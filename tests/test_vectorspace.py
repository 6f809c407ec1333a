"""Element algebra and functional evaluation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsaccel import DimensionMismatchError, DualElement, Element, Functional, as_element
from epsaccel.vectorspace import BLOCK


def test_kinds_and_shapes():
    assert Element(2.0).kind == "scalar"
    assert Element(np.ones(4)).kind == "vector"
    assert Element(np.ones((2, 3))).kind == "matrix"
    assert Element(np.ones((2, 3))).shape == (2, 3)
    with pytest.raises(DimensionMismatchError):
        Element(np.ones((2, 2, 2)))


def test_dtype_promotion():
    assert Element([1, 2, 3]).value.dtype == np.float64
    assert Element([1 + 2j, 0]).value.dtype == np.complex128
    with pytest.raises(TypeError):
        Element(np.array(["a", "b"]))


def test_arithmetic_and_shape_checks():
    a = Element(np.array([1.0, 2.0]))
    b = Element(np.array([10.0, 20.0]))
    assert np.array_equal((a + b).value, [11.0, 22.0])
    assert np.array_equal((b - a).value, [9.0, 18.0])
    assert np.array_equal((-a).value, [-1.0, -2.0])
    assert np.array_equal((3 * a).value, (a * 3).value)
    assert np.array_equal((a / 2).value, [0.5, 1.0])
    with pytest.raises(DimensionMismatchError):
        a + Element(np.ones(3))
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        a + 1.0


def test_norms_and_finiteness():
    m = Element(np.array([[3.0, -4.0], [0.0, 0.0]]))
    assert m.norm_inf() == 4.0
    assert m.norm_fro() == pytest.approx(5.0)
    assert m.is_finite()
    assert not Element(np.array([1.0, np.inf])).is_finite()
    z = m.zeros_like()
    assert z.shape == m.shape and z.norm_inf() == 0.0


def test_copy_is_independent():
    a = Element(np.array([1.0, 2.0]))
    c = a.copy()
    c.value[0] = 99.0
    assert a.value[0] == 1.0


def test_as_element_passthrough():
    a = Element(1.0)
    assert as_element(a) is a
    assert isinstance(as_element([1.0, 2.0]), Element)


def test_dot_functional_conjugates_y():
    y = np.array([1.0 + 1.0j, 2.0])
    x = Element(np.array([1.0j, 1.0]))
    f = Functional.dot(y)
    # sum(conj(y) * x) = (1 - 1j)(1j) + 2 = 3 + 1j
    assert f(x) == pytest.approx(3.0 + 1.0j)
    g = Functional.dot(y, conjugate=False)
    assert g(x) == pytest.approx((1 + 1j) * 1j + 2.0)
    assert isinstance(f(Element(np.ones(2))), complex)
    with pytest.raises(DimensionMismatchError):
        f(Element(np.ones(3)))


def test_real_dot_returns_python_float():
    f = Functional.dot(np.array([2.0, 0.5]))
    out = f(Element(np.array([1.0, 4.0])))
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


def test_weighted_dot():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    y = np.array([1.0, 1.0])
    f = Functional.weighted_dot(y, M)
    assert f(Element(np.array([1.0, 1.0]))) == pytest.approx(4.0)


def test_trace_family():
    X = np.array([[1.0, 5.0], [7.0, 2.0]])
    assert Functional.trace()(Element(X)) == 3.0
    Y = np.eye(2)
    assert Functional.trace_weighted(Y)(Element(X)) == pytest.approx(3.0)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert Functional.bilinear(u, v)(Element(X)) == pytest.approx(5.0)
    with pytest.raises(DimensionMismatchError):
        Functional.trace()(Element(np.ones(3)))


def test_dual_element_algebra():
    f = Functional.dot(np.ones(2))
    d = DualElement(2.0, f)
    e = DualElement(0.5, f)
    assert (d + e).coefficient == 2.5
    assert (d - e).coefficient == 1.5
    assert (3 * d).coefficient == 6.0
    assert d(Element(np.array([1.0, 2.0]))) == pytest.approx(6.0)
    assert d.is_finite() and not DualElement(np.inf, f).is_finite()
    with pytest.raises(DimensionMismatchError):
        d + DualElement(1.0, Functional.dot(np.ones(2)))  # different instance
    with pytest.raises(TypeError):
        d + 1.0
