"""Sequence elements and the linear functionals that reduce them to scalars.

The acceleration tables in this package run one and the same recursion whether
the sequence lives in R, R^m, or C^(m x s): all they need from the underlying
space is addition, scaling, and a linear functional.  ``Element`` wraps a
numpy array (0-d, 1-d, or 2-d) and supplies exactly that algebra, with shape
checking that fails loudly instead of broadcasting silently.  ``Functional``
covers the reductions used in practice (dot products, weighted dot products,
traces, bilinear forms), and ``DualElement`` represents scalar multiples of a
functional, which is what the odd entries of the topological tables are.

Blocked work.  Element updates (in :mod:`epsaccel.topo_eps`) and the dot
functional work on long elements in blocks of :data:`BLOCK` entries through
scratch buffers of one block, so that each block stays in a core's L2 cache
and no full-size temporary is made.  A dot functional over more than one
block evaluates ``sum(yuse * x)`` by following numpy's own pairwise
summation: it splits the range where numpy's pairwise sum splits it
(``n2 = m // 2`` rounded down to a multiple of 8 for real products;
``(m - m % 8) // 2`` for complex ones, since numpy halves the count of
reals), multiplies each leaf of at most one block into the scratch, sums it
with ``.sum()`` and adds the halves as numpy does.  The product and the
summation order are numpy's, so the result is bit-identical to
``(yuse * x).sum()``.  It never calls ``np.dot`` or BLAS, whose rounding
differs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK",
    "DimensionMismatchError",
    "Element",
    "Functional",
    "DualElement",
    "as_element",
]


# entries per block of the blocked element work (module docstring): a
# float64 block is 128 KiB
BLOCK = 1 << 14


class DimensionMismatchError(ValueError):
    """Shapes of two elements, or of an element and a functional, disagree."""


class Element:
    """A scalar, vector, or matrix, closed under addition and scaling.

    The wrapped value is always a float64 or complex128 ndarray of dimension
    0, 1, or 2.  Arithmetic between elements requires identical shapes;
    multiplication is by scalars only.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        arr = np.asarray(value)
        if arr.ndim > 2:
            raise DimensionMismatchError(
                f"elements are scalars, vectors, or matrices; got ndim={arr.ndim}"
            )
        if not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"element dtype must be numeric, got {arr.dtype}")
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128, copy=False)
        else:
            arr = arr.astype(np.float64, copy=False)
        self.value = arr

    @property
    def kind(self):
        return ("scalar", "vector", "matrix")[self.value.ndim]

    @property
    def shape(self):
        return self.value.shape

    def _check_compatible(self, other):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if self.value.shape != other.value.shape:
            raise DimensionMismatchError(
                f"shape mismatch: {self.value.shape} vs {other.value.shape}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        return Element(self.value + other.value)

    def __sub__(self, other):
        self._check_compatible(other)
        return Element(self.value - other.value)

    def __neg__(self):
        return Element(-self.value)

    def __mul__(self, c):
        if isinstance(c, Element):
            raise TypeError("elements multiply by scalars only")
        return Element(self.value * c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, Element):
            raise TypeError("elements divide by scalars only")
        return Element(self.value / c)

    def norm_inf(self):
        """Largest entry magnitude (the reporting norm for every kind)."""
        return float(np.max(np.abs(self.value))) if self.value.size else 0.0

    def norm_fro(self):
        """Frobenius norm; for vectors the Euclidean norm, for scalars abs."""
        return float(np.linalg.norm(self.value))

    def is_finite(self):
        return bool(np.all(np.isfinite(self.value)))

    def zeros_like(self):
        return Element(np.zeros_like(self.value))

    def copy(self):
        return Element(self.value.copy())

    def __repr__(self):
        return f"Element({self.kind}, shape={self.value.shape})"


def as_element(x):
    """Wrap ``x`` in an :class:`Element`, passing actual elements through."""
    return x if isinstance(x, Element) else Element(x)


class Functional:
    """A linear functional on elements, evaluated as ``f(element) -> scalar``.

    Construct through the classmethods:

    ``dot(y)``
        ``sum(conj(y) * x)`` for scalars and vectors.  With ``conjugate=False``
        the form is bilinear instead of sesquilinear.
    ``weighted_dot(y, M)``
        ``<y, M x>`` for vectors.
    ``trace()``
        matrix trace.
    ``trace_weighted(Y)``
        ``trace(Y^H X)`` for matrices (``trace(Y X)`` when not conjugated).
    ``bilinear(u, v)``
        ``u^H X v`` for matrices.
    """

    def __init__(self, kind, apply_fn, label, conjugate=True):
        self.kind = kind
        self._apply = apply_fn
        self.label = label
        self.conjugate = conjugate

    @classmethod
    def dot(cls, y, conjugate=True):
        yarr = np.asarray(y, dtype=complex if np.iscomplexobj(np.asarray(y)) else float)
        if yarr.ndim > 1:
            raise DimensionMismatchError("dot functional wants a scalar or vector y")
        yuse = np.conj(yarr) if conjugate else yarr

        def apply_fn(x):
            if x.shape != yarr.shape:
                raise DimensionMismatchError(
                    f"functional shape {yarr.shape} vs element shape {x.shape}"
                )
            if x.ndim == 1 and x.shape[0] > BLOCK:
                return _pairwise_dot(yuse, x)
            return (yuse * x).sum()

        return cls("dot", apply_fn, f"dot(dim={yarr.size})", conjugate)

    @classmethod
    def weighted_dot(cls, y, M, conjugate=True):
        yarr = np.asarray(y)
        Marr = np.asarray(M)
        if yarr.ndim != 1 or Marr.ndim != 2 or Marr.shape[0] != yarr.shape[0]:
            raise DimensionMismatchError("weighted dot wants vector y and matrix M with matching rows")
        yuse = np.conj(yarr) if conjugate else yarr

        def apply_fn(x):
            if x.ndim != 1 or x.shape[0] != Marr.shape[1]:
                raise DimensionMismatchError(
                    f"weighted dot of width {Marr.shape[1]} vs element shape {x.shape}"
                )
            return yuse @ (Marr @ x)

        return cls("weighted_dot", apply_fn, "weighted_dot", conjugate)

    @classmethod
    def trace(cls):
        def apply_fn(x):
            if x.ndim != 2:
                raise DimensionMismatchError("trace functional wants a matrix element")
            return np.trace(x)

        return cls("trace", apply_fn, "trace", True)

    @classmethod
    def trace_weighted(cls, Y, conjugate=True):
        Yarr = np.asarray(Y)
        if Yarr.ndim != 2:
            raise DimensionMismatchError("trace_weighted wants a matrix Y")
        Yuse = Yarr.conj().T if conjugate else Yarr

        def apply_fn(x):
            if x.ndim != 2 or x.shape != Yarr.shape:
                raise DimensionMismatchError(
                    f"trace_weighted shapes {Yarr.shape} vs {x.shape}"
                )
            return np.trace(Yuse @ x)

        return cls("trace_weighted", apply_fn, "trace_weighted", conjugate)

    @classmethod
    def bilinear(cls, u, v, conjugate=True):
        uarr = np.asarray(u)
        varr = np.asarray(v)
        if uarr.ndim != 1 or varr.ndim != 1:
            raise DimensionMismatchError("bilinear functional wants two vectors")
        uuse = np.conj(uarr) if conjugate else uarr

        def apply_fn(x):
            if x.ndim != 2 or x.shape != (uarr.shape[0], varr.shape[0]):
                raise DimensionMismatchError(
                    f"bilinear form of shape {(uarr.shape[0], varr.shape[0])} vs element {x.shape}"
                )
            return uuse @ x @ varr

        return cls("bilinear", apply_fn, "bilinear", conjugate)

    def apply(self, x):
        """Evaluate on an Element (or bare array); returns a python scalar."""
        arr = x.value if isinstance(x, Element) else np.asarray(x)
        out = self._apply(arr)
        out = complex(out) if np.iscomplexobj(out) else float(out)
        return out

    __call__ = apply

    def __repr__(self):
        return f"Functional({self.label})"


def _pairwise_dot(yuse, x):
    """``(yuse * x).sum()`` of 1-d operands, bit for bit, one block at a time.

    The scratch is made per call: a functional may be shared by threads.
    """
    scratch = np.empty(BLOCK, np.result_type(yuse, x))
    return _pairwise_sum(yuse, x, 0, x.shape[0], scratch)


def _pairwise_sum(yuse, x, lo, m, scratch):
    """Sum of ``yuse * x`` over ``[lo, lo + m)``, split as numpy splits it."""
    if m <= BLOCK:
        leaf = scratch[:m]
        np.multiply(yuse[lo:lo + m], x[lo:lo + m], out=leaf)
        return leaf.sum()
    if scratch.dtype.kind == "c":
        n2 = (m - m % 8) // 2
    else:
        n2 = m // 2
        n2 -= n2 % 8
    return (_pairwise_sum(yuse, x, lo, n2, scratch)
            + _pairwise_sum(yuse, x, lo + n2, m - n2, scratch))


class DualElement:
    """A scalar multiple ``c * f`` of a functional ``f``.

    The odd entries of the full topological tables live in the dual space and
    are exactly such multiples, so storing the coefficient is enough.
    """

    __slots__ = ("coefficient", "functional")

    def __init__(self, coefficient, functional):
        self.coefficient = coefficient
        self.functional = functional

    def apply(self, x):
        return self.coefficient * self.functional.apply(x)

    __call__ = apply

    def _check(self, other):
        if not isinstance(other, DualElement):
            raise TypeError(f"expected DualElement, got {type(other).__name__}")
        if other.functional is not self.functional:
            raise DimensionMismatchError("dual elements built on different functionals")

    def __add__(self, other):
        self._check(other)
        return DualElement(self.coefficient + other.coefficient, self.functional)

    def __sub__(self, other):
        self._check(other)
        return DualElement(self.coefficient - other.coefficient, self.functional)

    def __mul__(self, c):
        return DualElement(self.coefficient * c, self.functional)

    __rmul__ = __mul__

    def is_finite(self):
        return bool(np.isfinite(self.coefficient))

    def __repr__(self):
        return f"DualElement({self.coefficient!r})"
