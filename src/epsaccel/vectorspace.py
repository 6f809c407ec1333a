"""Sequence elements and the linear functionals that reduce them to scalars.

The acceleration tables in this package run one and the same recursion whether
the sequence lives in R, R^m, or C^(m x s): all they need from the underlying
space is addition, scaling, and a linear functional.  The elements are plain
float64 or complex128 ndarrays of dimension 0, 1, or 2, so numpy supplies the
algebra.  :func:`as_term` converts a term to one, once, and the tables check
that every term has the first one's shape, so nothing broadcasts silently.
``Functional`` covers the reductions used in practice (dot products, weighted
dot products, traces, bilinear forms).  The odd entries of the full
topological tables are scalar multiples of the table's one functional, so
they are stored as the plain coefficients.

Blocked work.  The element updates (in :mod:`epsaccel.topo_eps`) and the dot
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
differs.  Given a second operand, ``f(hi, lo)`` is ``f(hi - lo)`` bit for
bit; the blocked dot then forms each leaf of ``hi - lo`` in a second scratch
block, so the full-size difference is never made.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK",
    "DimensionMismatchError",
    "Functional",
    "as_term",
]


# entries per block of the blocked element work (module docstring): a
# float64 block is 128 KiB
BLOCK = 1 << 14

_F64 = np.dtype(np.float64)
_C128 = np.dtype(np.complex128)
# the Python type a functional's value of each common numpy type becomes
_PYTHON_SCALAR = {np.float64: float, np.complex128: complex}


class DimensionMismatchError(ValueError):
    """Shapes of two elements, or of an element and a functional, disagree."""


def as_term(value):
    """``value`` as a float64 or complex128 ndarray of dimension 0, 1 or 2.

    The tables call it once per term, beside their check that every term has
    the first one's shape.  An array already of one of those dtypes passes
    through uncopied.
    """
    if (type(value) is np.ndarray and value.ndim <= 2
            and (value.dtype == _F64 or value.dtype == _C128)):
        return value
    arr = np.asarray(value)
    if arr.ndim > 2:
        raise DimensionMismatchError(
            f"elements are scalars, vectors, or matrices; got ndim={arr.ndim}"
        )
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"element dtype must be numeric, got {arr.dtype}")
    if np.iscomplexobj(arr):
        return arr.astype(np.complex128, copy=False)
    return arr.astype(np.float64, copy=False)


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

        def apply_fn(x, lo=None):
            if x.shape != yarr.shape:
                raise DimensionMismatchError(
                    f"functional shape {yarr.shape} vs element shape {x.shape}"
                )
            if x.ndim == 1 and x.shape[0] > BLOCK:
                return _pairwise_dot(yuse, x, lo)
            if lo is not None:
                x = np.asarray(x - lo)
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
        # trace(Y^H X) = sum(conj(Y) * X) and trace(Y X) = sum(Y^T * X): the
        # elementwise sum is O(s^2) and makes no s x s product
        W = np.ascontiguousarray(np.conj(Yarr) if conjugate else Yarr.T)

        def apply_fn(x):
            if x.ndim != 2 or x.shape != Yarr.shape:
                raise DimensionMismatchError(
                    f"trace_weighted shapes {Yarr.shape} vs {x.shape}"
                )
            return (W * x).sum()

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

    def apply(self, x, lo=None):
        """Evaluate on an array, or on ``x - lo`` bit for bit when ``lo`` is
        given (module docstring); returns a python scalar."""
        x = np.asarray(x)
        if lo is None:
            out = self._apply(x)
        elif self.kind == "dot":
            out = self._apply(x, np.asarray(lo))
        else:
            out = self._apply(np.asarray(x - lo))
        kind = _PYTHON_SCALAR.get(type(out))
        if kind is None:
            kind = complex if np.iscomplexobj(out) else float
        return kind(out)

    __call__ = apply

    def __repr__(self):
        return f"Functional({self.label})"


def _pairwise_dot(yuse, x, lo=None):
    """``(yuse * x).sum()`` of 1-d operands, bit for bit, one block at a time,
    or ``(yuse * (x - lo)).sum()`` given ``lo``.

    The scratch is made per call: a functional may be shared by threads.
    """
    diff = None if lo is None else np.empty(BLOCK, np.result_type(x, lo))
    scratch = np.empty(BLOCK, np.result_type(yuse, x if lo is None else diff))
    return _pairwise_sum(yuse, x, lo, 0, x.shape[0], scratch, diff)


def _pairwise_sum(yuse, x, lo, i, m, scratch, diff):
    """Sum of ``yuse * (x - lo)`` (``yuse * x`` without ``lo``) over
    ``[i, i + m)``, split as numpy splits it."""
    if m <= BLOCK:
        leaf = scratch[:m]
        xs = x[i:i + m]
        if lo is not None:
            xs = np.subtract(xs, lo[i:i + m], out=diff[:m])
        np.multiply(yuse[i:i + m], xs, out=leaf)
        return leaf.sum()
    if scratch.dtype.kind == "c":
        n2 = (m - m % 8) // 2
    else:
        n2 = m // 2
        n2 -= n2 % 8
    return (_pairwise_sum(yuse, x, lo, i, n2, scratch, diff)
            + _pairwise_sum(yuse, x, lo, i + n2, m - n2, scratch, diff))
