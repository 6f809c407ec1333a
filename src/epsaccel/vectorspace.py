"""Sequence elements and the linear functionals that reduce them to scalars.

The acceleration tables in this package run one and the same recursion whether
the sequence lives in R, R^m, or C^(m x s): all they need from the underlying
space is addition, scaling, and a linear functional.  The elements are plain
C-contiguous float64 or complex128 ndarrays of dimension 0, 1, or 2, so numpy
supplies the algebra and the element updates can be written block by block
into a flat view of any entry.  :func:`as_term` converts a term to one, once
(a term of another dtype or layout is copied), and the tables check that
every term has the first one's shape, so nothing broadcasts silently.
``Functional`` covers the reductions used in practice (dot products, traces,
weighted traces, bilinear forms).  The odd entries of the full
topological tables are scalar multiples of the table's one functional, so
they are stored as the plain coefficients.

Blocked work.  The element updates (in :mod:`epsaccel.topo_eps`) and the dot
functional work on long elements in blocks of :data:`BLOCK` entries through
scratch buffers of one block, so that each block stays in a core's L2 cache
and no full-size temporary is made.  A dot functional of a 1-d element of
at least :data:`BLOCKED_DOT` entries evaluates ``sum(yuse * x)`` by
following numpy's own pairwise summation: it splits the range where
numpy's pairwise sum splits it (``n2 = m // 2`` rounded down to a multiple
of 8 for real products; ``(m - m % 8) // 2`` for complex ones, since numpy
halves the count of reals), multiplies each leaf of at most one block into
the scratch, sums it with ``.sum()`` and adds the halves as numpy does.
The product and the summation order are numpy's, so the result is
bit-identical to ``(yuse * x).sum()``, up to the sign of a NaN where both
halves of a sum are NaN (which one an add keeps is the compiler's choice).
It never calls ``np.dot`` or BLAS, whose rounding differs.  Below :data:`BLOCKED_DOT` the functional evaluates that plain
expression itself: its one full-size temporary then stays in cache, and it
is the faster of the two.  Given a second operand, ``f(hi, lo)`` is
``f(hi - lo)`` bit for bit; the trace takes it from the two diagonals
alone, ``(hi.diagonal() - lo.diagonal()).sum()``, and above one block the
blocked dot forms each leaf of ``hi - lo`` in a second scratch block, so
the full-size difference is never made.  The plain
``(yuse * (hi - lo)).sum()`` would make two temporaries, and freeing both
at the top of the heap can make the C allocator hand the pages back and
fault them in again on the next call.

A float64 ``y`` whose entries are all exactly 1.0, the default functional,
takes no product on float64 operands: a float64 times 1.0 is the float64
bit for bit (signed zeros, infinities and NaN included), so numpy's sum of
the product is the sum of the operand.  There ``f(x)`` is ``x.sum()``, one
numpy call at every length that never blocks, and ``f(hi, lo)`` is
``(hi - lo).sum()`` up to one block and above it the same blocked walk,
which subtracts each leaf into the scratch and sums it.  Any other ``y``,
and operands that are not float64, keep the product: ``(1+0j) * x`` is not
``x`` where ``x`` has an infinity or a signed zero.

Such a ``y`` of at most one block, 1-d, also gets a lean branch, decided
once at construction: on float64 ndarrays of its shape, ``f(x)`` is
``np.add.reduce(x)`` and ``f(hi, lo)`` is ``np.add.reduce`` of
``np.subtract(hi, lo)`` written into a scratch of the functional's own,
each returned as a float straight away, with none of the general path's
conversions and checks.  These are ``x.sum()`` and ``(hi - lo).sum()`` bit
for bit; any other operand takes the general path, which raises on a
shape of its own.  The scratch makes a functional of this kind unsafe to
evaluate from two threads at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK",
    "BLOCKED_DOT",
    "DimensionMismatchError",
    "Functional",
    "as_term",
]


# entries per block of the blocked element work (module docstring): a
# float64 block is 128 KiB
BLOCK = 1 << 14
# the length from which a 1-d dot functional f(x) sums block by block
# (module docstring): the measured crossover, below which the plain
# product-and-sum is faster (on a 2-CPU x86-64 host with numpy 2.4 and
# glibc, 1.06-1.5x from one block to 1e5 entries, 0.90-0.96x at 2**17).  A
# functional of a difference, f(hi, lo), sums block by block above one block;
# f(x) with a y of ones on a float64 x is x.sum() and never blocks
BLOCKED_DOT = 1 << 17

_F64 = np.dtype(np.float64)
_C128 = np.dtype(np.complex128)
# the kinds whose own evaluation takes f(hi, lo) without forming hi - lo
_OF_A_DIFFERENCE = ("dot", "trace")
# the Python type a functional's value of each common numpy type becomes
_PYTHON_SCALAR = {np.float64: float, np.complex128: complex}


class DimensionMismatchError(ValueError):
    """Shapes of two elements, or of an element and a functional, disagree."""


def as_term(value):
    """``value`` as a C-contiguous float64 or complex128 ndarray of dimension
    0, 1 or 2.

    The tables call it once per term, beside their check that every term has
    the first one's shape.  A C-contiguous array already of one of those
    dtypes passes through uncopied; any other is copied once.
    """
    if (type(value) is np.ndarray and value.ndim <= 2
            and (value.dtype == _F64 or value.dtype == _C128)
            and value.flags.c_contiguous):
        return value
    arr = np.asarray(value)
    if arr.ndim > 2:
        raise DimensionMismatchError(
            f"elements are scalars, vectors, or matrices; got ndim={arr.ndim}"
        )
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"element dtype must be numeric, got {arr.dtype}")
    return arr.astype(_C128 if np.iscomplexobj(arr) else _F64, order="C", copy=False)


class Functional:
    """A linear functional on elements, evaluated as ``f(element) -> scalar``.

    Construct through the classmethods:

    ``dot(y)``
        ``sum(conj(y) * x)`` for scalars and vectors; ``dot(conj(y))`` is
        the bilinear ``sum(y * x)``.
    ``trace()``
        matrix trace.
    ``trace_weighted(Y)``
        ``trace(Y^H X)`` for matrices; ``trace_weighted(conj(Y).T)`` is
        ``trace(Y X)``.
    ``bilinear(u, v)``
        ``u^H X v`` for matrices; ``bilinear(conj(u), v)`` is ``u^T X v``.
    """

    # the float of f(x) or f(x, lo) on the operands it takes, else None;
    # None for a functional that has no such branch
    _lean = None

    def __init__(self, kind, apply_fn, label):
        self.kind = kind
        self._apply = apply_fn
        self.label = label

    @classmethod
    def dot(cls, y):
        yarr = np.asarray(y, dtype=complex if np.iscomplexobj(np.asarray(y)) else float)
        if yarr.ndim > 1:
            raise DimensionMismatchError("dot functional wants a scalar or vector y")
        yuse = np.conj(yarr)
        # a float64 y of ones: on float64 operands the product is the
        # operand bit for bit, so the sum is taken without it (module docstring)
        ones = yuse.dtype == _F64 and bool((yuse == 1.0).all())

        def apply_fn(x, lo=None):
            if x.shape != yarr.shape:
                raise DimensionMismatchError(
                    f"functional shape {yarr.shape} vs element shape {x.shape}"
                )
            w = (None if ones and x.dtype == _F64 and (lo is None or lo.dtype == _F64)
                 else yuse)
            if w is None and lo is None:
                return x.sum()
            m = x.shape[0] if x.ndim == 1 else 0
            if m >= BLOCKED_DOT or (lo is not None and m > BLOCK):
                return _pairwise_dot(w, x, lo)
            if lo is not None:
                x = np.asarray(x - lo)
            return x.sum() if w is None else (w * x).sum()

        functional = cls("dot", apply_fn, f"dot(dim={yarr.size})")
        if ones and yarr.ndim == 1 and yarr.size <= BLOCK:
            functional._lean = _lean_sum(yarr.shape)
        return functional

    @classmethod
    def trace(cls):
        def apply_fn(x, lo=None):
            if x.ndim != 2:
                raise DimensionMismatchError("trace functional wants a matrix element")
            if lo is None:
                return np.trace(x)
            # np.trace(x - lo) bit for bit, from the two diagonals alone
            return (x.diagonal() - lo.diagonal()).sum()

        return cls("trace", apply_fn, "trace")

    @classmethod
    def trace_weighted(cls, Y):
        Yarr = np.asarray(Y)
        if Yarr.ndim != 2:
            raise DimensionMismatchError("trace_weighted wants a matrix Y")
        # trace(Y^H X) = sum(conj(Y) * X): the elementwise sum is O(s^2) and
        # makes no s x s product
        W = np.ascontiguousarray(np.conj(Yarr))

        def apply_fn(x):
            if x.ndim != 2 or x.shape != Yarr.shape:
                raise DimensionMismatchError(
                    f"trace_weighted shapes {Yarr.shape} vs {x.shape}"
                )
            return (W * x).sum()

        return cls("trace_weighted", apply_fn, "trace_weighted")

    @classmethod
    def bilinear(cls, u, v):
        uarr = np.asarray(u)
        varr = np.asarray(v)
        if uarr.ndim != 1 or varr.ndim != 1:
            raise DimensionMismatchError("bilinear functional wants two vectors")
        uuse = np.conj(uarr)

        def apply_fn(x):
            if x.ndim != 2 or x.shape != (uarr.shape[0], varr.shape[0]):
                raise DimensionMismatchError(
                    f"bilinear form of shape {(uarr.shape[0], varr.shape[0])} vs element {x.shape}"
                )
            return uuse @ x @ varr

        return cls("bilinear", apply_fn, "bilinear")

    def apply(self, x, lo=None):
        """Evaluate on an array, or on ``x - lo`` bit for bit when ``lo`` is
        given (module docstring); returns a python scalar."""
        if self._lean is not None:
            out = self._lean(x, lo)
            if out is not None:
                return out
        x = np.asarray(x)
        if lo is None:
            out = self._apply(x)
        else:
            lo = np.asarray(lo)
            if lo.shape != x.shape:
                raise DimensionMismatchError(
                    f"difference of elements of shapes {x.shape} and {lo.shape}"
                )
            out = (self._apply(x, lo) if self.kind in _OF_A_DIFFERENCE
                   else self._apply(np.asarray(x - lo)))
        kind = _PYTHON_SCALAR.get(type(out))
        if kind is None:
            kind = complex if np.iscomplexobj(out) else float
        return kind(out)

    __call__ = apply

    def __repr__(self):
        return f"Functional({self.label})"


def _lean_sum(shape):
    """The lean branch of a float64 dot functional of ones of at most one
    block (module docstring): on float64 ndarrays of ``shape``, the float of
    ``np.add.reduce(x)``, or of ``x - lo`` written into a scratch of the
    functional's own; None on any other operands."""
    scratch = np.empty(shape)
    add = np.add.reduce

    def lean(x, lo):
        if type(x) is not np.ndarray or x.dtype != _F64 or x.shape != shape:
            return None
        if lo is None:
            return float(add(x))
        if type(lo) is not np.ndarray or lo.dtype != _F64 or lo.shape != shape:
            return None
        return float(add(np.subtract(x, lo, out=scratch)))

    return lean


def _pairwise_dot(yuse, x, lo=None):
    """``(yuse * x).sum()`` of 1-d operands, bit for bit, one block at a time,
    or ``(yuse * (x - lo)).sum()`` given ``lo``; ``(x - lo).sum()`` when
    ``yuse`` is None.

    The scratch is made per call, in the dtype of the call's operands,
    which the functional does not fix; it is at most one block long.
    """
    diff = None if lo is None else np.empty(BLOCK, np.result_type(x, lo))
    scratch = diff if yuse is None else np.empty(
        BLOCK, np.result_type(yuse, x if lo is None else diff))
    return _pairwise_sum(yuse, x, lo, 0, x.shape[0], scratch, diff)


def _pairwise_sum(yuse, x, lo, i, m, scratch, diff):
    """Sum of ``yuse * (x - lo)`` (``yuse * x`` without ``lo``, no product
    when ``yuse`` is None) over ``[i, i + m)``, split as numpy splits it."""
    if m <= BLOCK:
        xs = x[i:i + m]
        if lo is not None:
            xs = np.subtract(xs, lo[i:i + m], out=diff[:m])
        if yuse is None:
            return xs.sum()
        return np.multiply(yuse[i:i + m], xs, out=scratch[:m]).sum()
    if scratch.dtype.kind == "c":
        n2 = (m - m % 8) // 2
    else:
        n2 = m // 2
        n2 -= n2 % 8
    return (_pairwise_sum(yuse, x, lo, i, n2, scratch, diff)
            + _pairwise_sum(yuse, x, lo, i + n2, m - n2, scratch, diff))
