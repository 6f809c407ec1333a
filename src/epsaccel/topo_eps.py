"""Topological epsilon algorithms over arbitrary element spaces.

The full algorithms (:class:`TeaTable`) accelerate a sequence of elements by
alternating between the element space and its dual: odd entries are scalar
multiples of the chosen functional, even entries are elements.  The
functional is fixed per table, so an odd entry is stored as its coefficient.
They are kept here as references.  Each odd entry costs one functional call,
``f(hi, lo)`` of an element difference, and each even entry's ``f`` of a
difference is one an odd step already made, so a full table calls its
functional about K times per term (:class:`TeaTable`).

Terms and entries are plain float64 or complex128 ndarrays.  ``append``
converts each term once (:func:`epsaccel.vectorspace.as_term`) and checks
that it has the first term's shape.

The simplified algorithms (:class:`TopoEpsTable`) observe that the whole dual
detour can be collapsed: run the plain scalar epsilon algorithm on the scalar
shadow ``s_n = f(S_n)`` and drive the element recursion with coefficients read
off the scalar table.  Each update is then the three-term combination

    next = base + coeff * difference

of two element entries, once per even entry, which both cuts the work and
lets the scalar table's singular-block repairs stabilize the element table
for free.  The two variants differ in which even entries combine:

* first kind:   ``E_{2k+2}^(n) = E_{2k}^(n+1) + c * (E_{2k}^(n+1) - E_{2k}^(n))``
* second kind:  ``E_{2k+2}^(n) = E_{2k}^(n+1) + c * (E_{2k}^(n+2) - E_{2k}^(n+1))``

For each variant the coefficient ``c`` has four algebraically equivalent
forms, selected by ``form=1..4``; they differ only in rounding behaviour and
in which scalar entries they touch.

Particular rule of the first kind.  When the scalar shadow detects a
near-tie of consecutive terms (column 0, pair ``(N-1, N)``), the column-2
entries across the tie, ``E_2^(N-2)`` and ``E_2^(N-1)``, both equal
``S_{N-1}`` plus offsets of the tie's size.  Stored as floats they keep
those offsets only to ``eps * |S_{N-1}|``, so their difference, which the
column-4 update scales by its coefficient, loses as many digits as the tie
is close (about ten on the kernel protocols).  The first kind therefore
forms that difference from the exact identity of its rule,

    D_{2k+2}^(n) = (1 + c_{k,n+1}) * D_{2k}^(n+1) - c_{k,n} * D_{2k}^(n),
    D_{2k}^(n)   = E_{2k}^(n+1) - E_{2k}^(n),

at k = 0, where the D's are term differences and the products are taken
before any rounding into a column-2 entry.  The offset
``c_{0,N-2} * (S_{N-1} - S_{N-2})`` of ``E_2^(N-2)`` is kept from the append
that detected the tie; on the next append it becomes
``D_2^(N-2) = (S_N - S_{N-1}) + c_{0,N-1} * (S_N - S_{N-1}) - offset``; on
the one after, the update of ``E_4^(N-2)`` reads that difference instead of
subtracting the two stored column-2 entries.  The rule has no setting of its
own: it acts where the shadow's detection fires, so with
``particular_rules=False`` (or no column-0 tie) every output is the plain
update, bit for bit.  The second kind has no such rule.

Storage: the element buffers hold only what later updates still read.  The
first kind needs the two previous half-diagonals of even entries, the second
kind just one; consumed slots are dropped eagerly, so a table of maximal
order K holds at most ``2K + 2`` (first kind) or ``K + 2`` (second kind)
elements at any step boundary, with the update's two operands as the only
transients.  The first-kind rule adds up to two slots between appends (a
kept offset and a kept difference, when ties come on consecutive terms) and
a third within the append whose column-2 update forms a difference before
its column-4 update consumes the previous one, so a first-kind table whose
column 0 ties holds up to ``2K + 5``.  ``peak_slots`` records the audited
high-water mark, these slots included.

Updates in place.  Both table families share one element update
(``_InPlaceTable``).  An update works block by block
(:data:`epsaccel.vectorspace.BLOCK` entries) through the table's scratch of
two blocks, one for the difference and one for the product (not element
slots), so each block stays in cache and no full-size temporary is made.
From column 4 on it writes its result into the buffer of the table-made
operand the sweep drops right after it: ``E_{2k}^(n+1)`` for the second kind
(which is the update's ``base`` and ``lo`` as well) and ``E_{2k}^(n)`` for
the first; each block of ``hi - lo`` is read before the block it overwrites.
The column-2 update reads column 0, which holds the caller's terms and is
never written, so it writes into a new buffer.  The operations and their
order are those of ``base + c * (hi - lo)``, so every result is
bit-identical to it.  Where the result's dtype differs from the operand's (a
complex coefficient over real terms), or an operand is not C-contiguous, the
update is that plain expression.  So are the tie rule's updates.  While every
term is C-contiguous and keeps the first one's dtype, that is decided once
per term, not per update (``_InPlaceTable._combine``).  The full tables'
even updates write likewise into the operand their sweep drops
(:class:`TeaTable`).

Ownership: the entries ``append``, ``entry``, ``last_entries`` and ``best``
return are the table's own storage, in every table here.  A second-kind
entry (``stea2``, ``tea2``) in column 2 or above may be overwritten during
the next append, a first-kind one (``stea1``, ``tea1``) during the append
after that; callers copy what they keep.  Under ``debug_full`` the side
dict keeps copies, which never change.
"""

from __future__ import annotations

import cmath
from itertools import repeat
from operator import is_not

import numpy as np

from .scalar_eps import ScalarEpsTable
from .vectorspace import BLOCK, DimensionMismatchError, as_term

__all__ = [
    "TopoEpsTable",
    "TeaTable",
    "ratio_series",
    "stability_margin",
]


def _inv(x):
    """1/x that overflows to inf instead of raising on exact zeros."""
    if x == 0:
        return complex("inf") if isinstance(x, complex) else float("inf")
    return 1.0 / x


class _InPlaceTable:
    """The blocked, in-place element update every element table runs
    (module docstring, "Updates in place")."""

    # the updates' blocks of difference and product
    _scratch = None
    # the first term's layout, the dtype of every update it gives, and
    # whether every term so far shared that layout and was C-contiguous
    _layout = None
    _dtype = None
    _uniform = True

    def _note_term(self, S, layout):
        """Keep ``_uniform`` up to date for the new term ``S``."""
        if self._layout is None:
            self._layout = layout
        self._uniform = (self._uniform and layout == self._layout
                         and S.flags.c_contiguous)

    def _combine(self, base, coeff, hi, lo, into=None):
        """``base + coeff * (hi - lo)`` with None/NaN poisoning.

        ``into`` is a table-made operand the sweep drops after this update;
        the result goes into its buffer, or into a new one without
        ``into``, where dtypes and layouts allow (module docstring).

        While every term is C-contiguous and of the first term's layout
        (:meth:`_note_term`), they always allow it: every finite coefficient
        then has one type, so every entry the table makes is C-contiguous,
        of the one dtype ``self._dtype`` fixed at the first update.
        Otherwise each update checks its operands.
        """
        if base is None or hi is None or lo is None or not cmath.isfinite(coeff):
            return None
        # the operands share one shape: append checks every term's
        ops = (base, hi, lo)
        dtype = self._dtype if self._uniform else None
        if dtype is None:
            dtype = np.result_type(*ops, coeff)
            if not ((into is None or into.dtype == dtype)
                    and all(x.flags.c_contiguous for x in ops)):
                return _add(base, _scaled(coeff, hi - lo))
            if self._uniform:
                self._dtype = dtype
        if into is None:
            into = np.empty(base.shape, dtype)
        self._update_into(into, coeff, *ops)
        return into

    def _update_into(self, out, coeff, base, hi, lo):
        """``out[:] = base + coeff * (hi - lo)``, one block at a time.

        ``out`` may be ``lo`` and ``base`` (second kind): each block of
        ``hi - lo`` lands in the scratch before that block of ``out`` is
        written.  The product goes to the second scratch block, not back
        into the difference: numpy's complex multiply does not round alike
        in place and out of place.
        """
        if self._scratch is None or self._scratch[0].dtype != out.dtype:
            # an element of at most one block is its own single block
            shape = out.shape if out.size <= BLOCK else (BLOCK,)
            self._scratch = (np.empty(shape, out.dtype), np.empty(shape, out.dtype))
        d, p = self._scratch
        if out.size <= BLOCK:
            _block_update(out, coeff, base, hi, lo, d, p)
            return
        out, base, hi, lo = (x.reshape(-1) for x in (out, base, hi, lo))
        size = out.shape[0]
        for i in range(0, size, BLOCK):
            j = min(i + BLOCK, size)
            _block_update(out[i:j], coeff, base[i:j], hi[i:j], lo[i:j],
                          d[:j - i], p[:j - i])


class TopoEpsTable(_InPlaceTable):
    """Simplified topological epsilon algorithm, first or second kind.

    Parameters
    ----------
    functional : Functional
        The linear functional whose scalar shadow drives the recursion.
    max_k : int
        Highest transform order; even columns ``0, 2, .., 2*max_k`` are built.
    variant : {"stea1", "stea2"}
        First kind combines column neighbours across superscripts n and n+1;
        second kind across n+1 and n+2.
    form : {1, 2, 3, 4}
        Which of the four equivalent coefficient formulas to use.
    p_threshold, particular_rules, singular_parity
        Passed to the underlying scalar table; see :class:`ScalarEpsTable`.
    debug_full : bool
        Keep a copy of every element entry in a side dict (exempt from the
        storage discipline) for inspection and testing.

    Attributes
    ----------
    scalar : ScalarEpsTable
        The scalar shadow table; ``scalar.sigma`` counts singular repairs.
    peak_slots : int
        High-water mark of live element slots at step boundaries, the
        first-kind tie rule's slots included.
    invalid : set
        ``(column, superscript)`` of entries that could not be formed.
    """

    def __init__(self, functional, max_k, variant="stea2", form=3,
                 p_threshold=10, particular_rules=True,
                 singular_parity="both", debug_full=False):
        if variant not in ("stea1", "stea2"):
            raise ValueError(f"bad variant: {variant!r}")
        if form not in (1, 2, 3, 4):
            raise ValueError(f"bad form: {form!r}")
        if max_k < 0:
            raise ValueError("max_k must be >= 0")
        self.functional = functional
        self.max_k = max_k
        self.variant = variant
        self.form = form
        self._reads, self._combiner = _FORMS[(variant, form)]
        self.scalar = ScalarEpsTable(
            max_col=2 * max_k + 2, p_threshold=p_threshold,
            particular_rules=particular_rules, singular_parity=singular_parity)
        self.debug_full = debug_full
        self._full = {} if debug_full else None
        self.invalid = set()
        self.peak_slots = 0
        self.n_terms = 0
        self._shape = None
        K = max_k
        self._prev = [None] * (K + 1)
        self._older = [None] * (K + 1) if variant == "stea1" else None
        # first-kind tie rule (module docstring): the column-2 offset kept
        # from the append that detected a column-0 tie, the column-2
        # difference it becomes one append later, and that difference while
        # the column-4 update of the following append is due to read it
        self._tie_off = None
        self._tie_diff = None
        self._tie_due = None

    @property
    def sigma(self):
        return self.scalar.sigma

    # -- building ----------------------------------------------------------

    def append(self, S):
        """Add one term; returns new even entries as ``(column, n, array)``."""
        S = _term(self, S)
        s = self.functional(S)
        seen = len(self.scalar.events)
        self.scalar.append(s)
        diags = self.scalar._diags

        N = self.n_terms
        K = self.max_k
        jmax = min(N, 2 * K) // 2
        # the shadow's column 0 holds s as the shadow converted it
        self._note_term(S, (S.dtype, type(diags[-1][0])))
        coeffs = self._coefficients(diags, jmax)

        # Slots the coming sweep will never read are dead: drop them first.
        stale = self._older if self.variant == "stea1" else self._prev
        for m in range(jmax, K + 1):
            stale[m] = None

        # a column-0 tie (S_{N-1}, S_N) the shadow detected just now (its
        # column-0 events are never suppressed); the rule feeds column 4,
        # so a table without column 4 keeps no slot for it
        tie = (self.variant == "stea1" and K >= 2
               and any(ev.k == 0 for ev in self.scalar.events[seen:]))
        self._tie_due, self._tie_diff = self._tie_diff, None

        cur = [None] * (K + 1)
        cur[0] = S
        out = [(0, N, S)]
        if self._full is not None:
            self._full[(0, N)] = S
        # element slots held in cur, prev and older, kept as the sweep drops
        # and fills them, and the tie rule's, which change only in its
        # updates; their high-water mark over the sweep
        held = _live(self._prev) + 1
        if self._older is not None:
            held += _live(self._older)
        ties = self._tie_slots()
        peak = held + ties

        for j in range(1, jmax + 1):
            n = N - 2 * j
            coeff = coeffs[j - 1]
            if self.variant == "stea1":
                a = self._prev[j - 1]       # E_{2k}^(n+1), one diagonal back
                b = self._older[j - 1]      # E_{2k}^(n),  two diagonals back
                if j == 1 and (tie or self._tie_off is not None):
                    e = self._tie_column2(tie, a, coeff, b)
                    ties = self._tie_slots()
                elif j == 2 and self._tie_due is not None:
                    e = self._tie_column4(a, coeff)
                    ties = self._tie_slots()
                else:
                    e = self._combine(a, coeff, a, b, into=b if j >= 2 else None)
                self._older[j - 1] = None
                held -= b is not None
            else:
                a = self._prev[j - 1]       # E_{2k}^(n+1), one diagonal back
                b = cur[j - 1]              # E_{2k}^(n+2), this diagonal
                e = self._combine(a, coeff, b, a, into=a if j >= 2 else None)
                self._prev[j - 1] = None
                held -= a is not None
            cur[j] = e
            if e is None:
                self.invalid.add((2 * j, n))
            else:
                held += 1
                out.append((2 * j, n, e))
            if self._full is not None:
                self._full[(2 * j, n)] = None if e is None else e.copy()
            if held + ties > peak:
                peak = held + ties

        if peak > self.peak_slots:
            self.peak_slots = peak
        if self.variant == "stea1":
            self._older = self._prev
        self._prev = cur
        self.n_terms = N + 1
        return out

    def extend(self, terms):
        for S in terms:
            self.append(S)
        return self

    def _tie_column2(self, tie, base, coeff, lo):
        """Column-2 update of the first-kind tie rule (module docstring).

        Forms ``base + coeff * (base - lo)`` as :meth:`_combine` does; a kept
        offset becomes the exact column-2 difference across its tie, and a
        tie detected on this append keeps this update's offset.
        """
        diff = _d(base, lo)
        step = _scaled(coeff, diff)
        if self._tie_off is not None and step is not None:
            self._tie_diff = diff + step - self._tie_off
        self._tie_off = step if tie else None
        return None if step is None else _add(base, step)

    def _tie_column4(self, base, coeff):
        """Column-4 update across a tie, from the kept column-2 difference."""
        step = _scaled(coeff, self._tie_due)
        self._tie_due = None
        return None if base is None or step is None else _add(base, step)

    def _coefficients(self, diags, jmax):
        """The scalar coefficients of the entries in columns ``2, .., 2*jmax``
        of the newest diagonal, read off ``diags``, the shadow's diagonals.

        Every form reads only the last three, where the entries of column c
        sit at index c + 1 once the boundary column -1 (zero) is prepended.
        """
        if not jmax:
            return []
        rows = [[0.0, *d] for d in diags[-3:]]
        (r1, c1), (r2, c2), (r3, c3), (r4, c4) = self._reads
        a, b, c, d = rows[r1], rows[r2], rows[r3], rows[r4]
        combiner = self._combiner
        return [combiner(a[i + c1] - b[i + c2], c[i + c3] - d[i + c4])
                for i in range(0, 2 * jmax, 2)]

    def _tie_slots(self):
        """Element slots the first-kind tie rule holds."""
        return ((self._tie_off is not None) + (self._tie_diff is not None)
                + (self._tie_due is not None))

    # -- access --------------------------------------------------------------

    def entry(self, col, n):
        """Entry at even column ``col``; None unless kept (buffers or debug)."""
        if col % 2 != 0:
            raise ValueError("element entries live in even columns")
        if self._full is not None:
            return self._full.get((col, n))
        d = col + n
        j = col // 2
        if j > self.max_k or n < 0:
            return None
        if d == self.n_terms - 1:
            return self._prev[j]
        if self.variant == "stea1" and d == self.n_terms - 2:
            return self._older[j]
        return None

    def last_entries(self):
        """Live even entries of the newest diagonal as ``(column, n, array)``."""
        N = self.n_terms - 1
        return [(2 * j, N - 2 * j, e)
                for j, e in enumerate(self._prev) if e is not None]

    def best(self):
        """Highest-order live entry of the newest diagonal."""
        entries = self.last_entries()
        return entries[-1] if entries else None


class TeaTable(_InPlaceTable):
    """Full topological epsilon algorithm, first or second kind.

    Even entries are elements, odd entries multiples ``c * f`` of the
    table's functional, stored as the coefficients ``c``.  Slower and
    hungrier than :class:`TopoEpsTable` and with no singular-block
    protection; kept as the reference the simplified tables are checked
    against.

    Functional calls.  The even step's ``f`` of an element difference is
    one an odd step already took, on the same operands in the same order:
    for the second kind the odd step just before it, for the first kind the
    same odd column's step on the previous append (kept, one value per odd
    column).  So the table calls ``f(hi, lo)`` once per odd entry, about K
    times per term, bit-identically to calling it again.

    Storage: each new ascending diagonal overwrites the previous one in
    place, under a two-slot chain of the just-unseated entries (the western
    operands).  That alone suffices for the second kind.  The first kind
    also reads even entries two diagonals back, so those are parked in a
    half-length side buffer as they are unseated.  Peak storage is therefore
    one mixed diagonal plus two temporaries (second kind) plus the half
    diagonal (first kind).  ``peak_slots`` records the audited high-water
    mark of element slots, ``peak_total`` that of element and coefficient
    slots together.

    The even updates run the simplified tables' in-place kernel (module
    docstring), from column 4 on into the operand the sweep drops: the
    unseated ``E_{2k}^(n+1)`` (second kind) or the parked ``E_{2k}^(n)``
    (first kind).  Entries are owned as in :class:`TopoEpsTable`.
    """

    def __init__(self, functional, max_k, variant="tea1", debug_full=False):
        if variant not in ("tea1", "tea2"):
            raise ValueError(f"bad variant: {variant!r}")
        self.functional = functional
        self.max_k = max_k
        self.variant = variant
        self.debug_full = debug_full
        self._full = {} if debug_full else None
        self.invalid = set()
        self.n_terms = 0
        self._shape = None
        self.peak_slots = 0
        self.peak_total = 0
        self._diag = [None] * (2 * max_k + 1)
        self._half = [None] * max_k if variant == "tea1" else None
        # the first kind's f(hi - lo) of each odd column, from the last sweep
        self._fodd = [None] * max_k if variant == "tea1" else None

    def append(self, S):
        """Add one term; returns new even entries as ``(column, n, array)``."""
        S = _term(self, S)
        self._note_term(S, S.dtype)
        N = self.n_terms
        cmax = min(N, 2 * self.max_k)
        f = self.functional
        B = self._diag
        half, fodd = self._half, self._fodd
        out = []
        t1 = None   # unseated B[c-1], the previous diagonal one column west
        t2 = None   # unseated B[c-2]
        fdiff = None    # the f(hi - lo) the coming even step reads
        # live slots by position, kept as the sweep unseats and fills them:
        # even columns and the half diagonal hold elements, odd columns
        # coefficients
        elems = _live(B[0::2]) + (_live(half) if half is not None else 0)
        coefs = _live(B[1::2])

        for c in range(0, cmax + 1):
            old = B[c]
            n = N - c
            if c == 0:
                val = S
            elif c % 2 == 1:
                base = t2 if c >= 3 else 0.0
                hi, lo = B[c - 1], t1
                fval = None if hi is None or lo is None else f(hi, lo)
                fdiff = fval
                if fodd is not None:
                    fdiff, fodd[c // 2] = fodd[c // 2], fval
                val = None if base is None or fval is None else base + _inv(fval)
            else:
                dual_hi, dual_lo = B[c - 1], t1
                if half is not None:
                    j = (c - 2) // 2
                    hi, lo = t2, half[j]
                    # t2 is this diagonal's unseated even entry at c-2:
                    # exactly what the next sweep reads two diagonals back
                    half[j] = t2
                    elems += (t2 is not None) - (lo is not None)
                else:
                    hi, lo = B[c - 2], t2
                if fdiff is None or dual_hi is None or dual_lo is None:
                    val = None
                else:
                    # an infinite or NaN coefficient leaves the entry
                    # unformed (_combine), not NaN
                    coeff = _inv((dual_hi - dual_lo) * fdiff)
                    val = self._combine(t2, coeff, hi, lo,
                                        into=lo if c >= 4 else None)
            B[c] = val
            if c % 2:
                coefs += (val is not None) - (old is not None)
            else:
                elems += (val is not None) - (old is not None)
            if (half is not None and c % 2 == 0 and c + 2 > cmax
                    and c // 2 < self.max_k):
                # the parking step c+2 is beyond this sweep (growing table):
                # park the unseated even entry now or it is lost
                elems += (old is not None) - (half[c // 2] is not None)
                half[c // 2] = old
            t1, t2 = old, t1
            if val is None:
                self.invalid.add((c, n))
            elif c % 2 == 0:
                out.append((c, n, val))
            if self._full is not None:
                keep = c and c % 2 == 0 and val is not None
                self._full[(c, n)] = val.copy() if keep else val
            # t1 is the unseated entry of column c, t2 that of column c-1
            even_t, odd_t = (t1, t2) if c % 2 == 0 else (t2, t1)
            slots = elems + (even_t is not None)
            if slots > self.peak_slots:
                self.peak_slots = slots
            total = slots + coefs + (odd_t is not None)
            if total > self.peak_total:
                self.peak_total = total

        self.n_terms = N + 1
        return out

    def extend(self, terms):
        for S in terms:
            self.append(S)
        return self

    def entry(self, col, n):
        """Kept entry at ``(col, n)``: buffers, or anything in debug mode."""
        if self._full is not None:
            return self._full.get((col, n))
        d = col + n
        if d == self.n_terms - 1:
            return self._diag[col]
        if (self._half is not None and d == self.n_terms - 2
                and col % 2 == 0 and col // 2 < self.max_k):
            return self._half[col // 2]
        return None

    def last_entries(self):
        N = self.n_terms - 1
        return [(c, N - c, e) for c, e in enumerate(self._diag)
                if e is not None and c % 2 == 0]

    def best(self):
        entries = self.last_entries()
        return entries[-1] if entries else None


def _term(table, S):
    """``S`` as an array (:func:`as_term`) of the table's first term's shape."""
    S = as_term(S)
    if table._shape is None:
        table._shape = S.shape
    elif S.shape != table._shape:
        raise DimensionMismatchError(
            f"term shape {S.shape} != first term {table._shape}")
    return S


def _live(slots):
    """Count of the slots that are not None (``list.count(None)`` would
    compare each array with ``==``)."""
    return sum(map(is_not, slots, repeat(None)))


def _scaled(coeff, diff):
    """``diff * coeff`` as an array, or None where an update would poison.

    A 0-d difference stays an array: numpy scalars multiply complex numbers
    with other rounding than the array loop.
    """
    if diff is None or not cmath.isfinite(coeff):
        return None
    return np.asarray(np.asarray(diff) * coeff)


def _add(base, step):
    """``base + step`` as an array, so that a 0-d result can be written into."""
    return np.asarray(base + step)


def _block_update(out, coeff, base, hi, lo, d, p):
    """``out = base + coeff * (hi - lo)`` through the scratch blocks d, p."""
    np.subtract(hi, lo, out=d)
    np.multiply(d, coeff, out=p)
    np.add(base, p, out=out)


# -- coefficient arithmetic with None/zero poisoning -------------------------

def _d(a, b):
    if a is None or b is None:
        return None
    return a - b


def _mul(a, b):
    return a * b


def _ratio(num, den):
    return num * _inv(den) if den == 0 else num / den


def _mulinv(d1, d2):
    return _inv(d1 * d2)


# the coefficient forms of TopoEpsTable, by (variant, form): the scalar
# entries eps_{2k+i}^(n+m) whose two differences the combiner takes, first
# entry minus second, third minus fourth, given by their offsets (i, m) from
# (2k, n)
_OFFSETS = {
    ("stea1", 1): (((0, 1), (0, 0), (1, 1), (1, 0)), _mulinv),
    ("stea1", 2): (((1, 0), (-1, 1), (1, 1), (1, 0)), _ratio),
    ("stea1", 3): (((2, 0), (0, 1), (0, 1), (0, 0)), _ratio),
    ("stea1", 4): (((1, 0), (-1, 1), (2, 0), (0, 1)), _mul),
    ("stea2", 1): (((0, 2), (0, 1), (1, 1), (1, 0)), _mulinv),
    ("stea2", 2): (((1, 1), (-1, 2), (1, 1), (1, 0)), _ratio),
    ("stea2", 3): (((2, 0), (0, 1), (0, 2), (0, 1)), _ratio),
    ("stea2", 4): (((1, 1), (-1, 2), (2, 0), (0, 1)), _mul),
}

# the same entries as TopoEpsTable._coefficients reads them: with
# n = N - 2k - 2 on the append of term N, eps_{2k+i}^(n+m) lies on diagonal
# N - 2 + i + m, one of the shadow's last three (index i + m of them), at
# column 2k + i, which is index 2k + i + 1 of that diagonal with column -1
# prepended
_FORMS = {key: (tuple((i + m, i + 1) for i, m in offsets), combiner)
          for key, (offsets, combiner) in _OFFSETS.items()}


# -- diagnostics --------------------------------------------------------------

def _shadow(table):
    if isinstance(table, ScalarEpsTable):
        return table
    return table.scalar


def ratio_series(table):
    """Measured column-to-column improvement ratios of the scalar shadow.

    For each order k returns the series ``(n, r_k^(n))`` with

        r_k^(n) = (e_{2k+2}^(n) - e_{2k}^(n+1)) / (e_{2k}^(n+1) - e_{2k}^(n)).

    ``|r|`` small means column 2k+2 genuinely improves on column 2k; for a
    sequence dominated by one geometric mode with ratio ``lam`` the series
    tends to ``lam / (1 - lam)``.  Accepts a scalar table or a topological
    table (whose scalar shadow is used).
    """
    sc = _shadow(table)
    out = {}
    kmax_col = max((len(d) for d in sc._diags), default=0) - 1
    for k in range(0, max(0, kmax_col // 2)):
        series = []
        for n in range(0, sc.n_terms):
            e22 = sc.entry(2 * k + 2, n)
            ehi = sc.entry(2 * k, n + 1)
            elo = sc.entry(2 * k, n)
            if e22 is None or ehi is None or elo is None:
                continue
            den = ehi - elo
            if den == 0 or not np.isfinite(np.abs(den)):
                continue
            series.append((n, (e22 - ehi) / den))
        if series:
            out[k] = series
    return out


def stability_margin(table, k):
    """Rounding amplification bounds for column ``2k + 2`` of the shadow.

    Returns the list of margins for n = 0, 1, ... (as far as the table
    reaches), where

        margin = |e_{2k+2}^(n) - e_{2k}^(n)| / |e_{2k}^(n+1) - e_{2k}^(n)|
               + |e_{2k+2}^(n) - e_{2k}^(n+1)| / |e_{2k}^(n+1) - e_{2k}^(n)|.

    A perturbation of the operand entries is magnified by at most this factor
    (to first order), so margins near 1 mean a numerically safe step and huge
    margins flag the steps where singular-block repairs earn their keep.  A
    zero denominator (degenerate column, e.g. a kernel sequence transformed
    exactly) gives a non-finite margin rather than a gap.
    """
    sc = _shadow(table)
    series = []
    for n in range(0, sc.n_terms):
        e22 = sc.entry(2 * k + 2, n)
        ehi = sc.entry(2 * k, n + 1)
        elo = sc.entry(2 * k, n)
        if e22 is None or ehi is None or elo is None:
            break
        den = abs(ehi - elo)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = float(np.divide(abs(e22 - elo), den) + np.divide(abs(e22 - ehi), den))
        series.append(m)
    return series
