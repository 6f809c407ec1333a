"""Topological epsilon algorithms over arbitrary element spaces.

The full algorithms (:class:`TeaTable`) accelerate a sequence of elements by
alternating between the element space and its dual: odd entries are scalar
multiples of the chosen functional, even entries are elements.  The
functional is fixed per table, so an odd entry is stored as its coefficient.
They are kept here as references.  Each odd entry costs one functional call,
``f(hi, lo)`` of an element difference, and each even entry's ``f`` of a
difference is one an odd step already made, so a full table calls its
functional about K times per term (:class:`TeaTable`).

Terms and entries are plain C-contiguous float64 or complex128 ndarrays.
``append`` converts each term once (:func:`epsaccel.vectorspace.as_term`)
and checks that it has the first term's shape.

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

Storage: one discipline for every table here.  An append runs one sweep
over the new ascending diagonal (``_ElementTable._sweep``), which holds the
even entries in half-diagonals: ``cur``, the new one, ``prev``, the one
before, and for the first kind ``older``, the one before that.  The update
of column ``2j`` reads ``base = prev[j-1]`` and ``hi - lo``, which is
``prev[j-1] - older[j-1]`` (first kind) or ``cur[j-1] - prev[j-1]`` (second
kind), then drops ``lo``; slots no update of the sweep reads are dropped
before it starts.  So a table of maximal order K holds at most ``2K + 2``
(first kind) or ``K + 1`` (second kind) elements at any step boundary, with
the update's two operands as the only transients.  The first-kind rule adds
up to two slots between appends (a kept offset and a kept difference, when
ties come on consecutive terms) and a third within the append whose column-2
update forms a difference before its column-4 update consumes the previous
one, so a first-kind table whose column 0 ties holds up to ``2K + 5``.
``peak_slots`` records the audited high-water mark, these slots included.
A full table holds the elements its simplified kind holds and, besides
them, the K odd coefficients of its newest diagonal (:class:`TeaTable`).
The rest of a table's state is O(K) too, however many terms it has seen:
the scalar shadow keeps its last three diagonals (:class:`ScalarEpsTable`,
"Storage"), and ``invalid``, like the shadow's ``events``, only counts what
it is given, so only ``len(invalid)`` reads it.  What grows with the
stream is kept outside the tables, by a :class:`Recorder`.

Updates in place.  One kernel forms every even entry of every table
outside the first-kind tie rule (``_ElementTable._update``):
``base + c * (hi - lo)`` as one subtract, one multiply and one add, each
into an explicit buffer, or None where an operand is missing or ``c`` is
not finite.  Its result is complex128 if the coefficient or any operand is
complex, and float64 otherwise.  The difference and the product go through
the table's scratch of two blocks (not element slots): one direct call each
for an element of at most :data:`epsaccel.vectorspace.BLOCK` entries, and
block by block above that, so each block stays in cache and no full-size
temporary is made.  From column 4 on the result goes into the buffer of
the table-made operand the sweep drops right after it, ``E_{2k}^(n+1)`` for
the second kind (which is the update's ``base`` and ``lo`` as well) and
``E_{2k}^(n)`` for the first, when that buffer has the result's dtype, and
into a new buffer otherwise; each block of ``hi - lo`` is read before the
block it overwrites.  The column-2 update reads column 0, which is never
written, so it writes into a new buffer.  The tie rule's two updates
(``TopoEpsTable._tie_update``) do not run the kernel: each takes the same
three operations on whole elements, with the difference and the product in
new buffers the rule may keep and the result in a new one, and its
column-4 update reads the kept difference in place of ``hi - lo``.  Every
operation is an explicit ufunc call, so a 0-d entry stays an array and a
complex product is rounded by numpy's array loop, as the kernel's is.  The
operations and their order are those of ``base + c * (hi - lo)``, so every
result is bit-identical to it.

Ownership: the entries ``append``, ``entry`` and ``best`` return are the
table's own storage, in every table here.  Column 0 holds each term as
:func:`~epsaccel.vectorspace.as_term` gave it: the caller's
array where that was already a C-contiguous float64 or complex128 one, and
otherwise a copy made once.  A second-kind entry (``stea2``, ``tea2``) in
column 2 or above may be overwritten during the next append, a first-kind
one (``stea1``, ``tea1``) during the append after that; callers copy what
they keep.  The copies a :class:`Recorder` keeps never change.
"""

from __future__ import annotations

import cmath

import numpy as np

from .scalar_eps import ScalarEpsTable, _inv_any, _Tally
from .vectorspace import _C128, _F64, BLOCK, DimensionMismatchError, as_term

__all__ = [
    "TopoEpsTable",
    "TeaTable",
    "Recorder",
    "ratio_series",
    "stability_margin",
]


class _ElementTable:
    """What every element table shares: the one sweep over a new diagonal
    of even entries (module docstring, "Storage") and the one update kernel
    ("Updates in place")."""

    # the updates' blocks of difference and product
    _scratch = None
    # the j of the columns 2j whose update the first-kind tie rule makes on
    # this append (TopoEpsTable; none in a full table)
    _tie_cols = ()

    def __init__(self, functional, max_k, first):
        if max_k < 0:
            raise ValueError("max_k must be >= 0")
        self.functional = functional
        self.max_k = max_k
        self.invalid = _Tally()
        self.peak_slots = 0
        self.n_terms = 0
        self._shape = None
        # the even entries of the newest diagonal, and (first kind) of the
        # one before it, by column // 2, and how many of them are live
        self._prev = [None] * (max_k + 1)
        self._older = [None] * (max_k + 1) if first else None
        self._held = 0

    def _sweep(self, S, coeffs):
        """Add the diagonal of the new term ``S``; returns its new even
        entries as ``(column, n, array)``.

        ``coeffs`` holds the coefficients of the even entries ``2, 4, ..``
        (simplified tables), or is None: a full table then forms each from
        the odd entry before it (:meth:`TeaTable._step`), and a sweep that
        ends on an odd column takes one trailing odd step.  Each even entry
        is one :meth:`_update`, or, in the columns ``_tie_cols`` names, the
        first-kind tie rule's (:meth:`TopoEpsTable._tie_update`).
        """
        N = self.n_terms
        K = self.max_k
        jmax = min(N, 2 * K) // 2
        prev, older = self._prev, self._older
        first = older is not None
        trail = coeffs is None and N % 2 == 1 and N < 2 * K
        # element slots held in cur, prev and older, kept as the sweep drops
        # and fills them, and the tie rule's, which change only in its
        # updates (none unless it makes one); their high-water mark
        held = self._held + 1
        tie = self._tie_cols
        ties = self._tie_slots() if tie else 0
        # Slots the coming sweep will never read are dead: drop them first.
        # (The trailing odd step reads prev[jmax]; older[jmax] is then empty.)
        stale = older if first else prev
        for m in range(jmax + trail, K + 1):
            held -= stale[m] is not None
            stale[m] = None

        cur = [None] * (K + 1)
        cur[0] = S
        out = [(0, N, S)]
        peak = held + ties

        for j in range(1, jmax + 1):
            n = N - 2 * j
            base = prev[j - 1]              # E_{2k}^(n+1), one diagonal back
            if first:
                hi, lo = base, older[j - 1]     # E_{2k}^(n), two back
                older[j - 1] = None
            else:
                hi, lo = cur[j - 1], base       # E_{2k}^(n+2), this diagonal
                prev[j - 1] = None
            coeff = (self._step(j, cur[j - 1], base, held) if coeffs is None
                     else coeffs[j - 1])
            if j in tie:
                e = self._tie_update(j, base, coeff, lo)
                ties = self._tie_slots()
            else:
                e = self._update(base, coeff, hi, lo, lo if j >= 2 else None)
            held -= lo is not None
            cur[j] = e
            if e is None:
                self.invalid.add((2 * j, n))
            else:
                held += 1
                out.append((2 * j, n, e))
            if held + ties > peak:
                peak = held + ties
        if trail:
            self._step(jmax + 1, cur[jmax], prev[jmax], held)
            if not first:
                held -= prev[jmax] is not None

        self._held = held
        if peak > self.peak_slots:
            self.peak_slots = peak
        if first:
            self._older = prev
        self._prev = cur
        self.n_terms = N + 1
        return out

    def extend(self, terms):
        for S in terms:
            self.append(S)
        return self

    def _term(self, S):
        """``S`` as an array (:func:`as_term`) of the first term's shape."""
        S = as_term(S)
        if self._shape is None:
            self._shape = S.shape
        elif S.shape != self._shape:
            raise DimensionMismatchError(
                f"term shape {S.shape} != first term {self._shape}")
        return S

    # -- the element update ------------------------------------------------

    def _update(self, base, coeff, hi, lo, into=None):
        """``base + coeff * (hi - lo)``, the update of every even entry
        outside the first-kind tie rule (module docstring, "Updates in
        place"); None where ``base``, ``hi`` or ``lo`` is None or the
        coefficient is not finite.

        The result is complex128 if the coefficient or an operand is
        complex, and float64 otherwise.  It goes into ``into``, a table-made
        operand the sweep drops after this update, when that has the
        result's dtype, and into a new buffer otherwise.  The difference and
        the product go through the table's scratch: one direct call each for
        an element of at most one block, block by block above that.
        ``into`` may be ``lo`` and ``base`` (second kind): each block of
        ``hi - lo`` lands in the scratch before that block of ``into`` is
        written.  The product goes to the second scratch block, not back
        into the difference: numpy's complex multiply does not round alike
        in place and out of place.
        """
        if base is None or hi is None or lo is None or not cmath.isfinite(coeff):
            return None
        dtype = (_C128 if base.dtype == _C128 or hi.dtype == _C128
                 or lo.dtype == _C128 or isinstance(coeff, complex) else _F64)
        # the operands share one shape: append checks every term's
        if into is None or into.dtype != dtype:
            into = np.empty(base.shape, dtype)
        size = base.size
        if self._scratch is None or self._scratch[0].dtype != dtype:
            # an element of at most one block is its own single block
            shape = base.shape if size <= BLOCK else (BLOCK,)
            self._scratch = (np.empty(shape, dtype), np.empty(shape, dtype))
        d, p = self._scratch
        if size <= BLOCK:
            np.subtract(hi, lo, out=d)
            np.multiply(d, coeff, out=p)
            return np.add(base, p, out=into)
        out, base, hi, lo = (x.reshape(-1) for x in (into, base, hi, lo))
        for i in range(0, size, BLOCK):
            j = min(i + BLOCK, size)
            np.subtract(hi[i:j], lo[i:j], out=d[:j - i])
            np.multiply(d[:j - i], coeff, out=p[:j - i])
            np.add(base[i:j], p[:j - i], out=out[i:j])
        return into

    # -- access --------------------------------------------------------------

    def entry(self, col, n):
        """Kept entry at ``(col, n)``: the buffers (an odd column's, of a
        full table, only on the newest diagonal); None for an entry not kept
        or outside the table."""
        if not 0 <= col <= 2 * self.max_k or n < 0:
            return None
        back = self.n_terms - 1 - col - n     # diagonals behind the newest
        if col % 2:
            return self._odd[col // 2] if back == 0 else None
        if back == 0:
            return self._prev[col // 2]
        if back == 1 and self._older is not None:
            return self._older[col // 2]
        return None

    def best(self):
        """Highest-order live entry of the newest diagonal as ``(column, n,
        array)``; None before the first term."""
        N = self.n_terms - 1
        for j in range(self.max_k, -1, -1):
            if self._prev[j] is not None:
                return 2 * j, N - 2 * j, self._prev[j]
        return None


class TopoEpsTable(_ElementTable):
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

    Attributes
    ----------
    scalar : ScalarEpsTable
        The scalar shadow table; ``scalar.sigma`` counts singular repairs.
    peak_slots : int
        High-water mark of live element slots at step boundaries, the
        first-kind tie rule's slots included.
    invalid : count
        The number of entries that could not be formed, ``len(invalid)``.
    """

    def __init__(self, functional, max_k, variant="stea2", form=3,
                 p_threshold=10, particular_rules=True,
                 singular_parity="both"):
        if variant not in ("stea1", "stea2"):
            raise ValueError(f"bad variant: {variant!r}")
        if form not in (1, 2, 3, 4):
            raise ValueError(f"bad form: {form!r}")
        super().__init__(functional, max_k, variant == "stea1")
        self.variant = variant
        self.form = form
        self._reads, self._combiner = _FORMS[(variant, form)]
        self.scalar = ScalarEpsTable(
            max_col=2 * max_k + 2, p_threshold=p_threshold,
            particular_rules=particular_rules, singular_parity=singular_parity)
        # first-kind tie rule (module docstring): the column-2 offset kept
        # from the append that detected a column-0 tie, the column-2
        # difference it becomes one append later, and that difference while
        # the column-4 update of the following append is due to read it;
        # whether this append's shadow detected a column-0 tie, and the
        # columns the rule updates on this append (set here, not first in
        # append: that made the instance's dict larger, 0.6 KiB on the
        # long workload's traced peak)
        self._tie_off = None
        self._tie_diff = None
        self._tie_due = None
        self._tie_now = False
        self._tie_cols = ()

    @property
    def sigma(self):
        return self.scalar.sigma

    # -- building ----------------------------------------------------------

    def append(self, S):
        """Add one term; returns new even entries as ``(column, n, array)``."""
        S = self._term(S)
        N = self.n_terms
        self.scalar.append(self.functional(S))
        coeffs = self._coefficients(self.scalar._diags, min(N, 2 * self.max_k) // 2)

        # a column-0 tie (S_{N-1}, S_N) the shadow detected just now, a
        # firing on the pair (0, N - 1) (column-0 firings are never
        # suppressed); the rule feeds column 4, so a table without column 4
        # keeps no slot for it
        self._tie_now = (self.variant == "stea1" and self.max_k >= 2
                         and (0, N - 1) in self.scalar._fired)
        self._tie_due, self._tie_diff = self._tie_diff, None
        cols = (1,) if self._tie_now or self._tie_off is not None else ()
        self._tie_cols = cols + (2,) if self._tie_due is not None else cols
        return self._sweep(S, coeffs)

    def _tie_update(self, j, base, coeff, lo):
        """Update of column ``2j``, 2 or 4, under the first-kind tie rule
        (module docstring): ``base + coeff * diff`` on whole elements, each
        operation into a new buffer; None where an operand is missing or
        the coefficient is not finite.

        In column 2, ``diff`` is ``base - lo``, a kept offset becomes the
        exact column-2 difference across its tie, and a tie detected on
        this append keeps this update's product as its offset.  Column 4
        reads the kept difference as ``diff``.  The explicit ufuncs keep
        numpy's array loops, and ``out=`` keeps a 0-d entry an array.
        """
        if j == 1:
            off, self._tie_off = self._tie_off, None
        else:               # the kept difference stands for base - lo
            lo, self._tie_due = self._tie_due, None
        if base is None or lo is None or not cmath.isfinite(coeff):
            return None
        diff = np.subtract(base, lo) if j == 1 else lo
        step = np.multiply(diff, coeff)
        if j == 1:
            if off is not None:
                self._tie_diff = diff + step - off
            if self._tie_now:
                self._tie_off = step
        return np.add(base, step, out=np.empty(base.shape, np.result_type(base, step)))

    def _coefficients(self, diags, jmax):
        """The scalar coefficients of the entries in columns ``2, .., 2*jmax``
        of the newest diagonal, read off ``diags``, the shadow's kept
        diagonals.

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
        """Entry at even column ``col``; None unless kept."""
        if col % 2 != 0:
            raise ValueError("element entries live in even columns")
        return super().entry(col, n)


class TeaTable(_ElementTable):
    """Full topological epsilon algorithm, first or second kind.

    Even entries are elements, odd entries multiples ``c * f`` of the
    table's functional, stored as the coefficients ``c``.  Slower than
    :class:`TopoEpsTable` and with no singular-block protection; kept as
    the reference the simplified tables are checked against.

    The even entries run the simplified tables' sweep and storage (module
    docstring): a ``tea1`` table holds the elements ``stea1`` holds, a
    ``tea2`` table those of ``stea2``.  Besides them it keeps the K odd
    coefficients of its newest diagonal.  Each even update's coefficient
    comes from the odd step just before it (:meth:`_step`), which forms odd
    entry ``2j - 1`` from ``f(hi, lo)`` of ``E_{2j-2}^(n+1)`` in this
    diagonal and ``E_{2j-2}^(n)`` one diagonal back; a growing table whose
    sweep ends on an odd column takes one trailing odd step.
    ``peak_slots`` records the high-water mark of element slots,
    ``peak_total`` that of element and coefficient slots together, taken
    at each odd step, while the even update after it has all its operands
    and the replaced coefficient waits for the next odd step.

    Functional calls.  The even step's ``f`` of an element difference is
    one an odd step already took, on the same operands in the same order:
    for the second kind the odd step just before it, for the first kind the
    same odd column's step on the previous append (kept, one value per odd
    column).  So the table calls ``f(hi, lo)`` once per odd entry, about K
    times per term, bit-identically to calling it again.  Entries are owned
    as in :class:`TopoEpsTable`.
    """

    def __init__(self, functional, max_k, variant="tea1"):
        if variant not in ("tea1", "tea2"):
            raise ValueError(f"bad variant: {variant!r}")
        super().__init__(functional, max_k, variant == "tea1")
        self.variant = variant
        self.peak_total = 0
        # the odd coefficients of the newest diagonal, by column // 2, and
        # how many are live
        self._odd = [None] * max_k
        self._coefs = 0
        # the previous diagonal's coefficient the last odd step replaced:
        # the next odd step's base
        self._below = None
        # the first kind's f(hi - lo) of each odd column, from the last sweep
        self._fodd = [None] * max_k if variant == "tea1" else None

    def append(self, S):
        """Add one term; returns new even entries as ``(column, n, array)``."""
        out = self._sweep(self._term(S), None)
        # the elements alone, where no odd step has counted them yet
        if self.peak_slots > self.peak_total:
            self.peak_total = self.peak_slots
        return out

    def _step(self, j, hi, lo, held):
        """Odd entry ``2j - 1`` of the new diagonal, from ``f(hi, lo)``;
        returns the coefficient of even entry ``2j`` (NaN where there is
        none).  ``held`` is the sweep's count of element slots."""
        odd = self._odd
        fval = None if hi is None or lo is None else self.functional(hi, lo)
        fdiff = fval
        if self._fodd is not None:
            fdiff, self._fodd[j - 1] = self._fodd[j - 1], fval
        base = self._below if j >= 2 else 0.0
        val = None if base is None or fval is None else base + _inv_any(fval)
        old = self._below = odd[j - 1]
        odd[j - 1] = val
        if val is None:
            self.invalid.add((2 * j - 1, self.n_terms - 2 * j + 1))
        # the old coefficient stays live until the next odd step reads it
        self._coefs += (val is not None) - (old is not None)
        total = held + self._coefs + (old is not None)
        if total > self.peak_total:
            self.peak_total = total
        if fdiff is None or val is None or old is None:
            return cmath.nan
        # an infinite or NaN coefficient leaves the entry unformed
        return _inv_any((val - old) * fdiff)


# -- coefficient arithmetic with zero poisoning ------------------------------

def _mul(a, b):
    return a * b


def _ratio(num, den):
    return num * _inv_any(den) if den == 0 else num / den


def _mulinv(d1, d2):
    return _inv_any(d1 * d2)


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

class Recorder:
    """Keeps, by position, what a table gives out as it streams, for
    inspection and testing: everything that grows with the stream, which
    the tables do not keep (module docstring, "Storage").

    ``Recorder(table)`` takes a table that has no terms yet, and ``append``
    and ``extend`` append through it, returning what the table returns.
    After each append the recorder reads the newest diagonal through the
    table's ``entry``: it keeps column 0 as given, a copy of every other
    element entry, a full table's odd coefficients, and None where an entry
    could not be formed, whose position it adds to ``invalid``.  A scalar
    table's recorder is its own ``shadow``; a simplified table's shadow is a
    recorder of its scalar table, a full table's None.  A shadow keeps each
    ``last_diagonal`` of its table and, in ``events``, every
    :class:`~epsaccel.scalar_eps.SingularEvent` the table fired
    (``ScalarEpsTable.fired``), which a later repair marks treated as it
    does in the table.  ``column`` and ``even_column`` read any recorder;
    ``flag`` and ``diagonal_sum_identities`` read a shadow's entries.
    """

    def __init__(self, table):
        if table.n_terms:
            raise ValueError("a Recorder needs a table that has no terms yet")
        self.table = table
        # the recorded diagonals, by diagonal, each by column
        self._diags = []
        if isinstance(table, ScalarEpsTable):
            self.shadow = self
            self.events = []
        else:
            self.shadow = Recorder(table.scalar) if isinstance(table, TopoEpsTable) else None
            self.invalid = set()

    def append(self, term):
        out = self.table.append(term)
        self._record()
        return out

    def extend(self, terms):
        for term in terms:
            self.append(term)
        return self

    def _record(self):
        """Keep the newest diagonal of the table, and of its shadow's."""
        tab = self.table
        if self.shadow is self:
            self._diags.append(tab.last_diagonal)
            self.events += tab.fired
            return
        N = tab.n_terms - 1
        diag = [None] * (min(N, 2 * tab.max_k) + 1)
        for col in range(0, len(diag), 1 if isinstance(tab, TeaTable) else 2):
            e = tab.entry(col, N - col)
            if e is None:
                self.invalid.add((col, N - col))
            elif col and col % 2 == 0:
                e = e.copy()
            diag[col] = e
        self._diags.append(diag)
        if self.shadow is not None:
            self.shadow._record()

    def entry(self, k, n):
        """The recorded entry at ``(k, n)``; None where none was recorded
        or it could not be formed.  A scalar table's boundary column
        k = -1 is identically zero."""
        if k == -1 and self.shadow is self:
            return 0.0 if n >= 0 else None
        d = k + n
        if k < 0 or n < 0 or d >= len(self._diags):
            return None
        diag = self._diags[d]
        return diag[k] if k < len(diag) else None

    def column(self, k):
        """All recorded entries of column k as ``(n, value)`` pairs."""
        return [(d - k, diag[k]) for d, diag in enumerate(self._diags)
                if d >= k and k < len(diag)]

    def even_column(self, k):
        """Column ``2k`` of limit estimates as ``(n, value)`` pairs."""
        return self.column(2 * k)

    def flag(self, k, n):
        """'cross-rule' if the shadow entry was repaired, that is, is the
        victim of a treated event, else None."""
        return "cross-rule" if any(ev.victim == (k, n) for ev in self.events) else None

    def diagonal_sum_identities(self, k, n):
        """Both telescoping diagonal identities of the shadow at ``(k, n)``.

        Returns the pair of reconstructions

            s_{n+k} + sum_{i=1..k} 1/(eps_{2i-1}^(n+k-i+1) - eps_{2i-1}^(n+k-i)),
            sum_{i=0..k}           1/(eps_{2i}^(n+k-i+1)   - eps_{2i}^(n+k-i)),

        which telescope to ``eps_{2k}^(n)`` and ``eps_{2k+1}^(n)``.  Raises
        LookupError if any required entry is not recorded yet.  Column c
        adds its term, at ``i = (c + 1) // 2``, to the first sum when odd and
        to the second when even.
        """
        sums = [self.entry(0, n + k), 0.0]
        if sums[0] is None:
            raise LookupError(f"entry (0, {n + k}) unavailable")
        for col in range(2 * k + 1):
            m = n + k - (col + 1) // 2
            a, b = self.entry(col, m + 1), self.entry(col, m)
            if a is None or b is None:
                raise LookupError(f"column {col} unavailable")
            sums[1 - col % 2] += _inv_any(a - b)
        return tuple(sums)


def ratio_series(recorder):
    """Measured column-to-column improvement ratios of the scalar shadow.

    For each order k returns the series ``(n, r_k^(n))`` with

        r_k^(n) = (e_{2k+2}^(n) - e_{2k}^(n+1)) / (e_{2k}^(n+1) - e_{2k}^(n)).

    ``|r|`` small means column 2k+2 genuinely improves on column 2k; for a
    sequence dominated by one geometric mode with ratio ``lam`` the series
    tends to ``lam / (1 - lam)``.  Reads the shadow of a :class:`Recorder`
    of a scalar or a simplified table.
    """
    out = {}
    kmax_col = max((len(d) for d in recorder.shadow._diags), default=0) - 1
    for k in range(0, max(0, kmax_col // 2)):
        series = []
        for n, e22, ehi, elo in _shadow_steps(recorder, k):
            den = ehi - elo
            if den == 0 or not np.isfinite(np.abs(den)):
                continue
            series.append((n, (e22 - ehi) / den))
        if series:
            out[k] = series
    return out


def stability_margin(recorder, k):
    """Rounding amplification bounds for column ``2k + 2`` of the shadow.

    Returns the list of margins for n = 0, 1, ... (as far as the table
    reaches), where

        margin = |e_{2k+2}^(n) - e_{2k}^(n)| / |e_{2k}^(n+1) - e_{2k}^(n)|
               + |e_{2k+2}^(n) - e_{2k}^(n+1)| / |e_{2k}^(n+1) - e_{2k}^(n)|.

    A perturbation of the operand entries is magnified by at most this factor
    (to first order), so margins near 1 mean a numerically safe step and huge
    margins flag the steps where singular-block repairs earn their keep.  A
    zero denominator (degenerate column, e.g. a kernel sequence transformed
    exactly) gives a non-finite margin rather than a gap.  Reads the shadow
    of a :class:`Recorder` of a scalar or a simplified table.
    """
    series = []
    for n, e22, ehi, elo in _shadow_steps(recorder, k):
        den = abs(ehi - elo)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = float(np.divide(abs(e22 - elo), den) + np.divide(abs(e22 - ehi), den))
        series.append(m)
    return series


def _shadow_steps(recorder, k):
    """The steps ``(n, e_{2k+2}^(n), e_{2k}^(n+1), e_{2k}^(n))`` of the
    recorded shadow for n = 0, 1, .., up to the first with an entry not
    recorded.  A shadow's entries are never None inside it, so every later
    step lacks one too."""
    sc = recorder.shadow
    for n in range(len(sc._diags)):
        e22, ehi, elo = sc.entry(2 * k + 2, n), sc.entry(2 * k, n + 1), sc.entry(2 * k, n)
        if e22 is None or ehi is None or elo is None:
            return
        yield n, e22, ehi, elo
