"""Topological epsilon algorithms over arbitrary element spaces.

The full algorithms (:class:`TeaTable`) accelerate a sequence of elements by
alternating between the element space and its dual: odd entries are scalar
multiples of the chosen functional, even entries are elements.  They are kept
here as references.

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

Updates in place.  An update works block by block
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
update is that plain expression.  So are the tie rule's updates.

Ownership: the entries ``append``, ``entry``, ``last_entries`` and ``best``
return are the table's own storage.  A second-kind entry in column 2 or
above may be overwritten during the next append, a first-kind one during
the append after that; callers copy what they keep.  Under ``debug_full``
the side dict keeps copies, which never change.
"""

from __future__ import annotations

import numpy as np

from .scalar_eps import ScalarEpsTable
from .vectorspace import BLOCK, DualElement, Element, as_element

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


class TopoEpsTable:
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
        # the in-place updates' blocks of difference and product (module
        # docstring)
        self._scratch = None

    @property
    def sigma(self):
        return self.scalar.sigma

    # -- building ----------------------------------------------------------

    def append(self, S):
        """Add one term; returns new even entries as ``(column, n, Element)``."""
        S = as_element(S)
        if self._shape is None:
            self._shape = S.shape
        elif S.shape != self._shape:
            raise ValueError(f"term shape {S.shape} != first term {self._shape}")
        s = self.functional(S)
        seen = len(self.scalar.events)
        self.scalar.append(s)

        N = self.n_terms
        K = self.max_k
        jmax = min(N, 2 * K) // 2

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
        self._sample_live(cur)

        for j in range(1, jmax + 1):
            k = j - 1
            n = N - 2 * j
            coeff = self._coefficient(k, n)
            if self.variant == "stea1":
                a = self._prev[j - 1]       # E_{2k}^(n+1), one diagonal back
                b = self._older[j - 1]      # E_{2k}^(n),  two diagonals back
                if j == 1 and (tie or self._tie_off is not None):
                    e = self._tie_column2(tie, a, coeff, b)
                elif j == 2 and self._tie_due is not None:
                    e = self._tie_column4(a, coeff)
                else:
                    e = self._combine(a, coeff, a, b, into=b if j >= 2 else None)
                self._older[j - 1] = None
            else:
                a = self._prev[j - 1]       # E_{2k}^(n+1), one diagonal back
                b = cur[j - 1]              # E_{2k}^(n+2), this diagonal
                e = self._combine(a, coeff, b, a, into=a if j >= 2 else None)
                self._prev[j - 1] = None
            cur[j] = e
            if e is None:
                self.invalid.add((2 * j, n))
            else:
                out.append((2 * j, n, e))
            if self._full is not None:
                self._full[(2 * j, n)] = None if e is None else e.copy()
            self._sample_live(cur)

        if self.variant == "stea1":
            self._older = self._prev
        self._prev = cur
        self.n_terms = N + 1
        return out

    def extend(self, terms):
        for S in terms:
            self.append(S)
        return self

    def _combine(self, base, coeff, hi, lo, into=None):
        """``base + coeff * (hi - lo)`` with None/NaN poisoning.

        ``into`` is a table-made operand the sweep drops after this update;
        the result goes into its buffer, or into a new one without
        ``into``, where dtypes and layouts allow (module docstring).
        """
        if base is None or hi is None or lo is None or coeff is None:
            return None
        if not np.isfinite(coeff):
            return None
        # the operands share one shape: append checks every term's
        ops = (base.value, hi.value, lo.value)
        dtype = np.result_type(*ops, coeff)
        if ((into is None or into.value.dtype == dtype)
                and all(x.flags.c_contiguous for x in ops)):
            if into is None:
                into = Element(np.empty(ops[0].shape, dtype))
            self._update_into(into.value, coeff, *ops)
            return into
        return base + coeff * (hi - lo)

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

    @staticmethod
    def _scaled(coeff, diff):
        """``coeff * diff``, or None where :meth:`_combine` would poison."""
        if diff is None or coeff is None or not np.isfinite(coeff):
            return None
        return coeff * diff

    def _tie_column2(self, tie, base, coeff, lo):
        """Column-2 update of the first-kind tie rule (module docstring).

        Forms ``base + coeff * (base - lo)`` as :meth:`_combine` does; a kept
        offset becomes the exact column-2 difference across its tie, and a
        tie detected on this append keeps this update's offset.
        """
        diff = _d(base, lo)
        step = self._scaled(coeff, diff)
        if self._tie_off is not None and step is not None:
            self._tie_diff = diff + step - self._tie_off
        self._tie_off = step if tie else None
        return None if step is None else base + step

    def _tie_column4(self, base, coeff):
        """Column-4 update across a tie, from the kept column-2 difference."""
        step = self._scaled(coeff, self._tie_due)
        self._tie_due = None
        return None if base is None or step is None else base + step

    def _coefficient(self, k, n):
        """Scalar coefficient for the entry in column ``2k + 2`` at ``n``."""
        sc = self.scalar.entry
        if self.variant == "stea1":
            if self.form == 1:
                d1 = _d(sc(2 * k, n + 1), sc(2 * k, n))
                d2 = _d(sc(2 * k + 1, n + 1), sc(2 * k + 1, n))
                return _mulinv(d1, d2)
            if self.form == 2:
                num = _d(sc(2 * k + 1, n), sc(2 * k - 1, n + 1))
                den = _d(sc(2 * k + 1, n + 1), sc(2 * k + 1, n))
                return _ratio(num, den)
            if self.form == 3:
                num = _d(sc(2 * k + 2, n), sc(2 * k, n + 1))
                den = _d(sc(2 * k, n + 1), sc(2 * k, n))
                return _ratio(num, den)
            num1 = _d(sc(2 * k + 1, n), sc(2 * k - 1, n + 1))
            num2 = _d(sc(2 * k + 2, n), sc(2 * k, n + 1))
            return _mul(num1, num2)
        if self.form == 1:
            d1 = _d(sc(2 * k, n + 2), sc(2 * k, n + 1))
            d2 = _d(sc(2 * k + 1, n + 1), sc(2 * k + 1, n))
            return _mulinv(d1, d2)
        if self.form == 2:
            num = _d(sc(2 * k + 1, n + 1), sc(2 * k - 1, n + 2))
            den = _d(sc(2 * k + 1, n + 1), sc(2 * k + 1, n))
            return _ratio(num, den)
        if self.form == 3:
            num = _d(sc(2 * k + 2, n), sc(2 * k, n + 1))
            den = _d(sc(2 * k, n + 2), sc(2 * k, n + 1))
            return _ratio(num, den)
        num1 = _d(sc(2 * k + 1, n + 1), sc(2 * k - 1, n + 2))
        num2 = _d(sc(2 * k + 2, n), sc(2 * k, n + 1))
        return _mul(num1, num2)

    def _sample_live(self, cur):
        # counted in C: no entry compares equal to None
        prev, older = self._prev, self._older
        ties = (self._tie_off, self._tie_diff, self._tie_due)
        live = (len(cur) - cur.count(None) + len(prev) - prev.count(None)
                + len(ties) - ties.count(None))
        if older is not None:
            live += len(older) - older.count(None)
        if live > self.peak_slots:
            self.peak_slots = live

    # -- access --------------------------------------------------------------

    def entry(self, col, n):
        """Element at even column ``col``; None unless kept (buffers or debug)."""
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
        """Live even entries of the newest diagonal as ``(column, n, Element)``."""
        N = self.n_terms - 1
        return [(2 * j, N - 2 * j, e)
                for j, e in enumerate(self._prev) if e is not None]

    def best(self):
        """Highest-order live entry of the newest diagonal."""
        entries = self.last_entries()
        return entries[-1] if entries else None


class TeaTable:
    """Full topological epsilon algorithm, first or second kind.

    Even entries are elements, odd entries are multiples of the functional
    (:class:`DualElement`).  Slower and hungrier than :class:`TopoEpsTable`
    and with no singular-block protection; kept as the reference the
    simplified tables are checked against.

    Storage: each new ascending diagonal overwrites the previous one in
    place, under a two-slot chain of the just-unseated entries (the western
    operands).  That alone suffices for the second kind.  The first kind
    also reads even entries two diagonals back, so those are parked in a
    half-length side buffer as they are unseated.  Peak storage is therefore
    one mixed diagonal plus two temporaries (second kind) plus the half
    diagonal (first kind); ``peak_slots``/``peak_duals``/``peak_total``
    record the audited high-water marks.
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
        self.peak_slots = 0
        self.peak_duals = 0
        self.peak_total = 0
        self._diag = [None] * (2 * max_k + 1)
        self._half = [None] * max_k if variant == "tea1" else None

    def append(self, S):
        """Add one term; returns new even entries as ``(column, n, Element)``."""
        S = as_element(S)
        N = self.n_terms
        cmax = min(N, 2 * self.max_k)
        f = self.functional
        B = self._diag
        out = []
        t1 = None   # unseated B[c-1], the previous diagonal one column west
        t2 = None   # unseated B[c-2]

        for c in range(0, cmax + 1):
            old = B[c]
            n = N - c
            if c == 0:
                val = S
            elif c % 2 == 1:
                base = t2 if c >= 3 else DualElement(0.0, f)
                hi, lo = B[c - 1], t1
                if base is None or hi is None or lo is None:
                    val = None
                else:
                    den = f(hi - lo)
                    val = DualElement(base.coefficient + _inv(den), f)
            else:
                base = t2
                dual_hi, dual_lo = B[c - 1], t1
                if self.variant == "tea1":
                    j = (c - 2) // 2
                    other = self._half[j]
                    # base is this diagonal's unseated even entry at c-2:
                    # exactly what the next sweep reads two diagonals back
                    self._half[j] = base
                    diff = None if (base is None or other is None) else base - other
                else:
                    other = B[c - 2]
                    diff = None if (base is None or other is None) else other - base
                if base is None or diff is None or dual_hi is None or dual_lo is None:
                    val = None
                else:
                    coeff = _inv((dual_hi.coefficient - dual_lo.coefficient) * f(diff))
                    # an infinite or NaN coefficient poisons the entry, as
                    # in TopoEpsTable._combine: it is unformable, not NaN
                    if not np.isfinite(coeff):
                        val = None
                    else:
                        val = self._scaled_add(base, coeff, diff)
            B[c] = val
            if (self.variant == "tea1" and c % 2 == 0 and c + 2 > cmax
                    and c // 2 < self.max_k):
                # the parking step c+2 is beyond this sweep (growing table):
                # park the unseated even entry now or it is lost
                self._half[c // 2] = old
            t1, t2 = old, t1
            if val is None:
                self.invalid.add((c, n))
            elif c % 2 == 0:
                out.append((c, n, val))
            if self._full is not None:
                self._full[(c, n)] = val
            self._sample_live((t1, t2))

        self.n_terms = N + 1
        return out

    def extend(self, terms):
        for S in terms:
            self.append(S)
        return self

    @staticmethod
    def _scaled_add(base, coeff, diff):
        """``base + coeff * diff`` with no temporary beyond the result.

        ``diff`` is the step's own, so a real product is formed in it; a
        complex one goes to a new buffer, since numpy's complex multiply
        does not round alike in place and out of place.  The sum is formed
        in the product's buffer.
        """
        if np.result_type(diff.value, coeff).kind == "f":
            np.multiply(diff.value, coeff, out=diff.value)
            val = diff
        else:
            val = coeff * diff
        np.add(base.value, val.value, out=val.value)
        return val

    def _sample_live(self, temps):
        bufs = [self._diag, temps]
        if self._half is not None:
            bufs.append(self._half)
        live = sum(isinstance(x, Element) for buf in bufs for x in buf)
        duals = sum(isinstance(x, DualElement) for buf in bufs for x in buf)
        if live > self.peak_slots:
            self.peak_slots = live
        if duals > self.peak_duals:
            self.peak_duals = duals
        if live + duals > self.peak_total:
            self.peak_total = live + duals

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
    if a is None or b is None:
        return None
    return a * b


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num * _inv(den) if den == 0 else num / den


def _mulinv(d1, d2):
    if d1 is None or d2 is None:
        return None
    prod = d1 * d2
    return _inv(prod)


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
