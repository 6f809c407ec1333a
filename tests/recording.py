"""What the tests read tables with: a recorder of everything a table gives
out as it streams, least-squares convergence-rate fits, and the scalar
kernel streams with planted ties.

The tables keep O(K) state (:mod:`epsaccel.topo_eps`, "Storage"), so what
grows with the stream, every diagonal and the shadow's event log, is kept
here, outside the package.  ``tools/compare_trees.py`` imports this module
too, so it reads only what every table hands out: ``append``, ``entry``,
``last_diagonal``, ``fired``, ``n_terms``, ``max_k`` and ``scalar``.
"""

import numpy as np

from epsaccel import ScalarEpsTable, TeaTable, TopoEpsTable
from epsaccel.scalar_eps import _inv_any
from epsaccel.sequences import KernelRecurrence


class Recorder:
    """Keeps, by position, what a table gives out as it streams.

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


def _log_fit(ns, errors, skip, x_of):
    """Slope and intercept of the least-squares line through
    ``(x_of(n), log e_n)``, after dropping any non-finite or non-positive
    errors and then the first ``skip`` points (transients); None when fewer
    than two points survive."""
    pts = [(n, e) for n, e in zip(ns, errors) if np.isfinite(e) and e > 0.0][skip:]
    if len(pts) < 2:
        return None
    return np.polyfit(x_of([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)


def fit_geometric_rate(ns, errors, skip=3):
    """Least-squares per-step ratio of a geometrically decaying error series.

    Fits ``log e_n ~ log c + n log r`` after dropping the first ``skip``
    points (transients) and any non-finite or non-positive errors; returns
    ``(rate, constant)`` or None when fewer than two points survive.
    """
    fit = _log_fit(ns, errors, skip, lambda n: np.array(n, dtype=float))
    return None if fit is None else (float(np.exp(fit[0])), float(np.exp(fit[1])))


def fit_algebraic_exponent(ns, errors, b=1.0, skip=3):
    """Least-squares fit of ``e_n ~ c * (n + b)**-p``.

    Returns ``(exponent p, constant c)`` after the same point filtering as
    :func:`fit_geometric_rate`, or None.
    """
    fit = _log_fit(ns, errors, skip, lambda n: np.log([m + b for m in n]))
    return None if fit is None else (float(-fit[0]), float(np.exp(fit[1])))


def planted_kernel(r, gap, where):
    """Eleven terms of the scalar order-5 kernel, whose order-5 transform is
    exactly 0, with ties planted where the kernel protocols plant them.

    ``where`` is "1-2", "3-4" or "both": the seeds are
    ``[r, 1, 1 + gap*r, r, r + gap*r]``, so each tie has a gap of
    ``gap * r`` (``gap=0`` for an exact one), with term 2 set to 0.7 when
    terms 1-2 are untied, and terms 3-4 set to 0.7 and 0.45 when they are.
    """
    seeds = [r, 1.0, 1.0 + gap * r, r, r + gap * r]
    if where == "1-2":
        seeds[3:] = [0.7, 0.45]
    elif where == "3-4":
        seeds[2] = 0.7
    terms = list(seeds)
    c = KernelRecurrence.COEFFS
    while len(terms) < 11:
        w = terms[-5:]
        terms.append(c[0] * w[-1] + c[1] * w[-2] + c[2] * w[-3] + c[3] * w[-4] + c[4] * w[-5])
    return terms
