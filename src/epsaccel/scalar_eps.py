"""Wynn's epsilon algorithm for scalar sequences, with singular-block handling.

The table is built one ascending diagonal per term: after ``d + 1`` terms the
entries ``eps_k^(d - k)`` for ``k = 0 .. d`` exist.  Within a diagonal each new
entry follows the rhombus rule

    eps_{k+1}^(n) = eps_{k-1}^(n+1) + 1 / (eps_k^(n+1) - eps_k^(n)),

with the boundary column ``eps_{-1} == 0``.  Even columns are the estimates of
the limit; odd columns are auxiliary.

Singular blocks.  When two vertically adjacent entries of a column nearly
coincide, the entry between them in the next column blows up, and two columns
further east the normal rule subtracts two nearly equal huge numbers, wiping
out every digit that matters.  The table watches for the coincidence with a
relative test, and computes the endangered entry from the five-point cross
identity that links each entry C to its four compass neighbours,

    1/(E - C) + 1/(W - C) = 1/(N - C) + 1/(S - C).

Centred on the blown-up entry C, solved for the eastern neighbour E, and
rearranged so the huge centre cancels analytically rather than in floating
point, the rule reads

    E = C * psi / (1 + psi),
    psi = S/(C - S) + N/(C - N) - W/(C - W),

where every term of psi is of order neighbour/centre.  When the centre
overflows to infinity (an exact coincidence), the limiting form
``E = N + S - W`` is used.  Both forms are exact identities of the table, not
approximations.

A nearly singular 2 x 2 block of even entries trips the test twice, once on
each of its columns; the second detection belongs to the same block and its
endangered entry is already the one being repaired, so it is suppressed.  The
counter ``sigma`` counts the repairs actually applied.

Cost.  An append does O(max_col) work whatever the history: a scheduled
repair carries the event it treats, and the suppression test reads only the
firings of the previous diagonal, so a converged stream that repairs on
every term stays linear in its length.  (With ``max_col=None`` the diagonals
themselves grow, and an append is O(N).)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScalarEpsTable", "SingularEvent"]

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class SingularEvent:
    """One firing of the near-coincidence test.

    ``k``, ``n`` locate the nearly equal pair ``(eps_k^(n+1), eps_k^(n))``;
    ``ratio`` is the relative difference that tripped the test; ``treated``
    tells whether the cross rule was applied (the endangered entry can fall
    outside the table or past the column cap); ``suppressed`` marks firings
    attributed to a block already being repaired; ``victim`` is the (column,
    superscript) of the repaired entry when there is one.
    """

    k: int
    n: int
    ratio: float
    treated: bool = False
    suppressed: bool = False
    victim: tuple | None = None


class ScalarEpsTable:
    """Streaming epsilon table over python/numpy scalars.

    Parameters
    ----------
    max_col : int or None
        Highest column to compute (``2 * k_max`` to reach the k-th even
        column).  ``None`` computes full diagonals.
    p_threshold : int or None
        Fire the near-coincidence test when the relative difference of a
        vertical pair drops below ``10**-p_threshold``.  ``None`` disables
        detection (as does ``particular_rules=False``).
    particular_rules : bool
        Apply the cross-rule repair on detection.  Off means plain rhombus
        rule everywhere, which is the right baseline for comparisons.
    singular_parity : {"both", "even", "odd"}
        Which columns the coincidence test watches.  Blocks of practical
        interest announce themselves in even columns, but the test is cheap
        and the default watches both.

    Attributes
    ----------
    sigma : int
        Number of cross-rule repairs applied.
    events : list of SingularEvent
        Every firing of the test, treated or not.
    """

    def __init__(self, max_col=None, p_threshold=10, particular_rules=True,
                 singular_parity="both"):
        if singular_parity not in ("both", "even", "odd"):
            raise ValueError(f"bad singular_parity: {singular_parity!r}")
        self.max_col = max_col
        self.p_threshold = p_threshold
        self.particular_rules = particular_rules
        self.singular_parity = singular_parity
        self.sigma = 0
        self.events = []
        self._diags = []
        # firings of the test on the diagonal being built and on the previous
        # one, the only one the suppression test reads
        self._fired = set()
        self._fired_prev = set()
        self._pending_next = {}
        self._flags = {}

    # -- building ---------------------------------------------------------

    @property
    def n_terms(self):
        return len(self._diags)

    def append(self, s):
        """Add a term and build its ascending diagonal.

        Returns the list of new entries as ``(k, n, value)`` triples, column 0
        first.
        """
        N = len(self._diags)
        prev = self._diags[N - 1] if N else []
        pending = self._pending_next
        self._pending_next = {}
        self._fired_prev, self._fired = self._fired, self._fired_prev
        self._fired.clear()

        s = complex(s) if isinstance(s, complex) or np.iscomplexobj(s) else float(s)
        new = [s]
        out = [(0, N, s)]
        top = N if self.max_col is None else min(N, self.max_col)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(1, top + 1):
                j = t - 1
                n_pair = N - 1 - j
                hi = new[j]      # eps_j^(n_pair + 1)
                lo = prev[j]     # eps_j^(n_pair)

                sched = self._maybe_detect(j, n_pair, hi, lo, prev, new)

                if t in pending:
                    info = pending[t]
                    value = self._cross_east(info["C"], info["N"], new[t - 2], info["W"])
                    self.sigma += 1
                    self._flags[(t, N - t)] = "cross-rule"
                    event = info["event"]
                    event.treated = True
                    event.victim = (t, N - t)
                else:
                    base = prev[t - 2] if t >= 2 else 0.0
                    value = base + _safe_inv(_diff(hi, lo))

                new.append(value)
                out.append((t, N - t, value))
                if sched is not None:
                    sched["C"] = value

        self._diags.append(new)
        return out

    def extend(self, terms):
        """Append every term of an iterable; returns the table itself."""
        for s in terms:
            self.append(s)
        return self

    # -- singular machinery -------------------------------------------------

    def _maybe_detect(self, j, n_pair, hi, lo, prev, new):
        """Run the near-coincidence test on the pair ``(hi, lo)`` in column j.

        On an un-suppressed firing, schedules the cross-rule repair of the
        entry three columns east and one superscript down, which the next
        diagonal will reach.  The schedule record carries the event, which
        the repair marks treated.  Returns the record so the caller can fill
        in the centre entry once it is computed, or None.
        """
        if not self.particular_rules or self.p_threshold is None:
            return None
        if self.singular_parity == "even" and j % 2 != 0:
            return None
        if self.singular_parity == "odd" and j % 2 != 1:
            return None
        if not (np.isfinite(hi) and np.isfinite(lo)):
            return None

        d = abs(hi - lo)
        if lo != 0:
            ratio = d / abs(lo)
            fired = ratio < 10.0 ** (-self.p_threshold)
        else:
            ratio = d
            fired = d < _EPS
        if not fired:
            return None

        self._fired.add((j, n_pair))
        if (j - 2, n_pair + 1) in self._fired_prev and j >= 2:
            self.events.append(SingularEvent(j, n_pair, ratio, suppressed=True))
            return None

        event = SingularEvent(j, n_pair, ratio)
        self.events.append(event)

        # The repair needs eps_{j+1}^(n_pair - 1) (north of the centre) and a
        # victim inside the table: both require n_pair >= 1.  The victim
        # column j + 3 must also clear the cap.
        t = j + 1
        if n_pair < 1 or t >= len(prev):
            return None
        if self.max_col is not None and t + 2 > self.max_col:
            return None
        west = new[j - 1] if j >= 1 else 0.0
        sched = {"event": event, "N": prev[t], "W": west, "C": None}
        self._pending_next[t + 2] = sched
        return sched

    @staticmethod
    def _cross_east(C, Nn, S, W):
        """Eastern neighbour from the cross identity, huge-centre-stable form."""
        if C is None:
            return float("nan")
        if not np.isfinite(C):
            return Nn + S - W
        try:
            psi = S / (C - S) + Nn / (C - Nn) - W / (C - W)
            return C * psi / (1.0 + psi)
        except ZeroDivisionError:
            return float("nan")

    # -- access -------------------------------------------------------------

    def entry(self, k, n):
        """``eps_k^(n)``; the boundary column k = -1 is identically zero.

        Returns None for entries not (yet) in the table.
        """
        if k == -1:
            return 0.0 if n >= 0 else None
        d = k + n
        if k < 0 or n < 0 or d >= len(self._diags):
            return None
        diag = self._diags[d]
        return diag[k] if k < len(diag) else None

    def diagonal(self, d):
        """The d-th ascending diagonal, entries ``eps_k^(d-k)`` for k = 0..."""
        return list(self._diags[d])

    @property
    def last_diagonal(self):
        return list(self._diags[-1]) if self._diags else []

    def column(self, k):
        """All available entries of column k as ``(n, value)`` pairs."""
        outs = []
        for d in range(k, len(self._diags)):
            diag = self._diags[d]
            if k < len(diag):
                outs.append((d - k, diag[k]))
        return outs

    def even_column(self, k):
        """Column ``2k`` of limit estimates as ``(n, value)`` pairs."""
        return self.column(2 * k)

    def flag(self, k, n):
        """'cross-rule' if the entry was repaired, else None."""
        return self._flags.get((k, n))

    def diagonal_sum_identities(self, k, n):
        """Both telescoping diagonal identities at ``(k, n)``.

        Returns the pair of reconstructions

            s_{n+k} + sum_{i=1..k} 1/(eps_{2i-1}^(n+k-i+1) - eps_{2i-1}^(n+k-i)),
            sum_{i=0..k}           1/(eps_{2i}^(n+k-i+1)   - eps_{2i}^(n+k-i)),

        which telescope to ``eps_{2k}^(n)`` and ``eps_{2k+1}^(n)``.  Raises
        LookupError if any required entry is not in the table yet.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            even_sum = self.entry(0, n + k)
            if even_sum is None:
                raise LookupError(f"entry (0, {n + k}) unavailable")
            for i in range(1, k + 1):
                a = self.entry(2 * i - 1, n + k - i + 1)
                b = self.entry(2 * i - 1, n + k - i)
                if a is None or b is None:
                    raise LookupError(f"odd column {2 * i - 1} unavailable")
                even_sum = even_sum + _safe_inv(_diff(a, b))
            odd_sum = 0.0
            for i in range(0, k + 1):
                a = self.entry(2 * i, n + k - i + 1)
                b = self.entry(2 * i, n + k - i)
                if a is None or b is None:
                    raise LookupError(f"even column {2 * i} unavailable")
                odd_sum = odd_sum + _safe_inv(_diff(a, b))
        return even_sum, odd_sum


def _diff(a, b):
    try:
        return a - b
    except TypeError:
        return float("nan")


def _safe_inv(x):
    """1/x through numpy so an exact zero gives inf instead of raising."""
    if isinstance(x, complex):
        if x == 0:
            return complex("inf")
        return 1.0 / x
    out = np.divide(1.0, np.float64(x))
    return float(out)
