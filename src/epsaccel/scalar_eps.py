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

Cost.  An append does O(max_col) work however long the stream: a scheduled
repair carries the event it treats, and the suppression test reads only the
firings of the previous diagonal, so a converged stream that repairs on
every term stays linear in its length.  (With ``max_col=None`` the diagonals
themselves grow, and an append is O(N).)  The work is one sweep over Python
numbers, so its cost is the interpreter's, not numpy's per-call overhead:
the test's trigger and the watched parities are fixed at construction, the
finiteness tests are ``math.isfinite`` (``cmath.isfinite`` once the table has
seen a complex term), and ``1/d`` is Python's IEEE division, with the
infinity of d's sign at ``d == 0`` (``inf+0j`` for a complex zero).  That is
bit for bit what numpy's scalar division gives a float.  A complex modulus
too large for a float reads as inf in the test instead of raising.

Storage.  The table holds O(max_col) numbers however many terms it has
seen: the last three diagonals, which are all the rhombus rule, the cross
rule and the topological tables' coefficient forms read, and the firings on
the newest two.  ``n_terms`` and ``sigma`` are counters, and ``events``
counts the firings without keeping them, so only ``len(events)`` reads it.
``entry`` of a diagonal older than the last three raises LookupError.
:attr:`ScalarEpsTable.fired` gives the events of the latest append, which
a repair on the next one marks treated, and ``last_diagonal`` the newest
diagonal.  What grows with the stream, every diagonal and the event log
with the readers of old entries, is kept outside the table by
:class:`epsaccel.topo_eps.Recorder`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScalarEpsTable", "SingularEvent"]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(slots=True)
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
    """Streaming epsilon table over scalar terms.

    Terms may be Python or numpy numbers; each is stored as a Python
    ``float``, or ``complex`` when complex, and every entry is one too.

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
    n_terms : int
        Number of terms appended.
    events : count
        The number of firings of the test, treated or not, ``len(events)``.
    """

    def __init__(self, max_col=None, p_threshold=10, particular_rules=True,
                 singular_parity="both"):
        if singular_parity not in ("both", "even", "odd"):
            raise ValueError(f"bad singular_parity: {singular_parity!r}")
        self.max_col = max_col
        self.sigma = 0
        self.n_terms = 0
        self.events = _Tally()
        # the last three diagonals
        self._diags = []
        # firings of the test on the diagonal being built and on the previous
        # one, the only one the suppression test reads, by pair
        self._fired = {}
        self._fired_prev = {}
        self._pending_next = {}
        # the sweep's constants: whether the test watches column j, by j % 2,
        # and its relative trigger
        detect = particular_rules and p_threshold is not None
        self._watch = (detect and singular_parity != "odd",
                       detect and singular_parity != "even")
        self._trigger = 10.0 ** (-p_threshold) if detect else None
        # set by the first complex term: from then on entries may be complex
        self._complex = False

    # -- building ---------------------------------------------------------

    def append(self, s):
        """Add a term and build its ascending diagonal.

        Returns the list of new entries as ``(k, n, value)`` triples, column 0
        first.
        """
        N = self.n_terms
        diags = self._diags
        prev = diags[-1] if N else []
        pending = self._pending_next
        self._pending_next = {}
        self._fired_prev, self._fired = self._fired, self._fired_prev
        self._fired.clear()

        if type(s) is not float:
            s = complex(s) if isinstance(s, complex) or np.iscomplexobj(s) else float(s)
            self._complex = self._complex or type(s) is complex
        # 1/d is IEEE division wherever d is not zero; at zero, the signed
        # infinity numpy's division gives a float, inf+0j a complex; a
        # complex modulus too large for a float reads as inf
        at_zero, finite, mag = ((_inv_any, cmath.isfinite, _abs_any) if self._complex
                                else (_inv_real_zero, math.isfinite, abs))
        watch = self._watch
        trigger = self._trigger
        new = [s]
        top = N if self.max_col is None else min(N, self.max_col)

        for t in range(1, top + 1):
            j = t - 1
            hi = new[j]      # eps_j^(N - t + 1)
            lo = prev[j]     # eps_j^(N - t)

            # the near-coincidence test on the pair (hi, lo)
            sched = None
            if watch[j & 1] and finite(hi) and finite(lo):
                d = mag(hi - lo)
                if lo != 0:
                    ratio = d / mag(lo)
                    fired = ratio < trigger
                else:
                    ratio = d
                    fired = d < _EPS
                if fired:
                    sched = self._fire(j, N - t, ratio, prev, new)

            if t in pending:
                info = pending[t]
                value = _cross_east(info["C"], info["N"], new[t - 2], info["W"], finite)
                self.sigma += 1
                event = info["event"]
                event.treated = True
                event.victim = (t, N - t)
            else:
                base = prev[t - 2] if t >= 2 else 0.0
                d = hi - lo
                value = base + (1.0 / d if d else at_zero(d))

            new.append(value)
            if sched is not None:
                sched["C"] = value

        diags.append(new)
        if len(diags) > 3:
            del diags[0]
        self.n_terms = N + 1
        return [(t, N - t, value) for t, value in enumerate(new)]

    def extend(self, terms):
        """Append every term of an iterable; returns the table itself."""
        for s in terms:
            self.append(s)
        return self

    # -- singular machinery -------------------------------------------------

    def _fire(self, j, n_pair, ratio, prev, new):
        """Record a firing of the test on the pair in column j at ``n_pair``.

        Unless suppressed, schedules the cross-rule repair of the entry three
        columns east and one superscript down, which the next diagonal will
        reach.  The schedule record carries the event, which the repair marks
        treated.  Returns the record so the caller can fill in the centre
        entry once it is computed, or None.
        """
        suppressed = (j - 2, n_pair + 1) in self._fired_prev and j >= 2
        event = SingularEvent(j, n_pair, ratio, suppressed=suppressed)
        self._fired[(j, n_pair)] = event
        self.events.append(event)
        if suppressed:
            return None

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

    # -- access -------------------------------------------------------------

    @property
    def fired(self):
        """The events of the latest append, in firing order; a repair later
        marks its event treated."""
        return list(self._fired.values())

    def entry(self, k, n):
        """``eps_k^(n)``; the boundary column k = -1 is identically zero.

        Returns None for entries not (yet) in the table.  An entry on a
        diagonal older than the last three raises LookupError.
        """
        if k == -1:
            return 0.0 if n >= 0 else None
        d = k + n
        if k < 0 or n < 0 or d >= self.n_terms:
            return None
        i = d - self.n_terms + len(self._diags)
        if i < 0:
            raise LookupError(f"entry ({k}, {n}) is older than the last three diagonals"
                              " the table keeps: record the table with a Recorder")
        diag = self._diags[i]
        return diag[k] if k < len(diag) else None

    @property
    def last_diagonal(self):
        return list(self._diags[-1]) if self._diags else []


class _Tally:
    """What a table keeps of a log or set of items it does not hold: their
    number, which ``len`` gives."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def append(self, item):
        self.count += 1

    add = append

    def __len__(self):
        return self.count


def _cross_east(C, Nn, S, W, finite):
    """Eastern neighbour from the cross identity, huge-centre-stable form."""
    if not finite(C):
        return Nn + S - W
    try:
        psi = S / (C - S) + Nn / (C - Nn) - W / (C - W)
        return C * psi / (1.0 + psi)
    except ZeroDivisionError:
        return float("nan")


def _inv_real_zero(x):
    """1/x of a float zero: the infinity of its sign, as IEEE division gives."""
    return math.copysign(math.inf, x)


def _abs_any(z):
    """``abs(z)``, or inf where a complex z's modulus overflows (``abs``
    raises OverflowError there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _inv_any(x):
    """1/x of a float or complex; an exact complex zero gives ``inf+0j``."""
    if isinstance(x, complex):
        return complex("inf") if x == 0 else 1.0 / x
    return 1.0 / x if x else _inv_real_zero(x)
