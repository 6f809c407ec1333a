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
repair carries the event it treats, and the suppression test reads only
which columns fired on the previous diagonal, so a converged stream that
repairs on every term stays linear in its length.  The work is one
sweep over Python numbers, so its cost is the interpreter's, not numpy's
per-call overhead.  Each column takes one difference ``d = hi - lo`` of the
pair west of its new entry, which serves both the test and the rhombus
rule, and one finiteness test of ``d``, ``math.isfinite`` (``cmath.isfinite``
once the table has seen a complex term): a finite ``d`` has finite
operands, and finite operands whose difference overflows are too far apart
for the test to fire.  The test's trigger and the watched parities are
fixed at construction.  ``1/d`` is Python's IEEE division, with the
infinity of d's sign at ``d == 0`` (``inf+0j`` for a complex zero).  That
is bit for bit what numpy's scalar division gives a float.  A complex
modulus too large for a float reads as inf in the test instead of raising.

Storage.  The table holds O(max_col) numbers however many terms it has
seen: the last three diagonals, which are all the rhombus rule, the cross
rule and the topological tables' coefficient forms read, the events of
the newest one, which columns fired on the newest two, and the repairs
due on the next one.  A scheduled repair is its victim column and its
event: the cross rule's centre, north and west neighbours are entries of
the last two diagonals when it is applied, so it reads them there.  Each
kept diagonal holds the boundary column -1 (zero) at index 0, so column k
sits at index k + 1: the rhombus rule and the cross rule read the boundary
like any other entry, and the coefficient forms index the diagonals as
they are.  ``n_terms`` and ``sigma`` are counters, and ``events`` counts
the firings without keeping them, so only ``len(events)`` reads it.
``entry`` of a diagonal older than the last three raises LookupError.
``fired`` is the list of the latest append's events, which a repair on
the next one marks treated, and ``last_diagonal`` the newest diagonal.
What grows with the stream, every diagonal and the event log with the
readers of old entries, is kept outside the table by
:class:`epsaccel.topo_eps.Recorder`.
"""

from __future__ import annotations

import cmath
import math
import operator
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
    max_col : int
        Highest column to compute (``2 * k_max`` to reach the k-th even
        column).  A cap past the stream's length computes full diagonals.
    p_threshold : int
        Fire the near-coincidence test when the relative difference of a
        vertical pair drops below ``10**-p_threshold``.  A negative one
        fires on wider gaps; below -308, where that float overflows, it
        raises ValueError.
    particular_rules : bool
        Detect and apply the cross-rule repair.  Off means plain rhombus
        rule everywhere and no events, which is the right baseline for
        comparisons.
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
    fired : list of SingularEvent
        The events of the latest append, in firing order; a repair on the
        next append marks its event treated.  Each append makes a new list.
    """

    def __init__(self, max_col, p_threshold=10, particular_rules=True,
                 singular_parity="both"):
        if singular_parity not in ("both", "even", "odd"):
            raise ValueError(f"bad singular_parity: {singular_parity!r}")
        self.max_col = operator.index(max_col)
        self.sigma = 0
        self.n_terms = 0
        self.events = _Tally()
        # the last three diagonals, each holding the boundary column -1 (zero)
        # at index 0, so that column k sits at index k + 1
        self._diags = []
        # the events of the latest append; the columns whose test fired on
        # it and on the one before, which is all the suppression test reads,
        # as bit masks (bit j for column j); and the repairs scheduled for
        # the next diagonal, in ascending victim column
        self.fired = []
        self._fired_cols = 0
        self._fired_cols_prev = 0
        self._pending = []
        # the sweep's constants: whether the test watches the pair in column
        # t - 1, by t % 2 of the column t it feeds, and its relative trigger
        self._watch = (particular_rules and singular_parity != "even",
                       particular_rules and singular_parity != "odd")
        try:
            self._trigger = 10.0 ** -p_threshold
        except OverflowError:
            raise ValueError(f"p_threshold {p_threshold} is below -308: its trigger"
                             f" 10**{-p_threshold} overflows") from None
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
        prev = diags[-1] if N else None
        pending, self._pending, self.fired = self._pending, [], []
        self._fired_cols_prev, self._fired_cols = self._fired_cols, 0

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
        new = [0.0, s]
        push = new.append
        top = min(N, self.max_col)
        # the column of the next scheduled repair; 0 for none
        due = pending[0][0] if pending else 0

        for t in range(1, top + 1):
            hi = new[t]     # eps_{t-1}^(N - t + 1)
            lo = prev[t]    # eps_{t-1}^(N - t)
            d = hi - lo

            # the near-coincidence test on the pair (hi, lo); a finite d has
            # finite operands, and finite operands whose difference
            # overflows are too far apart to fire
            if watch[t & 1] and finite(d):
                if lo != 0:
                    ratio = mag(d) / mag(lo)
                    hit = ratio < trigger
                else:
                    ratio = mag(d)
                    hit = ratio < _EPS
                if hit:
                    self._fire(t - 1, N - t, ratio)

            if t == due:
                # the cross rule centred on eps_{t-2}^(N-t+1), whose north
                # and west neighbours the last two diagonals hold
                event = pending.pop(0)[1]
                value = _cross_east(prev[t - 1], diags[-2][t - 1], new[t - 1],
                                    prev[t - 3], finite)
                self.sigma += 1
                event.treated = True
                event.victim = (t, N - t)
                due = pending[0][0] if pending else 0
            else:
                value = prev[t - 1] + (1.0 / d if d else at_zero(d))

            push(value)

        diags.append(new)
        if len(diags) > 3:
            del diags[0]
        self.n_terms = N + 1
        return [(k, N - k, value) for k, value in enumerate(new[1:])]

    def extend(self, terms):
        """Append every term of an iterable; returns the table itself."""
        for s in terms:
            self.append(s)
        return self

    # -- singular machinery -------------------------------------------------

    def _fire(self, j, n_pair, ratio):
        """Record a firing of the test on the pair in column j at ``n_pair``.

        Unless suppressed, schedules the cross-rule repair of the entry three
        columns east and one superscript down, which the next diagonal will
        reach.  The schedule is the victim column and the event, which the
        repair marks treated.
        """
        # suppressed when column j - 2 fired on the previous diagonal
        suppressed = bool(self._fired_cols_prev << 2 >> j & 1)
        self._fired_cols |= 1 << j
        event = SingularEvent(j, n_pair, ratio, False, suppressed)
        self.fired.append(event)
        self.events.append(event)
        # The repair needs eps_{j+1}^(n_pair - 1) (north of the centre) and a
        # victim inside the table: both require n_pair >= 1.  The victim
        # column j + 3 must also clear the cap.
        if not suppressed and n_pair >= 1 and j + 3 <= self.max_col:
            self._pending.append((j + 3, event))

    # -- access -------------------------------------------------------------

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
        return diag[k + 1] if k + 1 < len(diag) else None

    @property
    def last_diagonal(self):
        return self._diags[-1][1:] if self._diags else []


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
