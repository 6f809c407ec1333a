"""Correctness gate: table entries against the linear-solve oracle.

An entry passes when it is finite and within ``solve_tolerance(cond) *
scale`` of the oracle in the infinity norm, where ``cond`` is the condition
estimate of the oracle's coefficient system and ``scale`` the largest
magnitude among the terms the entry combines (rounding in an affine
combination is relative to its inputs, and a limit of zero gives no other
scale).  An entry the oracle cannot judge is counted as unchecked, never as
passed: a singular system, or one so ill-conditioned that the oracle's own
rounding error, about ``cond * eps``, exceeds the tolerance's cap.  An entry
the table left out or made non-finite where the oracle can judge it fails.
"""

from __future__ import annotations

import numpy as np

from epsaccel import oracle

# beyond this condition estimate the oracle is less accurate than the
# tolerance it would be held to
_UNDECIDED = oracle.solve_tolerance(np.inf) / np.finfo(np.float64).eps

# which oracle transform each table computes
KINDS = {"scalar": "scalar", "stea1": "first", "tea1": "first",
         "stea2": "second", "tea2": "second"}


def values(x):
    """The ndarray behind a table entry (an ``Element`` or a bare array)."""
    return np.asarray(getattr(x, "value", x))


def norm_inf(x):
    v = values(x)
    return float(np.max(np.abs(v))) if v.size else 0.0


class Gate:
    """Tallies of checked, failed and unchecked comparisons."""

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.unchecked = 0
        self.failures = []

    def record(self, ok, what):
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def agree_frac(self):
        return (self.checked - self.failed) / self.checked if self.checked else 0.0


def coefficients(s, k):
    """Oracle coefficients of ``e_k`` at the start of ``s``, or None."""
    try:
        co = oracle.solve_coefficients(s, 0, k)
    except oracle.BreakdownError:
        return None
    if not np.isfinite(co.cond) or co.cond > _UNDECIDED:
        return None
    return co


def tolerance(co, scale):
    return oracle.solve_tolerance(co.cond) * max(scale, np.finfo(np.float64).tiny)


class DiagonalChecker:
    """Checks the newest diagonal of a table against the oracle.

    The oracle transform of each ``(col, n)`` is cached per kind, so the
    first-kind pair (stea1, tea1) and the second-kind pair (stea2, tea2)
    share one solve per entry.
    """

    def __init__(self, gate, terms, functional, max_k):
        self.gate = gate
        self.terms = terms
        self.f = functional
        self.max_k = max_k
        self._cache = {}

    def clear(self):
        self._cache.clear()

    def reference(self, kind, col, n):
        """``(coefficients, oracle value, scale)`` of one entry, or None."""
        key = (kind, col, n)
        if key not in self._cache:
            k = col // 2
            window = self.terms[n:n + 2 * k + 1]
            s = np.array([self.f(t) for t in window])
            co = coefficients(s, k)
            if co is None:
                ref = None
            elif kind == "scalar":
                ref = (co, oracle.shanks_scalar(s, 0, k), float(np.max(np.abs(s))))
            else:
                ref = (co, values(oracle.shanks_topo(window, self.f, 0, k, kind)),
                       max(norm_inf(t) for t in window))
            self._cache[key] = ref
        return self._cache[key]

    def check(self, table, name, n_terms):
        """Compare every even entry of diagonal ``n_terms - 1`` of ``table``."""
        kind = KINDS[name]
        last = n_terms - 1
        top = min(last, 2 * self.max_k + (2 if kind == "scalar" else 0))
        for col in range(0, top + 1, 2):
            n = last - col
            ref = self.reference(kind, col, n)
            if ref is None:
                self.gate.unchecked += 1
                continue
            co, want, scale = ref
            got = table.entry(col, n)
            if got is None:
                ok = False
            else:
                got = values(got)
                ok = bool(np.all(np.isfinite(got))) and \
                    float(np.max(np.abs(got - want))) <= tolerance(co, max(scale, norm_inf(want)))
            self.gate.record(ok, f"{name} ({col}, {n}) after {n_terms} terms")
