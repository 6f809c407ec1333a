"""Shanks transformation by direct linear solves.

This module computes the same quantities as the epsilon tables, but the slow
and transparent way: set up the defining linear system for the coefficients
``a_0 .. a_k`` and solve it with a pivoted factorization.  It exists as an
independent check on the recursive tables, so it deliberately shares no code
with them.

The transformation of order k applied at index n is

    e_k(S_n) = a_0 S_n + a_1 S_{n+1} + ... + a_k S_{n+k},

where the coefficients solve

    a_0 + a_1 + ... + a_k = 1,
    a_0 ds_{n+j} + a_1 ds_{n+j+1} + ... + a_k ds_{n+j+k} = 0   (j = 0..k-1),

with ``ds_i = s_{i+1} - s_i`` built from a scalar sequence; for element
sequences the scalars are the values of a linear functional on the terms.
The second-kind variant applies the same coefficients k indices later,
``a_0 S_{n+k} + ... + a_k S_{n+2k}``.

For small k the coefficients and the transform are also available as explicit
determinant ratios (Cramer's rule), which is a second, even more literal
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vectorspace import as_term

__all__ = [
    "BreakdownError",
    "ShanksCoefficients",
    "solve_coefficients",
    "shanks_scalar",
    "shanks_topo",
    "shanks_scalar_determinantal",
    "solve_tolerance",
]


class BreakdownError(ArithmeticError):
    """The coefficient system is singular to working precision.

    Carries the condition estimate of the offending matrix so callers can
    report how close to breakdown the input was.
    """

    def __init__(self, message, cond=float("inf")):
        super().__init__(f"{message} (cond estimate {cond:.3e})")
        self.cond = cond


@dataclass
class ShanksCoefficients:
    """Coefficients of one Shanks transform plus solve diagnostics."""

    a: np.ndarray
    k: int
    n: int
    cond: float


def _system(s, n, k):
    s = np.asarray(s)
    if len(s) < n + 2 * k + 1:
        raise ValueError(f"need {n + 2 * k + 1} scalar terms, got {len(s)}")
    ds = np.diff(s)
    A = np.empty((k + 1, k + 1), dtype=ds.dtype if k else float)
    A[0, :] = 1.0
    for j in range(k):
        A[j + 1, :] = ds[n + j : n + j + k + 1]
    b = np.zeros(k + 1, dtype=A.dtype)
    b[0] = 1.0
    return A, b


def solve_coefficients(s, n, k):
    """Coefficients ``a_0..a_k`` of ``e_k`` at index n, by pivoted solve."""
    A, b = _system(s, n, k)
    try:
        a = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(A))
        raise BreakdownError("singular coefficient system", cond) from exc
    cond = float(np.linalg.cond(A))
    return ShanksCoefficients(a=a, k=k, n=n, cond=cond)


def shanks_scalar(s, n, k, second_kind=False):
    """``e_k(s_n)`` for a scalar sequence.

    ``second_kind=True`` applies the coefficients to ``s_{n+k} .. s_{n+2k}``
    instead of ``s_n .. s_{n+k}``.
    """
    coeffs = solve_coefficients(s, n, k)
    s = np.asarray(s)
    off = n + k if second_kind else n
    return complex(coeffs.a @ s[off : off + k + 1]) if np.iscomplexobj(s) \
        else float(coeffs.a @ s[off : off + k + 1])


def shanks_topo(terms, functional, n, k, variant="first"):
    """``e_k`` applied to a sequence of elements.

    The coefficients come from the scalar shadow ``s_i = f(S_i)``; the
    combination is then taken on the elements themselves.  ``variant``
    selects the window: "first" combines ``S_n .. S_{n+k}``, "second"
    combines ``S_{n+k} .. S_{n+2k}`` with the same coefficients.  Returns
    an array.
    """
    if variant not in ("first", "second"):
        raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")
    terms = [as_term(t) for t in terms]
    s = np.array([functional(t) for t in terms])
    coeffs = solve_coefficients(s, n, k)
    off = n + k if variant == "second" else n
    acc = np.zeros_like(terms[off])
    real = not np.iscomplexobj(coeffs.a)
    for i, ai in enumerate(coeffs.a):
        weight = float(ai.real) if real else complex(ai)
        acc = acc + terms[off + i] * weight
    return np.asarray(acc)


def shanks_scalar_determinantal(s, n, k):
    """``e_k(s_n)`` as a ratio of two Hankel-style determinants.

    Supported for k <= 3, where the determinants are numerically harmless;
    this is the most literal form of the transformation and serves as a
    cross-check on :func:`shanks_scalar`.
    """
    if k > 3:
        raise ValueError("determinantal form kept to k <= 3")
    s = np.asarray(s, dtype=float)
    ds = np.diff(s)
    num = np.empty((k + 1, k + 1))
    den = np.empty((k + 1, k + 1))
    num[0, :] = s[n : n + k + 1]
    den[0, :] = 1.0
    for j in range(k):
        num[j + 1, :] = ds[n + j : n + j + k + 1]
        den[j + 1, :] = ds[n + j : n + j + k + 1]
    return float(np.linalg.det(num) / np.linalg.det(den))


def solve_tolerance(cond, base=1e-12, cap=1e-6):
    """Comparison tolerance scaled by the system's conditioning, capped."""
    if not np.isfinite(cond):
        return cap
    return min(base * cond, cap)
