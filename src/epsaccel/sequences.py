"""Test and application sequences for the acceleration tables.

Every source is a one-shot iterator of numpy arrays (all the same shape).
A caller that feeds several tables identical terms takes them once and keeps
the list.  Sources that know their limit expose ``limit()``; iterative
solvers that only know their equation expose ``residual(term)``.

The synthetic families cover the regimes the tables are built for:

* ``KernelRecurrence``: terms satisfying an exact linear recurrence whose
  coefficients sum to one, the kernel on which transforms of high enough
  order are exact.  Built to start with two nearly coincident pairs so it
  also exercises the singular-block repairs.
* ``GeometricModes`` / ``LogarithmicModes``: sums of geometric or power-law
  modes with known rates, for convergence-rate measurements.
* ``TotallyMonotonicSource`` / ``TotallyOscillatingSource``: entrywise
  mixtures of geometric terms with nonnegative weights, whose differences of
  every order have fixed sign patterns; the even table entries then obey
  known orderings, checked by :func:`verify_totally_monotonic`.

The application families wrap classic fixed-point iterations whose iterates
converge slowly enough to be worth accelerating: cyclic row-projection
sweeps for linear systems (``KaczmarzSweeps``), inversion-free Newton-type
iterations for the matrix equations ``X + A^H X^-1 A = I``
(``NsIterationSource``) and ``X + A^H X^-q A = Q`` (``QpowIterationSource``),
and the Stein equation iteration ``X = F F^T + A X A^T`` (``SmithSource``).
Kaczmarz, Ns and Smith are fixed-point iterations: each gives a start
``x0`` and a map ``step(x)``, and ``FixedPointIteration.next_term`` is the
one loop that iterates them.  The qpow iterate is a function of a hidden
auxiliary matrix, not a map on the iterate, so it keeps its own loop.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KernelRecurrence",
    "GeometricModes",
    "LogarithmicModes",
    "TotallyMonotonicSource",
    "TotallyOscillatingSource",
    "FixedPointIteration",
    "KaczmarzSweeps",
    "NsIterationSource",
    "QpowIterationSource",
    "SmithSource",
    "parter_matrix",
    "verify_totally_monotonic",
    "spectral_radius_estimate",
]


_EPS = np.finfo(float).eps


class _Source:
    """Iterator-of-arrays base; subclasses implement ``next_term``."""

    def __iter__(self):
        return self

    def __next__(self):
        return self.next_term()

    def next_term(self):
        raise NotImplementedError

    def limit(self):
        return None

    def take(self, n):
        """The next n terms as a list."""
        return [self.next_term() for _ in range(n)]


class KernelRecurrence(_Source):
    """Terms locked to the recurrence ``S_n = sum_i c_i S_{n-i}`` with
    ``sum c_i = 0``.  A fixed point S satisfies ``(1 - sum c_i) S = S = 0``,
    so zero is the only one: the recurrence is the Shanks kernel with
    weights ``(1, -c_1, .., -c_5)`` summing to ``1 - sum c_i = 1``, and the
    order-five transform is exact with value zero.

    The five seed terms are chosen adversarially: terms 1 and 2, and terms
    0 and 3 followed closely by 4, form two nearly coincident pairs split by
    ``perturbation``, planting two 2 x 2 singular blocks at the start of the
    epsilon table.

    ``space`` picks vectors of length ``dim`` or square ``dim x dim``
    matrices.
    """

    COEFFS = (3.0, -1.0, 2.0, 1.0, -5.0)

    def __init__(self, dim, space="vector", seed=0, perturbation=1e-11):
        if space not in ("vector", "matrix"):
            raise ValueError(f"bad space: {space!r}")
        self.dim = dim
        self.space = space
        shape = (dim,) if space == "vector" else (dim, dim)
        rng = np.random.default_rng(seed)
        r = rng.random(shape)
        ones = np.ones(shape)
        d = perturbation
        self._seeds = [r, ones, ones + d * r, r.copy(), r + d * r]
        self._window = []
        self._i = 0

    def next_term(self):
        if self._i < 5:
            term = self._seeds[self._i]
        else:
            c = self.COEFFS
            w = self._window
            term = (c[0] * w[-1] + c[1] * w[-2] + c[2] * w[-3]
                    + c[3] * w[-4] + c[4] * w[-5])
        self._window.append(term)
        if len(self._window) > 5:
            self._window.pop(0)
        self._i += 1
        return term.copy()

    def limit(self):
        shape = (self.dim,) if self.space == "vector" else (self.dim, self.dim)
        return np.zeros(shape)


class GeometricModes(_Source):
    """``S_n = limit + (+-1)^n * sum_i amps[i] * rates[i]**n * modes[i]``.

    ``rates`` are the mode ratios (decreasing magnitudes make the table's
    column gains legible); ``modes`` are arrays of a common shape;
    ``alternating`` flips the sign of the whole perturbation each step.
    """

    def __init__(self, limit, amps, rates, modes, alternating=False):
        self._limit = np.asarray(limit, dtype=float)
        self.amps = [float(a) for a in amps]
        self.rates = [float(r) for r in rates]
        self.modes = [np.asarray(u, dtype=float) for u in modes]
        if not (len(self.amps) == len(self.rates) == len(self.modes)):
            raise ValueError("amps, rates, modes must align")
        self.alternating = alternating
        self._n = 0

    @classmethod
    def random(cls, dim, rates, seed=0, alternating=False):
        """Unit-amplitude modes with random positive directions."""
        rng = np.random.default_rng(seed)
        modes = [rng.random(dim) + 0.5 for _ in rates]
        return cls(np.zeros(dim) if dim else 0.0, [1.0] * len(rates),
                   rates, modes, alternating)

    def next_term(self):
        n = self._n
        acc = np.zeros_like(self._limit)
        for a, lam, u in zip(self.amps, self.rates, self.modes):
            acc = acc + a * lam ** n * u
        if self.alternating and n % 2 == 1:
            acc = -acc
        self._n += 1
        return self._limit + acc

    def limit(self):
        return self._limit.copy()


class LogarithmicModes(_Source):
    """``S_n = limit + (+-1)^n * sum_i amps[i] * (n + b)**-(i+1) * modes[i]``.

    The monotone flavour converges logarithmically (ratio of successive
    errors tends to one); the alternating flavour is the matching oscillating
    case.  Both are the standard hard regime for extrapolation.
    """

    def __init__(self, limit, amps, modes, b=1.0, alternating=False):
        self._limit = np.asarray(limit, dtype=float)
        self.amps = [float(a) for a in amps]
        self.modes = [np.asarray(u, dtype=float) for u in modes]
        if len(self.amps) != len(self.modes):
            raise ValueError("amps and modes must align")
        self.b = float(b)
        self.alternating = alternating
        self._n = 0

    def next_term(self):
        n = self._n
        acc = np.zeros_like(self._limit)
        for i, (a, u) in enumerate(zip(self.amps, self.modes)):
            acc = acc + a * (n + self.b) ** (-(i + 1)) * u
        if self.alternating and n % 2 == 1:
            acc = -acc
        self._n += 1
        return self._limit + acc

    def limit(self):
        return self._limit.copy()


class TotallyMonotonicSource(_Source):
    """Entrywise nonnegative mixtures of geometric terms.

    ``S_n[i] = sum_j weights[i, j] * rates[j]**n`` with ``weights >= 0`` and
    ``0 < rates < 1``, so every entry is a totally monotonic scalar sequence:
    ``(-1)^k  (difference of order k)  >= 0`` for all k.  Limit is the
    (default zero) nonnegative offset.
    """

    def __init__(self, dim, rates, seed=0):
        self.dim = dim
        self.rates = np.asarray(rates, dtype=float)
        if np.any(self.rates <= 0) or np.any(self.rates >= 1):
            raise ValueError("rates must lie strictly inside (0, 1)")
        rng = np.random.default_rng(seed)
        self.weights = rng.random((dim, len(self.rates))) + 0.05
        self.offset = np.zeros(dim)
        self._n = 0

    @classmethod
    def proportional(cls, dim, rates, seed=0, offset=0.0):
        """Rank-one weight profile: every entry a multiple of one mixture.

        Entry c of ``S_n`` is ``u[c] * sigma_n + offset[c]`` with ``u >= 0``
        and sigma itself totally monotonic.  Unlike independent entrywise
        mixtures, this profile also satisfies the entrywise column orderings
        of the even epsilon arrays, because every entry is transformed with
        its own (shared, up to scale) Shanks coefficients.
        """
        src = cls(dim, rates, seed)
        rng = np.random.default_rng(seed)
        w = rng.random(len(src.rates)) + 0.05
        u = rng.random(dim) + 0.2
        src.weights = np.outer(u, w)
        src.offset = np.full(dim, float(offset)) if np.isscalar(offset) \
            else np.asarray(offset, dtype=float)
        if np.any(src.offset < 0):
            raise ValueError("offset must be entrywise nonnegative")
        return src

    def next_term(self):
        term = self.weights @ self.rates ** self._n + self.offset
        self._n += 1
        return term

    def limit(self):
        return self.offset.copy()


class TotallyOscillatingSource(_Source):
    """``S_n = (-1)^n T_n`` with ``T`` totally monotonic; limit zero."""

    def __init__(self, dim, rates, seed=0):
        self._tm = TotallyMonotonicSource(dim, rates, seed)
        self._n = 0

    @classmethod
    def proportional(cls, dim, rates, seed=0):
        """Sign-flipped rank-one profile; no offset, or the terms diverge."""
        src = cls(dim, rates, seed)
        src._tm = TotallyMonotonicSource.proportional(dim, rates, seed)
        return src

    def next_term(self):
        term = self._tm.next_term()
        if self._n % 2 == 1:
            term = -term
        self._n += 1
        return term

    def limit(self):
        return np.zeros(self._tm.dim)


def verify_totally_monotonic(terms, max_order=None, tol=0.0):
    """Check ``(-1)^k Delta^k S >= -tol`` entrywise for every feasible order.

    ``terms`` is a list of arrays (or scalars).  Returns True when the whole
    available triangle of differences has the right signs.
    """
    rows = [np.asarray(t, dtype=float) for t in terms]
    if max_order is None:
        max_order = len(rows) - 1
    cur = rows
    for k in range(max_order + 1):
        sign = -1.0 if k % 2 else 1.0
        for row in cur:
            if np.any(sign * row < -tol):
                return False
        cur = [b - a for a, b in zip(cur, cur[1:])]
        if not cur:
            break
    return True


# -- application iterations ---------------------------------------------------


class FixedPointIteration(_Source):
    """The iterates ``x0, step(x0), step(step(x0)), ..`` of a map.

    Subclasses set the start ``x0`` and define ``step(x)``, which returns a
    new array and never writes its argument; term 0 is a copy of ``x0``.  So
    a term the caller keeps never changes as the source advances.
    """

    _x = None  # the newest term; None until term 0

    def step(self, x):
        raise NotImplementedError

    def next_term(self):
        self._x = self.x0.copy() if self._x is None else self.step(self._x)
        return self._x


def parter_matrix(dim):
    """The Cauchy-like matrix ``A[i, j] = 1 / (i - j + 0.5)``.

    Well conditioned but far from symmetric; classic test matrix for
    row-projection methods.
    """
    i = np.arange(dim)[:, None]
    j = np.arange(dim)[None, :]
    return 1.0 / (i - j + 0.5)


class KaczmarzSweeps(FixedPointIteration):
    """Cyclic row-projection iterates for ``A x = b``, one term per sweep.

    Term 0 is the starting vector; term n is the iterate after n full cyclic
    sweeps over the rows.  With a consistent system the iterates converge to
    the solution, slowly when rows are far from orthogonal, which is exactly
    when acceleration pays off.
    """

    def __init__(self, A, b, x0=None):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError("b must match the rows of A")
        self.x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
        self._row_sq = (self.A ** 2).sum(axis=1)

    @classmethod
    def parter(cls, dim, solution=None):
        """Consistent Parter-type system with a known solution (default: ones)."""
        A = parter_matrix(dim)
        x = np.ones(dim) if solution is None else np.asarray(solution, dtype=float)
        return cls(A, A @ x)

    def step(self, x):
        """One cyclic sweep over the rows, on a copy of ``x``."""
        x = x.copy()
        for i in range(self.A.shape[0]):
            row = self.A[i]
            x += (self.b[i] - row @ x) / self._row_sq[i] * row
        return x

    def limit(self):
        sol, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        return sol

    def residual(self, x):
        return float(np.linalg.norm(self.A @ np.asarray(x) - self.b))


class NsIterationSource(FixedPointIteration):
    """Inversion-free Newton-type iterates for ``X + A^H X^-1 A = I``.

    The recursion ``S_{n+1} = 2 S_n - S_n A^-H (I - S_n) A^-1 S_n`` starting
    from ``S_0 = A A^H`` avoids inverting the iterate itself; only the fixed
    matrix A is factored once.  Converges when ``||A||_2 < 1/2``, linearly
    with a ratio that invites acceleration.
    """

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        self._Ainv = np.linalg.inv(self.A)
        self._AinvH = self._Ainv.conj().T
        self._eye = np.eye(self.A.shape[0])
        self.x0 = self.A @ self.A.conj().T

    @classmethod
    def random(cls, dim, norm=0.4, seed=0):
        """Random square A rescaled to the given spectral norm."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim))
        A *= norm / np.linalg.norm(A, 2)
        return cls(A)

    def step(self, S):
        return 2.0 * S - S @ self._AinvH @ (self._eye - S) @ self._Ainv @ S

    def residual(self, S):
        S = np.asarray(S)
        return float(np.linalg.norm(
            S + self.A.conj().T @ np.linalg.solve(S, self.A) - self._eye))


def _sym_power(S, p):
    """Fractional power of a symmetric positive definite matrix via eigh."""
    w, V = np.linalg.eigh((S + S.conj().T) / 2.0)
    if np.any(w <= 0):
        raise np.linalg.LinAlgError("matrix power of a non positive definite matrix")
    return (V * w ** p) @ V.conj().T


class QpowIterationSource(_Source):
    """Inversion-free iterates for ``X + A^H X^-q A = Q`` with ``0 < q <= 1``.

    An auxiliary sequence tracks the approximate inverse:
    ``S_n = Q - A^H Y_n^q A`` and ``Y_{n+1} = 2 Y_n - Y_n S_n Y_n`` with
    ``Y_0 = (gamma Q)^-1``.  ``gamma`` tunes the starting point; values just
    below one work for well-scaled data.
    """

    def __init__(self, A, Q=None, q=0.5, gamma=0.9985):
        self.A = np.asarray(A, dtype=float)
        dim = self.A.shape[0]
        self.Q = np.eye(dim) if Q is None else np.asarray(Q, dtype=float)
        self.q = float(q)
        self.gamma = float(gamma)
        self._Y = np.linalg.inv(self.gamma * self.Q)

    @classmethod
    def random(cls, dim, norm=0.3, q=0.5, seed=0, gamma=0.9985):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim))
        A *= norm / np.linalg.norm(A, 2)
        return cls(A, None, q, gamma)

    def next_term(self):
        S = self.Q - self.A.conj().T @ _sym_power(self._Y, self.q) @ self.A
        self._Y = 2.0 * self._Y - self._Y @ S @ self._Y
        return S

    def residual(self, S):
        S = np.asarray(S)
        return float(np.linalg.norm(
            S + self.A.conj().T @ _sym_power(S, -self.q) @ self.A - self.Q))


def spectral_radius_estimate(A, iters=100, seed=0):
    """Power-iteration estimate of the spectral radius of A."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[0])
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(iters):
        y = A @ x
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        rho = ny
        x = y / ny
    return float(rho)


class SmithSource(FixedPointIteration):
    """Iterates ``S_{n+1} = F F^T + A S_n A^T`` for the Stein equation.

    Starting from zero the iterates climb monotonically to the solution of
    ``X - A X A^T = F F^T``; convergence is geometric with ratio around the
    squared spectral radius of A, so a radius near one makes a slow, very
    accelerable sequence.  Requires (and checks, by power iteration) spectral
    radius below one.
    """

    def __init__(self, A, F):
        self.A = np.asarray(A, dtype=float)
        self.F = np.asarray(F, dtype=float)
        if self.F.ndim == 1:
            self.F = self.F[:, None]
        rho = spectral_radius_estimate(self.A)
        if rho >= 1.0:
            raise ValueError(f"spectral radius estimate {rho:.3f} >= 1; iteration diverges")
        self._G = self.F @ self.F.T
        self.x0 = np.zeros_like(self.A)

    @classmethod
    def random(cls, dim, rho=0.9, n_rhs=3, seed=0, decay=0.7):
        """Synthetic instance with a real, well-separated spectrum.

        A is a random orthogonal conjugation of the geometric eigenvalue
        ladder ``rho * decay**i``.  A raw random matrix would generically
        put a complex pair on the spectral edge, which smears the leading
        error mode of the iteration across three equal-modulus components;
        the ladder keeps the mode structure clean and separable.
        """
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rho * decay ** np.arange(dim)
        A = Q @ np.diag(eigs) @ Q.T
        F = rng.standard_normal((dim, n_rhs))
        return cls(A, F)

    def step(self, S):
        return self._G + self.A @ S @ self.A.T

    def limit(self):
        """The solution of ``X - A X A^T = F F^T`` by Smith's squared
        iteration: from ``X = F F^T`` and ``A_0 = A``, each step
        ``X <- X + A_k X A_k^T``, ``A_{k+1} = A_k^2`` doubles the count of
        iterates X sums.  It stops once ``max|A_k| < eps``, or after 64
        squarings, which a NaN ``A`` would otherwise never end.  It is not
        bit-identical to the Kronecker solve of the vectorized system: on
        random cases (dims 1-12, spectral radius up to 0.999) the two agree
        to within 1e-12 of ``max|X|``.
        """
        X, Ak = self._G, self.A
        for _ in range(64):
            X = X + Ak @ X @ Ak.T
            Ak = Ak @ Ak
            if np.max(np.abs(Ak)) < _EPS:
                break
        return X

    def residual(self, S):
        S = np.asarray(S)
        return float(np.linalg.norm(S - self.A @ S @ self.A.T - self._G))
