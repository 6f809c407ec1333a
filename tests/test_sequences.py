"""Sequence generators and their self-checks."""

import numpy as np
import pytest

from epsaccel import sequences as seqs


def test_kernel_recurrence_satisfies_relation():
    src = seqs.KernelRecurrence(5, "vector", seed=42)
    S = src.take(8)
    for n in range(5, 8):
        lhs = S[n]
        rhs = 3 * S[n - 1] - S[n - 2] + 2 * S[n - 3] + S[n - 4] - 5 * S[n - 5]
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)
    assert np.array_equal(np.asarray(src.limit()), np.zeros(5))


def test_kernel_recurrence_adversarial_seeding():
    src = seqs.KernelRecurrence(4, "vector", seed=0, perturbation=1e-11)
    S = src.take(5)
    # term 3 repeats term 0, terms 2 and 4 are tiny perturbations
    assert np.array_equal(S[3], S[0])
    assert np.array_equal(S[1], np.ones(4))
    assert 0 < np.abs(S[2] - S[1]).max() < 1e-9
    assert 0 < np.abs(S[4] - S[3]).max() < 1e-9


def test_kernel_recurrence_matrix_space():
    src = seqs.KernelRecurrence(6, "matrix", seed=1)
    t = src.next_term()
    assert t.shape == (6, 6)
    with pytest.raises(ValueError):
        seqs.KernelRecurrence(4, "tensor")


def test_geometric_modes_single():
    e1 = np.zeros(3)
    e1[0] = 1.0
    src = seqs.GeometricModes(np.zeros(3), [1.0], [0.5], [e1])
    S = src.take(5)
    for n, t in enumerate(S):
        assert np.allclose(t, 2.0 ** -n * e1)
    alt = seqs.GeometricModes(np.zeros(3), [1.0], [0.5], [e1], alternating=True)
    A = alt.take(4)
    assert np.allclose(A[1], -0.5 * e1) and np.allclose(A[2], 0.25 * e1)


def test_geometric_modes_random_rates():
    a = seqs.GeometricModes.random(7, [0.9, 0.5], seed=3).take(6)
    b = seqs.GeometricModes.random(7, [0.9, 0.5], seed=3).take(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_logarithmic_modes_formula():
    u = np.array([1.0, 2.0])
    src = seqs.LogarithmicModes(np.zeros(2), [0.5, 0.25], [u, 3 * u], b=2.0)
    S = src.take(3)
    for n, t in enumerate(S):
        want = 0.5 * u / (n + 2.0) + 0.25 * 3 * u / (n + 2.0) ** 2
        assert np.allclose(t, want)


def test_verify_totally_monotonic_scalars():
    assert seqs.verify_totally_monotonic([2.0 ** -n for n in range(12)])
    assert not seqs.verify_totally_monotonic(
        [(-1) ** n * 2.0 ** -n for n in range(12)])


def _flip(terms):
    """``(-1)^n S_n``: a totally oscillating stream made monotonic."""
    return [t if i % 2 == 0 else -t for i, t in enumerate(terms)]


def test_tm_source_is_totally_monotonic():
    # differences of order k <= 4 at n <= 8 read the first 8 + 4 + 1 terms
    src = seqs.TotallyMonotonicSource(5, [0.85, 0.4, 0.15], seed=2)
    assert seqs.verify_totally_monotonic(src.take(13), max_order=4)
    prop = seqs.TotallyMonotonicSource.proportional(5, [0.85, 0.4, 0.15],
                                                    seed=2, offset=0.3)
    assert seqs.verify_totally_monotonic(prop.take(13), max_order=4)
    with pytest.raises(ValueError):
        seqs.TotallyMonotonicSource.proportional(5, [0.5], offset=-1.0)


def test_to_source_is_totally_oscillating():
    src = seqs.TotallyOscillatingSource(5, [0.8, 0.35], seed=3)
    assert seqs.verify_totally_monotonic(_flip(src.take(13)), max_order=4)
    prop = seqs.TotallyOscillatingSource.proportional(5, [0.8, 0.35], seed=3)
    t = prop.take(13)
    assert seqs.verify_totally_monotonic(_flip(t), max_order=4)
    # oscillating differences alternate entrywise
    assert np.all((t[1] - t[0]) * (t[2] - t[1]) <= 0)


def test_parter_matrix_values():
    P = seqs.parter_matrix(3)
    assert P.shape == (3, 3)
    assert P[0, 0] == pytest.approx(2.0)         # 1 / 0.5
    assert P[2, 0] == pytest.approx(1.0 / 2.5)   # 1 / (2 - 0 + 0.5)


def test_kaczmarz_error_monotone_and_limit():
    src = seqs.KaczmarzSweeps.parter(30)
    sol = np.asarray(src.limit())
    assert np.allclose(sol, np.ones(30))
    terms = src.take(25)
    # each row projection is orthogonal, so the 2-norm error cannot grow
    errs = [np.linalg.norm(t - sol) for t in terms]
    assert all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]
    assert src.residual(terms[-1]) < src.residual(terms[0])


def test_kaczmarz_identity_converges_in_one_sweep():
    A = np.eye(4)
    b = np.arange(1.0, 5.0)
    src = seqs.KaczmarzSweeps(A, b)
    t0 = src.next_term()
    t1 = src.next_term()
    assert np.allclose(t0, np.zeros(4))
    assert np.allclose(t1, b)


@pytest.mark.parametrize("make", [
    lambda: seqs.KaczmarzSweeps.parter(12),
    lambda: seqs.NsIterationSource.random(8, seed=1),
    lambda: seqs.SmithSource.random(8, seed=1),
], ids=["kaczmarz", "ns", "smith"])
def test_fixed_point_iteration_contract(make):
    src = make()
    assert isinstance(src, seqs.FixedPointIteration)
    assert "next_term" not in type(src).__dict__
    terms = src.take(6)
    # term 0 is a copy of the start, not the start itself
    assert np.array_equal(terms[0], src.x0)
    assert not np.shares_memory(terms[0], src.x0)
    kept = [t.copy() for t in terms]
    for prev, term in zip(terms, terms[1:]):
        # each term is the map of the one before, bit for bit, and the map
        # leaves its argument as it was
        before = prev.copy()
        assert np.array_equal(src.step(prev), term)
        assert np.array_equal(prev, before)
    # the terms the caller keeps do not change as the source advances
    src.take(4)
    assert all(np.array_equal(t, k) for t, k in zip(terms, kept))


def test_ns_iteration_residual_drops():
    src = seqs.NsIterationSource.random(12, seed=0)
    terms = src.take(8)
    assert src.residual(terms[-1]) < 1e-3 * src.residual(terms[0])


def test_qpow_iteration_residual_drops():
    src = seqs.QpowIterationSource.random(12, seed=0)
    terms = src.take(10)
    assert src.residual(terms[-1]) < 1e-2 * src.residual(terms[0])


def test_smith_one_step_recursion():
    src = seqs.SmithSource.random(8, rho=0.8, seed=4)
    S = src.take(6)
    A = src.A
    for n in range(2, 6):
        lhs = S[n] - S[n - 1]
        rhs = A @ (S[n - 1] - S[n - 2]) @ A.T
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_smith_zero_matrix_fixed_point():
    F = np.array([[1.0], [2.0]])
    src = seqs.SmithSource(np.zeros((2, 2)), F)
    S = src.take(4)
    for t in S[1:]:
        assert np.allclose(t, F @ F.T)


def test_smith_limit_solves_equation():
    src = seqs.SmithSource.random(10, rho=0.9, seed=0)
    X = np.asarray(src.limit())
    resid = np.linalg.norm(X - src.A @ X @ src.A.T - src.F @ src.F.T)
    assert resid <= 1e-12 * max(np.linalg.norm(X), 1.0)
    assert src.residual(X) <= 1e-12 * max(np.linalg.norm(X), 1.0)


def test_smith_limit_matches_the_kronecker_solve():
    # the squared iteration is not bit-identical to the vectorized solve
    # (I - A (x) A) vec X = vec(F F^T); they agree within 1e-11 of max|X|,
    # for symmetric A and for non-symmetric A of spectral norm below one
    rng = np.random.default_rng(17)
    cases = [seqs.SmithSource.random(d, rho=rho, seed=d)
             for d in (1, 2, 5, 12) for rho in (0.5, 0.9, 0.999)]
    for d in (1, 3, 8):
        A = rng.standard_normal((d, d))
        cases.append(seqs.SmithSource(0.95 * A / np.linalg.norm(A, 2),
                                      rng.standard_normal((d, 2))))
    for src in cases:
        d = src.A.shape[0]
        M = np.eye(d * d) - np.kron(src.A, src.A)
        want = np.linalg.solve(M, (src.F @ src.F.T).reshape(-1)).reshape(d, d)
        got = src.limit()
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_smith_limit_of_a_nan_matrix_ends():
    # the constructor refuses a NaN A, so the NaN is set after it
    src = seqs.SmithSource(np.zeros((2, 2)), np.ones(2))
    src.A = np.full((2, 2), np.nan)
    assert np.isnan(src.limit()).all()


def test_smith_rejects_a_divergent_or_non_finite_matrix():
    # non-normal, with the eigenvalue pair +-1.01i: power iteration never
    # settles on it (it read 0.678), and the iterates reach 6.4e3 by term 200
    with pytest.raises(ValueError, match="spectral radius 1.010 >= 1"):
        seqs.SmithSource(1.01 * np.array([[0, 2.0], [-0.5, 0]]), np.ones(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            seqs.SmithSource(np.full((2, 2), bad), np.ones(2))
    # an empty A has no eigenvalue to bound: its iterates stay empty
    assert seqs.SmithSource.random(0).take(2)[1].shape == (0, 0)


def test_same_seed_same_stream():
    for make in (lambda: seqs.KernelRecurrence(6, seed=3),
                 lambda: seqs.TotallyMonotonicSource(4, [0.6, 0.2], seed=1),
                 lambda: seqs.KaczmarzSweeps.parter(10),
                 lambda: seqs.SmithSource.random(6, seed=2)):
        a = make().take(5)
        b = make().take(5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
