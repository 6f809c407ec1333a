"""Linear-solve transformation oracle."""

import numpy as np
import pytest

from epsaccel import Functional
from epsaccel.oracle import (
    BreakdownError,
    shanks_scalar,
    shanks_scalar_determinantal,
    shanks_topo,
    solve_coefficients,
    solve_tolerance,
)
from epsaccel.sequences import KernelRecurrence

LN2_SUMS = [1.0, 0.5, 5.0 / 6.0, 7.0 / 12.0, 47.0 / 60.0]


def smooth_terms(seed, dim, count):
    rng = np.random.default_rng(seed)
    rates = np.array([0.75, 0.45, 0.2]) + rng.uniform(-0.05, 0.05, 3)
    limit = rng.uniform(0.5, 1.5, dim)
    us = [rng.uniform(0.5, 1.5, dim) for _ in rates]
    return [limit + sum((r**n) * u for r, u in zip(rates, us))
            for n in range(count)]


def test_ln2_coefficients():
    co = solve_coefficients(LN2_SUMS, 0, 1)
    assert co.a == pytest.approx([0.4, 0.6])
    assert co.k == 1 and co.n == 0 and co.cond >= 1.0
    assert shanks_scalar(LN2_SUMS, 0, 1) == pytest.approx(0.7, abs=1e-15)


def test_order_zero_is_identity():
    co = solve_coefficients(LN2_SUMS, 2, 0)
    assert co.a == pytest.approx([1.0])
    assert shanks_scalar(LN2_SUMS, 2, 0) == LN2_SUMS[2]


def test_coefficients_sum_to_one():
    s = [float(x) for x in np.cumsum(np.random.default_rng(0).random(12))]
    for k in range(1, 4):
        assert solve_coefficients(s, 1, k).a.sum() == pytest.approx(1.0)


def test_recurrence_coefficients_recovered():
    # shadow of S_n = 3S_{n-1} - S_{n-2} + 2S_{n-3} + S_{n-4} - 5S_{n-5}
    src = KernelRecurrence(50, "vector", seed=0)
    f = Functional.dot(np.ones(50))
    s = [float(f(src.next_term())) for _ in range(12)]
    co = solve_coefficients(s, 0, 5)
    assert co.a == pytest.approx([5.0, -1.0, -2.0, 1.0, -3.0, 1.0], abs=1e-6)


def test_annihilation_residuals():
    # a_0 ds_{n+j} + ... + a_k ds_{n+j+k} = 0 for j = 0..k-1
    s = smooth_terms(5, 1, 14)
    s = [float(v[0]) for v in s]
    ds = np.diff(s)
    for k in (1, 2, 3):
        for n in (0, 2):
            a = solve_coefficients(s, n, k).a
            scale = np.abs(ds[n : n + 2 * k]).max()
            for j in range(k):
                r = sum(a[i] * ds[n + j + i] for i in range(k + 1))
                assert abs(r) <= 1e-10 * max(scale, 1.0), (k, n, j)


def test_determinantal_agreement():
    s = [float(v[0]) for v in smooth_terms(9, 1, 12)]
    for k in (1, 2, 3):
        for n in (0, 1, 2):
            assert shanks_scalar_determinantal(s, n, k) == pytest.approx(
                shanks_scalar(s, n, k), rel=1e-9)
    with pytest.raises(ValueError):
        shanks_scalar_determinantal(s, 0, 4)


def test_first_and_second_kind_agree_for_scalars():
    # the residual constraints make the shifted combination identical
    s = [float(v[0]) for v in smooth_terms(13, 1, 12)]
    for k in (1, 2):
        for n in (0, 1):
            assert shanks_scalar(s, n, k, second_kind=True) == pytest.approx(
                shanks_scalar(s, n, k), rel=1e-10)


def test_topo_windows():
    terms = smooth_terms(2, 4, 12)
    f = Functional.dot(np.random.default_rng(3).uniform(0.5, 1.5, 4))
    s = [f(t) for t in terms]
    for k, n in ((1, 0), (2, 1)):
        a = solve_coefficients(s, n, k).a
        first = shanks_topo(terms, f, n, k, variant="first")
        second = shanks_topo(terms, f, n, k, variant="second")
        want_first = sum((ai * terms[n + i] for i, ai in enumerate(a)),
                         np.zeros(4))
        want_second = sum((ai * terms[n + k + i] for i, ai in enumerate(a)),
                          np.zeros(4))
        assert np.max(np.abs(first - want_first)) < 1e-12
        assert np.max(np.abs(second - want_second)) < 1e-12
    with pytest.raises(ValueError):
        shanks_topo(terms, f, 0, 1, variant="third")


def test_topo_reduces_to_scalar_in_dim_one():
    s = [float(v[0]) for v in smooth_terms(21, 1, 10)]
    f = Functional.dot(np.ones(1))
    for k, n in ((1, 0), (2, 2)):
        e = shanks_topo([np.array([x]) for x in s], f, n, k)
        assert float(e[0]) == pytest.approx(shanks_scalar(s, n, k), rel=1e-12)


def test_short_input_raises():
    with pytest.raises(ValueError):
        solve_coefficients([1.0, 2.0, 3.0], 0, 2)


def test_breakdown_reports_conditioning():
    with pytest.raises(BreakdownError) as err:
        solve_coefficients([2.0] * 8, 0, 2)
    assert "cond estimate" in str(err.value)
    assert err.value.cond > 1e12 or not np.isfinite(err.value.cond)


def test_solve_tolerance_scaling():
    assert solve_tolerance(1.0) == 1e-12
    assert solve_tolerance(1e4) == pytest.approx(1e-8)
    assert solve_tolerance(1e12) == 1e-6
    assert solve_tolerance(float("inf")) == 1e-6
