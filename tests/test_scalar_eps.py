"""Scalar epsilon algorithm: rhombus rule, detection, cross-rule repairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsaccel import Functional, ScalarEpsTable, as_element
from epsaccel.oracle import shanks_scalar
from epsaccel.sequences import KernelRecurrence

LN2_SUMS = [1.0, 0.5, 5.0 / 6.0, 7.0 / 12.0, 47.0 / 60.0]


def smooth_sequence(seed, count):
    rng = np.random.default_rng(seed)
    rates = np.array([0.75, 0.45, 0.2]) + rng.uniform(-0.05, 0.05, 3)
    limit = rng.uniform(0.5, 1.5)
    amps = rng.uniform(0.5, 1.5, 3)
    return [float(limit + sum(a * r**n for a, r in zip(amps, rates)))
            for n in range(count)]


def kernel_shadow(p, n_terms=11, dim=50, parity="both", rules=True):
    """Scalar shadow of the adversarial order-5 recurrence."""
    src = KernelRecurrence(dim, "vector", seed=0)
    f = Functional.dot(np.ones(dim))
    tab = ScalarEpsTable(max_col=10, p_threshold=p, particular_rules=rules,
                         singular_parity=parity)
    for _ in range(n_terms):
        tab.append(float(f(as_element(src.next_term()))))
    return tab


def test_ln2_column_two():
    tab = ScalarEpsTable(max_col=2)
    tab.extend(LN2_SUMS[:3])
    assert tab.entry(2, 0) == pytest.approx(0.7, abs=1e-15)


def test_order_one_kernel_is_exact():
    tab = ScalarEpsTable(max_col=2)
    tab.extend([1.0 + 2.0 ** -n for n in range(5)])
    assert tab.entry(2, 0) == 1.0
    assert tab.entry(2, 2) == 1.0


def test_constant_sequence_degenerates_gracefully():
    c = 3.25
    tab = ScalarEpsTable(max_col=4)
    tab.extend([c] * 6)
    assert [v for _, v in tab.even_column(0)] == [c] * 6
    assert not np.isfinite(tab.entry(1, 0))
    assert tab.events  # zero denominators are detected, not silently inverted


def test_even_column_zero_is_input():
    tab = ScalarEpsTable(max_col=4)
    seq = smooth_sequence(0, 8)
    tab.extend(seq)
    assert [v for _, v in tab.even_column(0)] == pytest.approx(seq)


def test_geometric_kernel_column():
    limit = 2.0
    tab = ScalarEpsTable(max_col=2)
    tab.extend([limit + 0.6 ** n for n in range(8)])
    vals = [v for _, v in tab.even_column(1)]
    assert vals == pytest.approx([limit] * len(vals), abs=1e-12)


def test_append_returns_new_diagonal_entries():
    tab = ScalarEpsTable(max_col=4)
    tab.append(1.0)
    out = tab.append(0.5)
    ks = [k for k, _, _ in out]
    ns = [n for _, n, _ in out]
    assert ks == [0, 1] and ns == [1, 0]
    assert tab.n_terms == 2


def test_diagonal_growth_invariant():
    tab = ScalarEpsTable(max_col=6)
    seq = smooth_sequence(1, 10)
    for i, s in enumerate(seq):
        tab.append(s)
        d = tab.last_diagonal
        assert len(d) <= i + 2  # epsilon_{-1} slot included
        for k, n in [(k, i - k) for k in range(i + 1)]:
            if tab.entry(k, n) is not None:
                assert k <= min(6, i)


def test_entry_boundaries():
    tab = ScalarEpsTable(max_col=4)
    tab.extend(LN2_SUMS)
    assert tab.entry(-1, 3) == 0.0
    assert tab.entry(6, 0) is None
    assert tab.entry(0, 99) is None


def test_matches_linear_solve_oracle():
    seq = smooth_sequence(7, 14)
    tab = ScalarEpsTable(max_col=8)
    tab.extend(seq)
    for k in range(1, 5):
        for n in range(5):
            ref = shanks_scalar(seq, n, k)
            got = tab.entry(2 * k, n)
            assert got == pytest.approx(ref, rel=1e-8), (k, n)


def test_sigma_profile_on_order_five_kernel():
    # detection ratios sit near 5e-12 and 1e-11, so the threshold 10^-p
    # flips the repairs off between p=11 and p=12
    for p, want in ((7, 2), (10, 2), (11, 2), (12, 0), (13, 0)):
        tab = kernel_shadow(p)
        assert tab.sigma == want, p


def test_cross_rule_sites_are_flagged():
    tab = kernel_shadow(10)
    flagged = {(k, n) for k in range(11) for n in range(11) if tab.flag(k, n)}
    assert flagged == {(3, 0), (3, 2)}
    assert tab.flag(3, 0) == "cross-rule"
    assert all(ev.ratio < 1e-10 for ev in tab.events if ev.treated)


def test_sigma_is_monotone_across_appends():
    src = KernelRecurrence(50, "vector", seed=0)
    f = Functional.dot(np.ones(50))
    tab = ScalarEpsTable(max_col=10, p_threshold=10)
    seen = [0]
    for _ in range(11):
        tab.append(float(f(as_element(src.next_term()))))
        assert tab.sigma >= seen[-1]
        seen.append(tab.sigma)
    assert seen[-1] == 2


def test_parity_restriction():
    assert kernel_shadow(10, parity="even").sigma == 2
    assert kernel_shadow(10, parity="odd").sigma == 0
    with pytest.raises(ValueError):
        ScalarEpsTable(singular_parity="sideways")


def test_rules_disabled_means_no_repairs():
    tab = kernel_shadow(10, rules=False)
    assert tab.sigma == 0
    assert not any(tab.flag(k, n) for k in range(11) for n in range(11))


def test_repair_beats_no_repair_on_kernel():
    repaired = abs(kernel_shadow(10).entry(10, 0))
    plain = abs(kernel_shadow(10, rules=False).entry(10, 0))
    assert repaired < 1e-6
    assert plain > 1e-2


def test_diagonal_sum_identity_base_case():
    seq = smooth_sequence(3, 8)
    tab = ScalarEpsTable(max_col=6)
    tab.extend(seq)
    for n in range(4):
        ev, od = tab.diagonal_sum_identities(0, n)
        assert ev == pytest.approx(seq[n])
        assert od == pytest.approx(1.0 / (seq[n + 1] - seq[n]))


def test_diagonal_sum_identity_ln2():
    tab = ScalarEpsTable(max_col=4)
    tab.extend(LN2_SUMS)
    ev, _ = tab.diagonal_sum_identities(1, 0)
    assert ev == pytest.approx(0.7, abs=1e-14)


def test_diagonal_sum_identities_match_entries():
    seq = smooth_sequence(11, 14)
    tab = ScalarEpsTable(max_col=8)
    tab.extend(seq)
    for k in range(3):
        for n in range(3):
            ev, od = tab.diagonal_sum_identities(k, n)
            assert ev == pytest.approx(tab.entry(2 * k, n), rel=1e-10)
            assert od == pytest.approx(tab.entry(2 * k + 1, n), rel=1e-10)


def test_diagonal_sum_identities_missing_entries():
    tab = ScalarEpsTable(max_col=4)
    tab.extend(LN2_SUMS[:3])
    with pytest.raises(LookupError):
        tab.diagonal_sum_identities(2, 5)


class _UnscannableLog(list):
    def __iter__(self):
        raise AssertionError("the event log was scanned")


def test_repairs_do_not_scan_the_event_log():
    # a stream converged in float64 repairs on almost every term; scanning
    # the whole log on each repair made such streams quadratic
    tab = ScalarEpsTable(max_col=10)
    tab.events = _UnscannableLog()
    n_terms = 400
    for n in range(n_terms):
        tab.append(1.0 + 0.5**n + 0.3**n + 0.8**n)
    events = [tab.events[i] for i in range(len(tab.events))]
    treated = [ev for ev in events if ev.treated]
    assert tab.sigma == len(treated) > n_terms // 2


@st.composite
def tied_geometric_streams(draw):
    """Geometric streams with some terms replaced by near-copies of the last."""
    n_terms = draw(st.integers(6, 40))
    limit = draw(st.floats(-2.0, 2.0))
    modes = draw(st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(-0.95, 0.95)),
                          min_size=1, max_size=4))
    terms = [limit + sum(a * r**n for a, r in modes) for n in range(n_terms)]
    ties = draw(st.lists(st.tuples(st.integers(1, n_terms - 1),
                                   st.sampled_from([0.0, 1e-15, 1e-13, 1e-11])),
                         max_size=4))
    for i, rel in ties:
        terms[i] = terms[i - 1] * (1.0 + rel)
    return terms


@settings(max_examples=150, deadline=None)
@given(terms=tied_geometric_streams(), max_col=st.sampled_from([4, 6, 10, None]),
       p=st.sampled_from([8, 10, 12]), parity=st.sampled_from(["both", "even", "odd"]))
def test_event_bookkeeping(terms, max_col, p, parity):
    tab = ScalarEpsTable(max_col=max_col, p_threshold=p, singular_parity=parity)
    tab.extend(terms)
    fired = {(ev.k, ev.n) for ev in tab.events}
    assert len(fired) == len(tab.events)  # each pair is tested once
    for ev in tab.events:
        if ev.treated:
            assert ev.victim == (ev.k + 3, ev.n - 1)
            assert tab.flag(*ev.victim) == "cross-rule"
        else:
            assert ev.victim is None
        # suppressed exactly when the pair two columns west, one row down,
        # fired too (the other detection of the same block)
        assert ev.suppressed == (ev.k >= 2 and (ev.k - 2, ev.n + 1) in fired)
        assert not (ev.suppressed and ev.treated)
    assert tab.sigma == sum(ev.treated for ev in tab.events)
