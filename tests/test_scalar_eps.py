"""Scalar epsilon algorithm: rhombus rule, detection, cross-rule repairs."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsaccel import Functional, Recorder, ScalarEpsTable
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
    """Recorded scalar shadow of the adversarial order-5 recurrence."""
    src = KernelRecurrence(dim, "vector", seed=0)
    f = Functional.dot(np.ones(dim))
    tab = Recorder(ScalarEpsTable(max_col=10, p_threshold=p, particular_rules=rules,
                                  singular_parity=parity))
    for _ in range(n_terms):
        tab.append(float(f(src.next_term())))
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
    tab = Recorder(ScalarEpsTable(max_col=4))
    tab.extend([c] * 6)
    assert [v for _, v in tab.even_column(0)] == [c] * 6
    assert not np.isfinite(tab.entry(1, 0))
    assert tab.events  # zero denominators are detected, not silently inverted


def test_even_column_zero_is_input():
    tab = Recorder(ScalarEpsTable(max_col=4))
    seq = smooth_sequence(0, 8)
    tab.extend(seq)
    assert [v for _, v in tab.even_column(0)] == pytest.approx(seq)


def test_geometric_kernel_column():
    limit = 2.0
    tab = Recorder(ScalarEpsTable(max_col=2))
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
    tab = Recorder(ScalarEpsTable(max_col=8))
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
        assert tab.table.sigma == want, p


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
        tab.append(float(f(src.next_term())))
        assert tab.sigma >= seen[-1]
        seen.append(tab.sigma)
    assert seen[-1] == 2


def test_parity_restriction():
    assert kernel_shadow(10, parity="even").table.sigma == 2
    assert kernel_shadow(10, parity="odd").table.sigma == 0
    with pytest.raises(ValueError):
        ScalarEpsTable(max_col=4, singular_parity="sideways")


def test_the_cap_and_the_trigger_are_numbers():
    # a cap past the stream's length computes full diagonals, and
    # particular_rules=False turns detection off: neither is spelled None
    with pytest.raises(TypeError):
        ScalarEpsTable(None)
    with pytest.raises(TypeError):
        ScalarEpsTable(4, p_threshold=None)


def test_rules_disabled_means_no_repairs():
    tab = kernel_shadow(10, rules=False)
    assert tab.table.sigma == 0
    assert not any(tab.flag(k, n) for k in range(11) for n in range(11))


def test_repair_beats_no_repair_on_kernel():
    repaired = abs(kernel_shadow(10).entry(10, 0))
    plain = abs(kernel_shadow(10, rules=False).entry(10, 0))
    assert repaired < 1e-6
    assert plain > 1e-2


def test_diagonal_sum_identity_base_case():
    seq = smooth_sequence(3, 8)
    tab = Recorder(ScalarEpsTable(max_col=6))
    tab.extend(seq)
    for n in range(4):
        ev, od = tab.diagonal_sum_identities(0, n)
        assert ev == pytest.approx(seq[n])
        assert od == pytest.approx(1.0 / (seq[n + 1] - seq[n]))


def test_diagonal_sum_identity_ln2():
    tab = Recorder(ScalarEpsTable(max_col=4))
    tab.extend(LN2_SUMS)
    ev, _ = tab.diagonal_sum_identities(1, 0)
    assert ev == pytest.approx(0.7, abs=1e-14)


def test_diagonal_sum_identities_match_entries():
    seq = smooth_sequence(11, 14)
    tab = Recorder(ScalarEpsTable(max_col=8))
    tab.extend(seq)
    for k in range(3):
        for n in range(3):
            ev, od = tab.diagonal_sum_identities(k, n)
            assert ev == pytest.approx(tab.entry(2 * k, n), rel=1e-10)
            assert od == pytest.approx(tab.entry(2 * k + 1, n), rel=1e-10)


def test_diagonal_sum_identities_missing_entries():
    tab = Recorder(ScalarEpsTable(max_col=4))
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
# a cap of 42 is past every stream's length (at most 40 terms), so no
# diagonal reaches it
@given(terms=tied_geometric_streams(), max_col=st.sampled_from([4, 6, 10, 42]),
       p=st.sampled_from([8, 10, 12]), parity=st.sampled_from(["both", "even", "odd"]))
def test_event_bookkeeping(terms, max_col, p, parity):
    tab = Recorder(ScalarEpsTable(max_col=max_col, p_threshold=p,
                                  singular_parity=parity))
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
    assert tab.table.sigma == sum(ev.treated for ev in tab.events)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_an_overflowing_difference_fires_no_event(kind):
    # finite consecutive terms whose difference overflows are as far apart
    # as numbers get: even a trigger of 1e300 must not fire on them
    terms = [(-1) ** n * (1.0 + n / 16) * 1e308 for n in range(12)]
    if kind == "complex":
        terms = [complex(x, -0.9 * x) for x in terms]
    tab = Recorder(ScalarEpsTable(max_col=1, p_threshold=-300))
    tab.extend(terms)
    assert len(tab.table.events) == 0 and tab.events == []


def test_a_trigger_that_overflows_is_a_value_error():
    # 10**308 is the largest power of ten a float holds; a p_threshold below
    # -308 is refused as a bad value, naming it, not as a bare OverflowError
    assert ScalarEpsTable(max_col=4, p_threshold=-308)._trigger == 1e308
    for p in (-309, -1000):
        with pytest.raises(ValueError, match=f"^p_threshold {p} is below -308"):
            ScalarEpsTable(max_col=4, p_threshold=p)


def test_signed_zero_difference_gives_signed_infinity():
    # 1/d at d == -0.0 is -inf, as IEEE division (and numpy's) gives it
    tab = ScalarEpsTable(max_col=4)
    tab.extend([0.0, -0.0])
    assert tab.entry(1, 0) == -np.inf
    tab = ScalarEpsTable(max_col=4)
    tab.extend([-0.0, 0.0])
    assert tab.entry(1, 0) == np.inf


def _reference_shadow(terms, max_col, p, rules, parity):
    """The table's rhombus rule, detection and cross-rule repair, written
    plainly over the whole history with numpy's scalar division and
    finiteness test for real numbers (complex ones divide in Python).

    Returns each append's ``(k, n, value)`` list, sigma, the events as
    ``(k, n, ratio, treated, suppressed, victim)`` and the flagged entries.
    A complex modulus that overflows counts as inf.
    """
    def mag(z):
        try:
            return abs(z)
        except OverflowError:
            return float("inf")

    def inv(x):
        if isinstance(x, complex):
            return complex("inf") if x == 0 else 1.0 / x
        return float(np.divide(1.0, np.float64(x)))

    diags, outs, events, flags, fired = [], [], [], set(), set()
    sigma, pending = 0, {}
    for s in terms:
        s = complex(s) if np.iscomplexobj(s) else float(s)
        N = len(diags)
        prev = diags[-1] if diags else []
        due, pending = pending, {}
        new = [s]
        top = min(N, max_col)
        for t in range(1, top + 1):
            j, n_pair = t - 1, N - t
            hi, lo = new[j], prev[j]
            sched = None
            watched = parity == "both" or (j % 2 == 0) == (parity == "even")
            if rules and watched and np.isfinite(hi) and np.isfinite(lo):
                d = mag(hi - lo)
                ratio = d / mag(lo) if lo != 0 else d
                if (ratio < 10.0 ** -p) if lo != 0 else (d < np.finfo(float).eps):
                    fired.add((j, n_pair))
                    ev = [j, n_pair, ratio, False, False, None]
                    events.append(ev)
                    if j >= 2 and (j - 2, n_pair + 1) in fired:
                        ev[4] = True
                    elif n_pair >= 1 and t < len(prev) and t + 2 <= max_col:
                        sched = {"ev": ev, "N": prev[t],
                                 "W": new[j - 1] if j >= 1 else 0.0}
                        pending[t + 2] = sched
            if t in due:
                C, Nn, S, W = due[t]["C"], due[t]["N"], new[t - 2], due[t]["W"]
                if not np.isfinite(C):
                    value = Nn + S - W
                else:
                    try:
                        psi = S / (C - S) + Nn / (C - Nn) - W / (C - W)
                        value = C * psi / (1.0 + psi)
                    except ZeroDivisionError:
                        value = float("nan")
                sigma += 1
                flags.add((t, N - t))
                due[t]["ev"][3] = True
                due[t]["ev"][5] = (t, N - t)
            else:
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    value = (prev[t - 2] if t >= 2 else 0.0) + inv(hi - lo)
            new.append(value)
            if sched is not None:
                sched["C"] = value
        diags.append(new)
        outs.append([(k, N - k, v) for k, v in enumerate(new)])
    return outs, sigma, [tuple(ev) for ev in events], flags


def _scalar_bits(v):
    """Type and bits of a number, any NaN part as the one canonical NaN: the
    sign of a NaN that CPython's float operations return depends on whether
    the interpreter has specialised the operation yet."""
    z = complex(v)
    parts = (math.nan if x != x else x for x in (z.real, z.imag))
    return type(v), struct.pack("<dd", *parts)


@st.composite
def shadow_streams(draw):
    """Geometric streams with planted exact and near ties, signed zeros,
    infinities and NaN, as floats, numpy floats or complex numbers."""
    n_terms = draw(st.integers(1, 30))
    limit = draw(st.floats(-2.0, 2.0))
    modes = draw(st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(-0.95, 0.95)),
                          min_size=1, max_size=3))
    terms = [limit + sum(a * r**n for a, r in modes) for n in range(n_terms)]
    for i, what in draw(st.lists(st.tuples(
            st.integers(0, n_terms - 1),
            st.sampled_from(["tie", "near", "zeros", "inf", "-inf", "nan"])),
            max_size=5)):
        if what == "tie" and i:
            terms[i] = terms[i - 1]
        elif what == "near" and i:
            terms[i] = terms[i - 1] * (1.0 + draw(st.sampled_from([1e-15, 1e-13, 1e-11])))
        elif what == "zeros":
            terms[i:i + 2] = [0.0, -0.0][:len(terms[i:i + 2])]
        elif what in ("inf", "-inf", "nan"):
            terms[i] = float(what)
    kind = draw(st.sampled_from(["float", "numpy", "complex", "turns-complex"]))
    if kind == "numpy":
        terms = [np.float64(s) for s in terms]
    elif kind == "complex":
        w = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        terms = [s * (1.0 + w) for s in terms]
    elif kind == "turns-complex":
        cut = draw(st.integers(0, n_terms))
        terms = terms[:cut] + [complex(s, 1e-3) for s in terms[cut:]]
    return terms


@settings(max_examples=400, deadline=None)
# column-1 entries near 1e308 in both parts, whose difference's modulus
# overflows: abs() raised OverflowError out of append
@example(terms=[0j, 7e-309 * (1 + 1j), 0j, 7e-309 * (1 + 1j), 0j], max_col=32,
         p=10, rules=True, parity="both")
# finite consecutive terms whose difference overflows: the table skips the
# pair on its difference's finiteness, the reference tests its finite terms
# and takes a ratio of inf, which never fires
@example(terms=[1e308, -1e308, 1.5e308, -1e308, 1e308, 1e308, -1.7e308], max_col=32,
         p=10, rules=True, parity="both")
# a repair whose operands are inf and NaN: its NaN's sign is CPython's choice
@example(terms=[math.nan, math.nan, 0.512438087268418, 0.5124380872684186,
                0.5124380872684186], max_col=32, p=10, rules=True, parity="both")
# a cap of 32 is past every stream's length (at most 30 terms), so no
# diagonal reaches it
@given(terms=shadow_streams(), max_col=st.sampled_from([2, 4, 6, 10, 32]),
       p=st.sampled_from([7, 10, 12]), rules=st.booleans(),
       parity=st.sampled_from(["both", "even", "odd"]))
def test_sweep_matches_the_reference_rhombus_bit_for_bit(terms, max_col, p, rules,
                                                         parity):
    # the sweep runs on Python numbers (IEEE 1/d, a signed infinity at zero,
    # math.isfinite); the reference uses numpy's division and isfinite
    tab = Recorder(ScalarEpsTable(max_col=max_col, p_threshold=p,
                                  particular_rules=rules, singular_parity=parity))
    outs, sigma, events, flags = _reference_shadow(terms, max_col, p, rules, parity)
    for s, want in zip(terms, outs):
        got = tab.append(s)
        assert [(k, n) for k, n, _ in got] == [(k, n) for k, n, _ in want]
        assert ([_scalar_bits(v) for _, _, v in got]
                == [_scalar_bits(v) for _, _, v in want])
    assert tab.table.sigma == sigma
    assert [(ev.k, ev.n, struct.pack("<d", ev.ratio), ev.treated, ev.suppressed,
             ev.victim) for ev in tab.events] == [
        (k, n, struct.pack("<d", r), tr, su, vi) for k, n, r, tr, su, vi in events]
    size = len(terms) + 1
    assert {(k, n) for k in range(size) for n in range(size) if tab.flag(k, n)} == flags
