"""Simplified and full topological epsilon tables."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsaccel import (
    DimensionMismatchError,
    Functional,
    Recorder,
    ScalarEpsTable,
    TeaTable,
    TopoEpsTable,
    ratio_series,
    stability_margin,
)
from epsaccel.harness import fit_geometric_rate
from epsaccel.oracle import shanks_topo, solve_tolerance
from epsaccel.sequences import GeometricModes, KernelRecurrence, LogarithmicModes
from epsaccel.topo_eps import _OFFSETS
from epsaccel.vectorspace import BLOCK

LN2_SUMS = [1.0, 0.5, 5.0 / 6.0, 7.0 / 12.0, 47.0 / 60.0,
            0.6166666666666667, 0.7595238095238095]


def _norm(x):
    return float(np.max(np.abs(x)))


def smooth_terms(seed, dim, count):
    rng = np.random.default_rng(seed)
    rates = np.array([0.75, 0.45, 0.2]) + rng.uniform(-0.05, 0.05, 3)
    limit = rng.uniform(0.5, 1.5, dim)
    us = [rng.uniform(0.5, 1.5, dim) for _ in rates]
    return [limit + sum((r**n) * u for r, u in zip(rates, us))
            for n in range(count)], limit


def two_mode_terms(count, dim=10, seed=3):
    src = GeometricModes.random(dim, [0.9, 0.5], seed=seed)
    terms = [src.next_term() for _ in range(count)]
    return terms, np.asarray(src.limit())


def test_forms_are_equivalent():
    terms, _ = smooth_terms(0, 5, 12)
    f = Functional.dot(np.random.default_rng(1).uniform(0.5, 1.5, 5))
    for variant in ("stea1", "stea2"):
        ref = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=1))
        ref.extend(terms)
        for form in (2, 3, 4):
            tab = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=form))
            tab.extend(terms)
            for k in range(1, 4):
                for n in range(4):
                    a = ref.entry(2 * k, n)
                    b = tab.entry(2 * k, n)
                    if a is None or b is None:
                        continue
                    rel = _norm(a - b) / max(_norm(a), 1e-30)
                    assert rel < 1e-8, (variant, form, k, n)


def test_dim_one_reduces_to_scalar_table():
    st = Recorder(ScalarEpsTable(max_col=4))
    st.extend(LN2_SUMS)
    f = Functional.dot(np.ones(1))
    tab = Recorder(TopoEpsTable(f, max_k=2, variant="stea2", form=2))
    tab.extend([np.array([x]) for x in LN2_SUMS])
    for k in range(3):
        for n in range(7 - 2 * k):
            got = tab.entry(2 * k, n)
            want = st.entry(2 * k, n)
            if got is None or want is None or not np.isfinite(want):
                continue
            assert float(got[0]) == pytest.approx(want, rel=1e-12)


def test_matches_oracle_both_variants():
    terms, _ = smooth_terms(4, 4, 12)
    f = Functional.dot(np.random.default_rng(5).uniform(0.5, 1.5, 4))
    s = [f(t) for t in terms]
    for variant, window in (("stea1", "first"), ("stea2", "second")):
        tab = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=3))
        tab.extend(terms)
        for k in range(1, 4):
            for n in range(4):
                e = tab.entry(2 * k, n)
                if e is None or not np.isfinite(e).all():
                    continue
                ref = shanks_topo(terms, f, n, k, variant=window)
                rel = _norm(e - ref) / max(_norm(ref), 1e-30)
                assert rel < 1e-7, (variant, k, n)


def test_full_tables_match_simplified():
    terms, _ = smooth_terms(8, 4, 12)
    f = Functional.dot(np.random.default_rng(9).uniform(0.5, 1.5, 4))
    pairs = (("tea1", "stea1"), ("tea2", "stea2"))
    for full_variant, simple_variant in pairs:
        full = Recorder(TeaTable(f, max_k=3, variant=full_variant))
        full.extend(terms)
        simple = Recorder(TopoEpsTable(f, max_k=3, variant=simple_variant, form=3))
        simple.extend(terms)
        for k in range(1, 4):
            for n in range(4):
                # every entry is formed, the growing start's included
                a = full.entry(2 * k, n)
                b = simple.entry(2 * k, n)
                assert a is not None and b is not None, (full_variant, k, n)
                rel = _norm(a - b) / max(_norm(a), 1e-30)
                assert rel < 1e-8, (full_variant, k, n)


def test_shadow_duality():
    # the functional of every even entry equals the scalar table entry
    terms, _ = smooth_terms(12, 5, 14)
    f = Functional.dot(np.random.default_rng(13).uniform(0.5, 1.5, 5))
    st = Recorder(ScalarEpsTable(max_col=8))
    st.extend([f(t) for t in terms])
    for variant in ("stea1", "stea2"):
        tab = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=3))
        tab.extend(terms)
        for k in range(4):
            for n in range(4):
                e = tab.entry(2 * k, n)
                if e is None or not np.isfinite(e).all():
                    continue
                assert f(e) == pytest.approx(st.entry(2 * k, n), rel=1e-10)


def test_kernel_annihilation_with_repairs():
    src = KernelRecurrence(20, "vector", seed=1)
    f = Functional.dot(np.ones(20))
    tab = TopoEpsTable(f, max_k=5, variant="stea2", form=3, p_threshold=10)
    tab.extend([src.next_term() for _ in range(11)])
    assert tab.sigma == 2
    e = tab.entry(10, 0)
    assert e is not None and _norm(e) <= 1e-8


def test_kernel_annihilation_with_repairs_first_kind():
    # both planted ties sit in column 0, so the column-4 updates across them
    # use the exact column-2 difference; subtracting the stored column-2
    # entries instead floors column 10 near 8e-5 in every form
    src = KernelRecurrence(20, "vector", seed=1)
    terms = [src.next_term() for _ in range(11)]
    f = Functional.dot(np.ones(20))
    ref = shanks_topo(terms, f, 0, 5, variant="first")
    assert _norm(ref) <= 1e-12
    for form in (1, 2, 3, 4):
        tab = TopoEpsTable(f, max_k=5, variant="stea1", form=form,
                           p_threshold=10)
        tab.extend(terms)
        assert tab.sigma == 2, form
        e = tab.entry(10, 0)
        assert e is not None and _norm(e) <= 1e-8, form
        assert _norm(e - ref) <= 1e-8, form


def _shadow_coefficient(rec, k, n):
    """The coefficient of entry ``(2k + 2, n)``, read from the recorded
    shadow's entries at the form's offsets."""
    offsets, combiner = _OFFSETS[(rec.table.variant, rec.table.form)]
    e = [rec.shadow.entry(2 * k + i, n + m) for i, m in offsets]
    return combiner(e[0] - e[1], e[2] - e[3])


def _plain_update(rec, k, n):
    """``a + c * (hi - lo)`` for entry ``(2k + 2, n)`` from the recorded
    entries of column 2k; None where it cannot be formed."""
    a = rec.entry(2 * k, n + 1)
    hi, lo = ((a, rec.entry(2 * k, n)) if rec.table.variant == "stea1"
              else (rec.entry(2 * k, n + 2), a))
    c = _shadow_coefficient(rec, k, n)
    if hi is None or lo is None or not np.isfinite(c):
        return None
    return a + (hi - lo) * c


def _rules_off_plain_updates(variant, dim):
    """Per form, the count of rules-off entries checked against the plain
    update, which every one must equal bit for bit."""
    src = KernelRecurrence(dim, "vector", seed=1)
    terms = [src.next_term() for _ in range(11)]
    f = Functional.dot(np.ones(dim))
    counts = []
    for form in (1, 2, 3, 4):
        tab = Recorder(TopoEpsTable(f, max_k=5, variant=variant, form=form,
                                    particular_rules=False))
        tab.extend(terms)
        checked = 0
        for k in range(5):
            for n in range(len(terms) - 2 * k - 2):
                got = tab.entry(2 * k + 2, n)
                want = _plain_update(tab, k, n)
                if got is None or want is None:
                    assert got is None
                    continue
                assert np.array_equal(got, want)
                checked += 1
        counts.append(checked)
    return counts


def test_rules_off_first_kind_is_the_plain_update():
    # with detection off every entry is base + c * (hi - lo), bit for bit,
    # above one block too
    for dim in (20, BLOCK + 1):
        assert _rules_off_plain_updates("stea1", dim) == [25] * 4, dim


def test_rules_off_second_kind_is_the_plain_update():
    # the second kind's updates write into their own base and lo, block by
    # block; every entry is still the plain update
    for dim in (20, BLOCK + 1):
        assert _rules_off_plain_updates("stea2", dim) == [25] * 4, dim


def _read_only(arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _layout_cases():
    """Read-only streams: sizes about the block, layouts, dtypes."""
    rng = np.random.default_rng(41)
    for dim in (300, 2 * BLOCK + 7):
        terms, _ = smooth_terms(40, dim, 10)
        yield f"real{dim}", _read_only(terms), Functional.dot(rng.uniform(0.5, 1.5, dim))
    terms, _ = smooth_terms(42, 150 * 150, 10)
    terms = [np.asfortranarray(t.reshape(150, 150)) for t in terms]
    assert not terms[0].flags.c_contiguous
    yield "fortran", _read_only(terms), Functional.trace_weighted(rng.random((150, 150)))
    dim = BLOCK + 1
    re, _ = smooth_terms(43, dim, 10)
    im, _ = smooth_terms(44, dim, 10)
    y = rng.uniform(0.5, 1.5, dim) + 1j * rng.uniform(-0.5, 0.5, dim)
    yield "complex", _read_only([a + 1j * b for a, b in zip(re, im)]), Functional.dot(y)
    # real terms, complex coefficients: results cannot go into real buffers
    yield "complex-y", _read_only(re), Functional.dot(y)
    yield "0-d", _read_only([t[0].copy() for t in re]), Functional.dot(np.asarray(1.3))
    # a stream that turns complex: real and complex updates mix
    turns = re[:6] + [a + 1j * b for a, b in zip(re[6:], im[6:])]
    yield "turns-complex", _read_only(turns), Functional.dot(y.real)


def _appended(tab, terms):
    """Copies of every entry each append returned, keyed by position."""
    got = {}
    for S in terms:
        for col, n, e in tab.append(S):
            got[(col, n)] = e.copy()
    return got


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_updates_match_the_plain_update_for_any_layout_and_dtype():
    for label, terms, f in _layout_cases():
        for variant in ("stea1", "stea2"):
            for form in (1, 2, 3, 4):
                tab = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=form,
                                            particular_rules=False))
                got = _appended(tab, terms)
                checked = 0
                for (col, n), value in got.items():
                    assert _same_bits(value, tab.entry(col, n)), (label, variant, col, n)
                    if col == 0:
                        continue
                    want = _plain_update(tab, col // 2 - 1, n)
                    assert _same_bits(value, want), (label, variant, form, col, n)
                    checked += 1
                assert checked >= 12, (label, variant, form)
        for variant in ("tea1", "tea2"):
            tab = Recorder(TeaTable(f, max_k=3, variant=variant))
            got = _appended(tab, terms)
            checked = 0
            for (col, n), value in got.items():
                assert _same_bits(value, tab.entry(col, n)), (label, variant, col, n)
                if col == 0:
                    continue
                base = tab.entry(col - 2, n + 1)
                if variant == "tea1":
                    diff = base - tab.entry(col - 2, n)
                else:
                    diff = tab.entry(col - 2, n + 2) - base
                duals = tab.entry(col - 1, n + 1) - tab.entry(col - 1, n)
                want = base + diff * (1.0 / (duals * f(diff)))
                assert _same_bits(value, want), (label, variant, col, n)
                checked += 1
            assert checked >= 12, (label, variant)


def _owned_streams():
    """The same 40 values per term, C-contiguous, Fortran-ordered and
    strided, with a functional that sums them."""
    terms, _ = smooth_terms(45, 40, 12)
    yield "c", terms, Functional.dot(np.ones(40))
    fortran = [np.asfortranarray(S.reshape(5, 8)) for S in terms]
    assert not fortran[0].flags.c_contiguous
    yield "fortran", fortran, Functional.trace_weighted(np.ones((5, 8)))
    strided = [np.repeat(S, 2)[::2] for S in terms]
    assert not strided[0].flags.c_contiguous
    yield "strided", strided, Functional.dot(np.ones(40))


def test_entries_are_table_storage_until_overwritten():
    # a returned entry is the table's own buffer, in the simplified and the
    # full tables alike and whatever the terms' layout: a second-kind entry
    # in column 2 or above becomes the next append's entry two columns up, a
    # first-kind one the entry two columns up of the append after that; the
    # caller's terms are never written and a Recorder's copies never change
    K = 3
    for label, terms, f in _owned_streams():
        given = [S.copy() for S in terms]
        for variant, lag, shift in (("stea1", 2, 0), ("stea2", 1, -1),
                                    ("tea1", 2, 0), ("tea2", 1, -1)):
            if variant.startswith("tea"):
                tab = Recorder(TeaTable(f, max_k=K, variant=variant))
            else:
                tab = Recorder(TopoEpsTable(f, max_k=K, variant=variant, form=3,
                                            particular_rules=False))
            history, copies = [], {}
            for S in terms:
                new = tab.append(S)
                history.append({(col, n): e for col, n, e in new})
                copies.update({(col, n): e.copy() for col, n, e in new})
            reused = 0
            for i in range(len(history) - lag):
                for (col, n), e in history[i].items():
                    if col < 2 or col >= 2 * K:
                        continue
                    later = history[i + lag].get((col + 2, n + shift))
                    if later is None:
                        continue
                    assert later is e, (label, variant, col, n)
                    assert not _same_bits(e, copies[(col, n)])
                    reused += 1
            assert reused >= 10, (label, variant)
            assert all(_same_bits(S, S0)
                       for S, S0 in zip(terms, given)), (label, variant)
            for (col, n), value in copies.items():
                kept = tab.entry(col, n)
                assert _same_bits(kept, value), (label, variant, col, n)
                assert col == 0 or not any(np.shares_memory(kept, e)
                                           for h in history for e in h.values())


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_steady_state_append_allocates_at_most_one_element():
    dim = 2**17
    terms, _ = smooth_terms(46, dim, 14)
    f = Functional.dot(np.random.default_rng(47).uniform(0.5, 1.5, dim))
    slack = 16 * 1024
    for variant in ("stea1", "stea2"):
        tab = TopoEpsTable(f, max_k=5, variant=variant)
        tab.extend(terms[:-1])
        peak = _traced_peak(lambda: tab.append(terms[-1]))
        assert peak <= 8 * dim + 8 * BLOCK + slack, (variant, peak)
    assert _traced_peak(lambda: f(terms[0])) <= 8 * BLOCK + slack
    # the full tables: the column-2 entry, and the functional's blocks of
    # difference and product
    for variant in ("tea1", "tea2"):
        tab = TeaTable(f, max_k=5, variant=variant)
        tab.extend(terms[:-1])
        peak = _traced_peak(lambda: tab.append(terms[-1]))
        assert peak <= 8 * dim + 16 * BLOCK + slack, (variant, peak)
    assert _traced_peak(lambda: f(terms[1], terms[0])) <= 16 * BLOCK + slack


def test_full_tables_call_the_functional_once_per_odd_entry(monkeypatch):
    # an even step's f of a difference is an odd step's, read again: a
    # steady-state append makes K calls, not about 2K
    K = 5
    terms, _ = smooth_terms(49, 30, 3 * K)
    f = Functional.dot(np.ones(30))
    calls = []
    apply = Functional.apply

    def counted(self, *args):
        calls.append(args)
        return apply(self, *args)

    # __call__ is bound to the original apply, so both names are wrapped
    monkeypatch.setattr(Functional, "apply", counted)
    monkeypatch.setattr(Functional, "__call__", counted)
    for variant in ("tea1", "tea2"):
        tab = TeaTable(f, max_k=K, variant=variant)
        for S in terms:
            calls.clear()
            tab.append(S)
        assert len(calls) <= K + 1, (variant, len(calls))
        assert all(len(args) == 2 for args in calls), variant


def test_first_kind_tie_slots_are_audited():
    # a stream converged in float64 ties in column 0 on most terms; the
    # tie rule's kept offset and differences count in peak_slots
    rng = np.random.default_rng(3)
    L, u, w = (rng.random(4) + 0.5 for _ in range(3))
    terms = [L + 0.5**n * u + 0.3**n * w for n in range(60)]
    f = Functional.dot(np.ones(4))
    K = 5
    peaks = {}
    for rules in (True, False):
        tab = TopoEpsTable(f, max_k=K, variant="stea1", form=3,
                           particular_rules=rules)
        tab.extend(terms)
        peaks[rules] = tab.peak_slots
    assert peaks[False] == 2 * K + 2
    assert peaks[True] == 2 * K + 5


def test_rules_off_keeps_sigma_zero():
    src = KernelRecurrence(20, "vector", seed=1)
    f = Functional.dot(np.ones(20))
    tab = TopoEpsTable(f, max_k=5, variant="stea2", form=3,
                       particular_rules=False)
    tab.extend([src.next_term() for _ in range(11)])
    assert tab.sigma == 0


def test_storage_budgets():
    terms, _ = smooth_terms(17, 6, 20)
    f = Functional.dot(np.ones(6))
    K = 5
    peaks = {}
    for variant in ("stea1", "stea2"):
        tab = TopoEpsTable(f, max_k=K, variant=variant, form=3)
        tab.extend(terms)
        peaks[variant] = tab.peak_slots
    assert peaks["stea1"] == 2 * K + 2
    assert peaks["stea2"] <= K + 2
    for variant, budget in (("tea1", 3 * K + 3), ("tea2", 2 * K + 3)):
        tab = TeaTable(f, max_k=K, variant=variant)
        tab.extend(terms)
        peaks[variant] = tab.peak_total
        assert tab.peak_total <= budget, variant
        # one storage discipline: a full table holds the elements its
        # simplified kind holds
        assert tab.peak_slots == peaks["s" + variant], variant
    # first kind carries the extra half diagonal
    assert peaks["tea1"] > peaks["tea2"]


def test_exact_breakdown_marks_entries_invalid():
    # order-1 kernel makes column 2 exact, so column 4 differences vanish
    terms = [np.full(3, 1.0 + 2.0 ** -n) for n in range(9)]
    f = Functional.dot(np.ones(3))
    tab = Recorder(TopoEpsTable(f, max_k=2, variant="stea2", form=3,
                                particular_rules=False))
    tab.extend(terms)
    e = tab.entry(2, 0)
    assert _norm(e - np.ones(3)) < 1e-13
    assert tab.invalid
    best = tab.table.best()
    assert best is not None and np.isfinite(best[2]).all()


def test_full_tables_leave_unformable_entries_invalid():
    # five modes converge in float64 within a few hundred terms; from then on
    # the terms repeat exactly, the even step's coefficient 1/den is
    # infinite, and the entry cannot be formed
    rng = np.random.default_rng(8)
    src = GeometricModes(rng.random(8) + 0.5, [1.0] * 5, [0.9, 0.8, 0.7, 0.6, 0.5],
                         [rng.random(8) + 0.5 for _ in range(5)])
    terms = src.take(3000)
    f = Functional.dot(np.ones(8))
    for variant in ("tea1", "tea2"):
        tab = TeaTable(f, max_k=5, variant=variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for S in terms:
                for col, n, e in tab.append(S):
                    assert np.isfinite(e).all(), (variant, col, n)
        assert tab.invalid, variant


def test_full_tables_invert_a_signed_zero_as_the_scalar_table_does():
    # numpy's sums turn -0.0 into +0.0, so the functional here returns the
    # 0-d difference itself: 1 / (-0.0 - 0.0) is -inf in every table
    ident = Functional("identity", lambda x: x[()], "identity")
    shadow = ScalarEpsTable(max_col=6)
    shadow.extend([0.0, -0.0])
    assert shadow.entry(1, 0) == -math.inf
    for variant in ("tea1", "tea2"):
        tab = TeaTable(ident, max_k=2, variant=variant)
        tab.extend([np.asarray(0.0), np.asarray(-0.0)])
        assert tab.entry(1, 0) == -math.inf, variant


def _five_tables(f, K):
    """The scalar table and the four element tables, by variant."""
    tables = {t.variant: t for t in _every_table(f, K)}
    return {"scalar": ScalarEpsTable(max_col=2 * K + 2), **tables}


def _counts(tab):
    shadow = getattr(tab, "scalar", tab)
    return {attr: getattr(tab, attr, None) for attr in
            ("sigma", "n_terms", "peak_slots", "peak_total")} | {
        "events": len(getattr(shadow, "events", ())),
        "invalid": len(getattr(tab, "invalid", ()))}


@st.composite
def long_streams(draw):
    """Makers of geometric streams of a few modes, and of streams whose
    modes die out in float64 so that the terms then repeat exactly: the
    shadow repairs on most terms and most entries cannot be formed."""
    dim = draw(st.integers(1, 4))
    converged = draw(st.booleans())
    rates = draw(st.lists(st.floats(0.05, 0.5) if converged else st.floats(0.8, 0.98),
                          min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limit = rng.uniform(0.5, 1.5, dim)
    modes = [rng.uniform(0.5, 1.5, dim) for _ in rates]
    return lambda count: [limit + sum(r**n * u for r, u in zip(rates, modes))
                          for n in range(count)]


@settings(max_examples=20, deadline=None)
@given(stream=long_streams(), K=st.integers(1, 4), warm=st.integers(0, 20),
       more=st.integers(100, 200))
def test_tables_stream_in_memory_independent_of_the_length(stream, K, warm, more):
    # the five tables hold O(K) state: their traced memory after the first
    # few terms and after 100-200 more agrees within what that state itself
    # moves by (entries formed or not, firings on the last two diagonals:
    # at most a few KiB a table), where one number kept per term and table
    # would add tens of KiB
    warm += 4 * K + 8
    terms = stream(warm + more)
    f = Functional.dot(np.linspace(0.5, 1.5, terms[0].size))
    shadow = [f(S) for S in terms]
    tracemalloc.start()
    try:
        tables = _five_tables(f, K)
        for i, S in enumerate(terms):
            if i == warm:
                early = tracemalloc.get_traced_memory()[0]
            for name, tab in tables.items():
                tab.append(shadow[i] if name == "scalar" else S)
        late = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(late - early) <= 3 * 1024 * (K + 2), (early, late)


@settings(max_examples=20, deadline=None)
@given(stream=long_streams(), K=st.integers(1, 4), count=st.integers(12, 120))
def test_a_recorder_changes_nothing_and_keeps_what_it_recorded(stream, K, count):
    # each table, appended through a Recorder, returns bit for bit the
    # entries of a bare twin and keeps its counts; the recorder counts what
    # the table counts, and what it recorded stays as the table gave it
    # while later appends reuse the table's buffers
    terms = stream(count)
    f = Functional.dot(np.linspace(0.5, 1.5, terms[0].size))
    shadow = [f(S) for S in terms]
    twins = _five_tables(f, K)
    for name, tab in _five_tables(f, K).items():
        rec, bare = Recorder(tab), twins[name]
        fed = shadow if name == "scalar" else terms
        got, want, given = hashlib.sha256(), hashlib.sha256(), {}
        for S in fed:
            new = rec.append(S)
            _hash_entries(got, new)
            _hash_entries(want, bare.append(S))
            given.update({(k, n): np.array(v) for k, n, v in new})
        assert got.digest() == want.digest(), name
        assert _counts(tab) == _counts(bare), name
        if name != "scalar":
            assert len(rec.invalid) == len(tab.invalid), name
        if rec.shadow is not None:
            assert len(rec.shadow.events) == len(getattr(tab, "scalar", tab).events), name
        for (k, n), value in given.items():
            assert _same_bits(np.asarray(rec.entry(k, n)), value), (name, k, n)
        # the table itself keeps the shadow's last three diagonals only
        sc = bare if name == "scalar" else getattr(bare, "scalar", None)
        if sc is not None:
            N = sc.n_terms - 1
            last = [(0, N - 2), (2, N - 4)]
            assert sc.entry(0, N - 2) == shadow[N - 2]
            assert np.array_equal([sc.entry(*at) for at in last],
                                  [rec.shadow.entry(*at) for at in last], equal_nan=True)
            with pytest.raises(LookupError, match="Recorder"):
                sc.entry(0, N - 3)


def _hash_entries(h, new):
    """Feed the entries one append returned, before the table reuses their
    buffers, to the hash h."""
    for k, n, value in new:
        h.update(f"{k},{n}".encode() + np.asarray(value).tobytes())


def test_coefficients_read_the_shadow_diagonals_directly(monkeypatch):
    # every form reads only the shadow's last three diagonals, which the
    # table indexes itself; a bounds-checked entry() call per read cost
    # more than the element update at dim 100
    def no_entry(self, k, n):
        raise AssertionError("ScalarEpsTable.entry was called")

    rng = np.random.default_rng(9)
    src = GeometricModes(rng.random(6) + 0.5, [1.0] * 3, [0.8, 0.6, 0.4],
                         [rng.random(6) + 0.5 for _ in range(3)])
    terms = src.take(300)  # converged in float64, repairing on most terms
    f = Functional.dot(np.ones(6))
    monkeypatch.setattr(ScalarEpsTable, "entry", no_entry)
    for variant in ("stea1", "stea2"):
        for form in (1, 2, 3, 4):
            tab = TopoEpsTable(f, max_k=5, variant=variant, form=form)
            formed = sum(len(tab.append(S)) for S in terms)
            assert formed > len(terms) and tab.sigma > 0, (variant, form)


def test_ratio_series_single_mode():
    lam = 0.5
    terms = [np.zeros(4) + lam**n for n in range(10)]
    tab = Recorder(TopoEpsTable(Functional.dot(np.ones(4)), max_k=2, form=3))
    tab.extend(terms)
    rs = ratio_series(tab)
    assert 0 in rs
    for _, r in rs[0]:
        assert r == pytest.approx(lam / (1 - lam), abs=1e-8)


def test_ratio_series_two_modes_converges_to_dominant():
    terms, _ = two_mode_terms(30)
    f = Functional.dot(np.random.default_rng(11).random(10))
    tab = Recorder(TopoEpsTable(f, max_k=2, form=3))
    tab.extend(terms)
    rs = ratio_series(tab)
    assert 0 in rs and 1 in rs
    devs = [(n, abs(r - 9.0)) for n, r in rs[0] if abs(r - 9.0) > 1e-13]
    rate, _ = fit_geometric_rate([n for n, _ in devs], [d for _, d in devs],
                                 skip=3)
    assert rate == pytest.approx(5.0 / 9.0, rel=0.2)


def test_ratio_series_matches_element_step_in_dim_one():
    # with a width-1 space the element table and its scalar shadow coincide,
    # so the shadow ratio must reproduce the measured element-norm step
    terms, _ = smooth_terms(20, 1, 12)
    f = Functional.dot(np.ones(1))
    tab = Recorder(TopoEpsTable(f, max_k=2, form=3))
    tab.extend(terms)
    rs = ratio_series(tab)
    checked = 0
    for k, series in rs.items():
        for n, r in series:
            e_new = tab.entry(2 * k + 2, n)
            hi = tab.entry(2 * k, n + 1)
            lo = tab.entry(2 * k, n)
            if e_new is None or hi is None or lo is None:
                continue
            step = _norm(e_new - hi) / max(_norm(hi - lo), 1e-30)
            assert step == pytest.approx(abs(r), rel=1e-6)
            checked += 1
    assert checked >= 10


def test_stability_margin_examples():
    f = Functional.dot(np.ones(1))
    tab = Recorder(TopoEpsTable(f, max_k=2, form=3))
    tab.extend([np.array([x]) for x in LN2_SUMS * 2][:14])
    margins = stability_margin(tab, 1)
    assert margins and all(m <= 10 for m in margins[:11])

    lam = 0.5
    tab = Recorder(TopoEpsTable(Functional.dot(np.ones(3)), max_k=1, form=3))
    tab.extend([np.zeros(3) + lam**n for n in range(10)])
    margins = stability_margin(tab, 0)
    assert margins == pytest.approx([3.0] * len(margins))

    # near-coincident seeds blow the k=1 margins up by ~the pair ratio
    src = KernelRecurrence(10, "vector", seed=0)
    tab = Recorder(TopoEpsTable(Functional.dot(np.ones(10)), max_k=3, form=3,
                                particular_rules=False))
    tab.extend([src.next_term() for _ in range(10)])
    margins = stability_margin(tab, 1)
    assert margins and max(margins) > 1e9

    # an exact tie in the first column gives a non-finite margin, not a gap
    tab = Recorder(TopoEpsTable(f, max_k=1, form=3))
    tab.extend([np.array([2.0])] * 5)
    assert any(not math.isfinite(m) for m in stability_margin(tab, 0))


def test_diagonal_scaling_covariance():
    rng = np.random.default_rng(9)
    dim = 5
    limit = rng.random(dim)
    us = [rng.random(dim) for _ in range(2)]
    terms = [limit + sum(lam**n * u for lam, u in zip((0.7, -0.4), us))
             for n in range(10)]
    y = rng.random(dim) + 0.5
    D = rng.random(dim) + 0.5
    plain = Recorder(TopoEpsTable(Functional.dot(y), max_k=2, form=3))
    plain.extend(terms)
    scaled = Recorder(TopoEpsTable(Functional.dot(2.5 * y / D), max_k=2, form=3))
    scaled.extend([D * t for t in terms])
    for k in range(3):
        for n in range(10 - 2 * k):
            a = plain.entry(2 * k, n)
            b = scaled.entry(2 * k, n)
            if a is None or b is None:
                continue
            diff = _norm(b - D * a)
            assert diff <= 1e-9 * max(_norm(b), 1.0), (k, n)


def test_each_column_accelerates_two_mode_source():
    terms, limit = two_mode_terms(24)
    f = Functional.dot(np.random.default_rng(11).random(10))
    tab = Recorder(TopoEpsTable(f, max_k=1, form=3))
    tab.extend(terms)
    n = 18
    e0 = _norm(tab.entry(0, n) - limit)
    e2 = _norm(tab.entry(2, n) - limit)
    assert e2 / e0 < 0.1


def test_logarithmic_constant_scaling():
    # single 1/(n+b) mode: column 2k error keeps exponent 1 and the
    # constant shrinks like 1/(k+1)
    dim = 6
    b = 1.0
    rng = np.random.default_rng(5)
    u = rng.random(dim) + 0.5
    src = LogarithmicModes(np.zeros(dim), [1.0], [u], b=b)
    terms = [src.next_term() for _ in range(201)]
    f = Functional.dot(np.random.default_rng(13).random(dim))
    tab = Recorder(TopoEpsTable(f, max_k=2, variant="stea1", form=3))
    tab.extend(terms)
    consts = {}
    for k in range(3):
        vals = []
        for n in range(60, 199 - 2 * k):
            e = tab.entry(2 * k, n)
            if e is not None and np.isfinite(e).all():
                vals.append(_norm(e) * (n + b))
        consts[k] = float(np.median(vals))
    for k in (1, 2):
        assert consts[k] / consts[0] == pytest.approx(1.0 / (k + 1), rel=0.15)


def test_best_returns_highest_finite_column():
    terms, _ = smooth_terms(30, 4, 9)
    f = Functional.dot(np.ones(4))
    tab = TopoEpsTable(f, max_k=3, form=3)
    tab.extend(terms)
    col, n, e = tab.best()
    assert col == 6 and col + n == len(terms) - 1
    assert np.isfinite(e).all()


def test_complex_sequences_supported():
    lam = 0.4 + 0.3j
    limit = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    terms = [limit + lam**n * np.array([1.0, 1.0j]) for n in range(8)]
    f = Functional.dot(np.ones(2))
    tab = Recorder(TopoEpsTable(f, max_k=1, variant="stea2", form=3))
    tab.extend(terms)
    e = tab.entry(2, 0)
    assert _norm(e - limit) < 1e-10


def test_bad_arguments_rejected():
    f = Functional.dot(np.ones(2))
    with pytest.raises(ValueError):
        TopoEpsTable(f, max_k=2, variant="stea3")
    with pytest.raises(ValueError):
        TopoEpsTable(f, max_k=2, form=5)
    with pytest.raises(ValueError):
        TeaTable(f, max_k=2, variant="tea3")
    for variant in ("stea1", "stea2"):
        with pytest.raises(ValueError):
            TopoEpsTable(f, max_k=-1, variant=variant)
    for variant in ("tea1", "tea2"):
        with pytest.raises(ValueError):
            TeaTable(f, max_k=-1, variant=variant)


def test_entry_outside_the_table_is_none():
    # no column below 0 or above 2K, and no superscript below 0, wraps round
    # to a kept entry or raises
    K = 2
    terms, _ = smooth_terms(50, 3, 9)
    f = Functional.dot(np.ones(3))
    for tab in _every_table(f, K):
        tab.extend(terms)
        N = tab.n_terms - 1
        assert tab.entry(2 * K, N - 2 * K) is not None, tab.variant
        for col, n in ((-2, N + 2), (-2, N + 1), (2 * K + 2, N - 2 * K - 2),
                       (2 * K + 2, N - 2 * K - 3), (0, -1), (2 * K, -1)):
            assert tab.entry(col, n) is None, (tab.variant, col, n)
        if tab.variant.startswith("tea"):
            assert tab.entry(2 * K - 1, N - 2 * K + 1) is not None
            for col, n in ((-1, N + 1), (2 * K + 1, N - 2 * K - 1), (1, -1)):
                assert tab.entry(col, n) is None, (tab.variant, col, n)
        else:
            with pytest.raises(ValueError):
                tab.entry(-1, N + 1)


def _every_table(f, K=2):
    return ([TopoEpsTable(f, max_k=K, variant=v, form=3) for v in ("stea1", "stea2")]
            + [TeaTable(f, max_k=K, variant=v) for v in ("tea1", "tea2")])


def test_bad_terms_rejected_on_append():
    # append converts and checks every term; arithmetic would broadcast a
    # term of another shape silently
    f = Functional.dot(np.ones(3))
    for tab in _every_table(f):
        with pytest.raises(DimensionMismatchError):
            tab.append(np.ones((3, 1, 1)))
        with pytest.raises(TypeError):
            tab.append(np.array(["a", "b", "c"]))
        tab.append(np.ones(3))
        for other in (np.ones(1), np.ones(4), np.ones((3, 1))):
            with pytest.raises(DimensionMismatchError):
                tab.append(other)
        assert tab.n_terms == 1


def test_terms_convert_to_float64_or_complex128():
    # int and float32 streams give the float64 stream's entries bit for bit;
    # a complex64 stream gives the complex128 stream's
    terms, _ = smooth_terms(48, 3, 12)
    ints = [np.rint(1e3 * t).astype(np.int64) for t in terms]
    singles = [t.astype(np.float32) for t in terms]
    cplx = [(t + 1j * t[::-1]).astype(np.complex64) for t in terms]
    f = Functional.dot(np.array([0.5, 1.5, 1.0]))
    checked = 0
    for stream, dtype in ((ints, np.float64), (singles, np.float64),
                          (cplx, np.complex128)):
        wide = [t.astype(dtype) for t in stream]
        for tab, ref in zip(_every_table(f, K=3), _every_table(f, K=3)):
            got, want = _appended(tab, stream), _appended(ref, wide)
            assert got.keys() == want.keys()
            for key, value in got.items():
                assert value.dtype == dtype
                assert _same_bits(value, want[key]), key
                checked += 1
    assert checked >= 200


def test_full_table_peaks_count_slots_by_position():
    # the odd entries are coefficients and a 0-d even entry is a scalar
    # too: the peaks of a 0-d stream are those of the same stream in dim 1
    terms, _ = smooth_terms(49, 1, 16)
    f0, f1 = Functional.dot(np.asarray(1.0)), Functional.dot(np.ones(1))
    for variant in ("tea1", "tea2"):
        scalars = TeaTable(f0, max_k=5, variant=variant).extend([t[0] for t in terms])
        vectors = TeaTable(f1, max_k=5, variant=variant).extend(terms)
        assert scalars.peak_slots == vectors.peak_slots > 0
        assert scalars.peak_total == vectors.peak_total > scalars.peak_slots


def test_oracle_tolerance_helper_consistency():
    # condition-scaled tolerances stay within the documented cap
    assert solve_tolerance(1e20) == 1e-6


def test_first_kind_keeps_the_previous_diagonal_as_it_was_returned():
    # entry(col, n) one diagonal back is what the previous append returned,
    # unchanged, for the first kind, which keeps that diagonal; the second
    # kind keeps only the newest one
    terms, _ = smooth_terms(4, 6, 12)
    f = Functional.dot(np.linspace(0.5, 1.5, 6))
    for tab in _every_table(f, K=3):
        last = []
        for S in terms:
            out = tab.append(S)
            for col, n, e, kept in last:
                got = tab.entry(col, n)
                if tab.variant in ("stea1", "tea1"):
                    assert got is e and _same_bits(got, kept), (tab.variant, col, n)
                else:
                    assert got is None, (tab.variant, col, n)
            last = [(col, n, e, e.copy()) for col, n, e in out]
