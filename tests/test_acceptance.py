"""Acceptance gate: one test per shipping criterion.

Every test prints a single ``ACCEPTANCE nn PASS/FAIL`` line with the measured
numbers next to each clause, then asserts the clauses.  Criterion 4
currently fails on clauses this implementation cannot meet (its p=12 trigger
of 1e-12 sits below the planted gaps of ~5e-12 and 1e-11); the assertion
message carries the measured values so the gap is visible, not hidden.
Criterion 5 passes: stea1 column 10 is 3.7e-11 at worst over the four forms
(it floored at 7.0e-5 before the first kind formed the column-2 difference
across a detected column-0 tie exactly), against 1.5e-14 from the float64
oracle and 7.5e-15 from the same transform in 60 digits.
"""

import math
import time

import numpy as np
import pytest

from epsaccel import (
    Functional,
    Recorder,
    ScalarEpsTable,
    TeaTable,
    TopoEpsTable,
)
from epsaccel import oracle, sequences
from epsaccel.harness import (
    fit_algebraic_exponent,
    fit_geometric_rate,
    reproduce,
)


def _verdict(num, name, checks):
    """checks: list of (label, ok, detail). Prints one line, asserts all."""
    status = "PASS" if all(ok for _, ok, _ in checks) else "FAIL"
    joined = "; ".join(f"{label}={detail}" for label, _, detail in checks)
    print(f"ACCEPTANCE {num:02d} {status} ({name}): {joined}")
    failed = [f"{label} [{detail}]" for label, ok, detail in checks if not ok]
    assert not failed, f"{name}: unmet: " + "; ".join(failed)


def _row(out, label):
    return next(r for r in out["rows"] if r["algorithm"] == label)


def _smooth_terms(rng, dim, count):
    rates = np.array([0.75, 0.45, 0.2]) + rng.uniform(-0.05, 0.05, 3)
    S = rng.uniform(0.5, 1.5, dim) if dim else rng.uniform(0.5, 1.5)
    us = [rng.uniform(0.5, 1.5, dim) if dim else rng.uniform(0.5, 1.5)
          for _ in rates]
    out = []
    for n in range(count):
        t = np.array(S, dtype=float, copy=True)
        for lam, u in zip(rates, us):
            t = t + (lam ** n) * np.asarray(u)
        out.append(t)
    return out


def test_criterion_01_kernel_exactness():
    rng = np.random.default_rng(7)
    lambdas = [0.8, -0.6, 0.45, -0.3]
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 5):
        lams = lambdas[:k]
        for space, shape in (("scalar", ()), ("vector", (20,)),
                             ("matrix", (10, 10))):
            S = rng.random(shape) if shape else float(rng.random())
            us = [rng.random(shape) + 0.5 if shape
                  else float(rng.random() + 0.5) for _ in lams]
            terms = []
            for n in range(2 * k + 4):
                t = np.array(S, dtype=float, copy=True)
                for lam, u in zip(lams, us):
                    t = t + (lam ** n) * np.asarray(u)
                terms.append(t)
            if space == "scalar":
                tab = Recorder(ScalarEpsTable(max_col=2 * k))
                tab.extend([float(x) for x in terms])
                worst = max(worst, max(abs(v - S)
                                       for _, v in tab.even_column(k)))
                continue
            y = rng.random(shape)
            f = (Functional.dot(y.ravel()) if len(shape) == 1
                 else Functional.trace_weighted(y))
            lim = np.asarray(S)
            for variant in ("stea1", "stea2"):
                tab = Recorder(TopoEpsTable(f, max_k=k, variant=variant, form=3))
                tab.extend(terms)
                for n in range(len(terms) - 2 * k):
                    e = tab.entry(2 * k, n)
                    if e is not None and np.isfinite(e).all():
                        worst = max(worst, np.max(np.abs(e - lim)))
    elapsed = time.perf_counter() - t0
    _verdict(1, "kernel exactness k<=4", [
        ("worst col-2k error (<=1e-8)", worst <= 1e-8, f"{worst:.3e}"),
        ("runtime (<1s)", elapsed < 1.0, f"{elapsed:.2f}s"),
    ])


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst, worst_case = 0.0, None
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = 4
        terms = _smooth_terms(rng, dim, 12)
        y = rng.uniform(0.5, 1.5, dim)
        f = Functional.dot(y)
        s = [float(f(t)) for t in terms]
        tables = []
        for variant in ("stea1", "stea2"):
            for form in (1, 2, 3, 4):
                tab = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=form))
                tab.extend(terms)
                tables.append((f"{variant}-{form}", tab, variant))
        for variant in ("tea1", "tea2"):
            tab = Recorder(TeaTable(f, max_k=3, variant=variant))
            tab.extend(terms)
            fam = "stea1" if variant == "tea1" else "stea2"
            tables.append((variant, tab, fam))
        for k in range(1, 4):
            for n in range(4):
                ref_first = oracle.shanks_topo(terms, f, n, k, variant="first")
                ref_second = oracle.shanks_topo(terms, f, n, k,
                                                variant="second")
                for label, tab, fam in tables:
                    e = tab.entry(2 * k, n)
                    if e is None or not np.isfinite(e).all():
                        continue
                    ref = ref_first if fam == "stea1" else ref_second
                    rel = np.max(np.abs(e - ref)) / max(np.max(np.abs(ref)), 1e-30)
                    if rel > worst:
                        worst, worst_case = rel, (seed, label, k, n)
    elapsed = time.perf_counter() - t0
    _verdict(2, "oracle equivalence, 100 seeds", [
        ("worst relative gap (<=1e-6)", worst <= 1e-6,
         f"{worst:.3e} at {worst_case}"),
        ("runtime (<10s)", elapsed < 10.0, f"{elapsed:.2f}s"),
    ])


def test_criterion_03_identity_suites():
    w2 = w3 = w6 = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        sterm = [float(x) for x in _smooth_terms(rng, 0, 14)]
        tab = Recorder(ScalarEpsTable(max_col=8))
        tab.extend(sterm)
        for k in range(1, 4):
            for n in range(4):
                ora = oracle.shanks_scalar(sterm, n, k)
                rec = tab.entry(2 * k, n)
                w2 = max(w2, abs(rec - ora) / max(abs(ora), 1e-30))
        for k in range(0, 3):
            for n in range(3):
                ev, od = tab.diagonal_sum_identities(k, n)
                w3 = max(w3, abs(ev - tab.entry(2 * k, n))
                         / max(abs(tab.entry(2 * k, n)), 1e-30))
                w3 = max(w3, abs(od - tab.entry(2 * k + 1, n))
                         / max(abs(tab.entry(2 * k + 1, n)), 1e-30))
        dim = 5
        vterms = _smooth_terms(rng, dim, 14)
        f = Functional.dot(rng.uniform(0.5, 1.5, dim))
        stab = Recorder(ScalarEpsTable(max_col=8))
        stab.extend([float(f(t)) for t in vterms])
        duals = []
        for variant in ("stea1", "stea2"):
            duals.append(Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=3)))
        for variant in ("tea1", "tea2"):
            duals.append(Recorder(TeaTable(f, max_k=3, variant=variant)))
        for ttab in duals:
            ttab.extend(vterms)
            for k in range(0, 4):
                for n in range(4):
                    e = ttab.entry(2 * k, n)
                    if e is None or not np.isfinite(e).all():
                        continue
                    rhs = stab.entry(2 * k, n)
                    w6 = max(w6, abs(f(e) - rhs) / max(abs(rhs), 1e-30))
    _verdict(3, "recursion identity suites, 50 seeds", [
        ("scalar vs oracle (<=1e-10)", w2 <= 1e-10, f"{w2:.3e}"),
        ("diagonal-sum identities (<=1e-10)", w3 <= 1e-10, f"{w3:.3e}"),
        ("functional shadow duality (<=1e-10)", w6 <= 1e-10, f"{w6:.3e}"),
    ])


def test_criterion_04_singular_repair_vector_protocol():
    # order-5 recurrence seeded with two near-coincident term pairs, dim 50.
    # The advertised p=12 detection never fires on this data: the closest
    # pair ratios sit near 5e-12, above the 1e-12 trigger, so sigma stays 0
    # and column 10 keeps its unrepaired value.  Measured numbers below.
    t0 = time.perf_counter()
    out = reproduce("kernel-vector", dim=50, p=12)
    elapsed = time.perf_counter() - t0
    row = _row(out, "stea2 form 3")
    err = row["error"]
    gain = row["gain_orders"]
    _verdict(4, "near-singular repair, vector protocol (p=12)", [
        ("sigma (==2)", row["sigma"] == 2, str(row["sigma"])),
        ("stea2 form 3 col-10 error (<=1e-8)",
         err is not None and err <= 1e-8,
         "none" if err is None else f"{err:.3e}"),
        ("gain over rules-off (>=6 orders)", gain is not None and gain >= 6.0,
         "none" if gain is None else f"{gain:.2f}"),
        ("runtime (<5s)", elapsed < 5.0, f"{elapsed:.2f}s"),
    ])


def test_criterion_05_singular_repair_matrix_protocol():
    # 50x50 matrix run, trace functional, p=7.  Detection fires (sigma=2),
    # the repaired stea2 column reaches 1.1e-13 and the repaired stea1
    # column 3.7e-11 (form 1; forms 2-4: 1.1e-14, 1.1e-11, 2.6e-11); it
    # floored at 7.0e-5 until the column-2 difference across each planted
    # column-0 tie was formed exactly.  Rules-off contrast holds: both
    # exceed 1e-1 (1.2).
    t0 = time.perf_counter()
    out = reproduce("kernel-matrix", dim=50, p=7)
    elapsed = time.perf_counter() - t0
    s1 = [_row(out, f"stea1 form {f}") for f in (1, 2, 3, 4)]
    s2 = [_row(out, f"stea2 form {f}") for f in (1, 2, 3, 4)]
    worst1 = max(r["error"] for r in s1)
    worst2 = max(r["error"] for r in s2)
    plain = min(r["error_plain"] for r in s1 + s2)
    sigmas = sorted({r["sigma"] for r in s1 + s2})
    _verdict(5, "near-singular repair, matrix protocol (p=7)", [
        ("sigma (==2)", sigmas == [2], str(sigmas)),
        ("stea1 col-10 norms (<=1e-7)", worst1 <= 1e-7, f"{worst1:.3e}"),
        ("stea2 col-10 norms (<=1e-7)", worst2 <= 1e-7, f"{worst2:.3e}"),
        ("rules-off norms (>1e-1)", plain > 1e-1, f"{plain:.3e}"),
        ("runtime (<20s)", elapsed < 20.0, f"{elapsed:.2f}s"),
    ])


def test_criterion_06_two_mode_rates():
    t0 = time.perf_counter()
    src = sequences.GeometricModes.random(10, [0.9, 0.5], seed=3)
    terms = src.take(30)
    S = np.asarray(src.limit())
    f = Functional.dot(np.random.default_rng(11).random(10))
    checks = []
    for variant in ("stea1", "stea2"):
        tab = Recorder(TopoEpsTable(f, max_k=2, variant=variant, form=3))
        tab.extend(terms)
        e0 = {n: np.max(np.abs(tab.entry(0, n) - S)) for n in range(28)}
        e2 = [(n, np.max(np.abs(tab.entry(2, n) - S)))
              for n in range(28) if tab.entry(2, n) is not None
              and np.isfinite(tab.entry(2, n)).all()]
        rate2 = fit_geometric_rate([n for n, _ in e2], [v for _, v in e2])[0]
        ratio = [(n, v / e0[n]) for n, v in e2 if e0[n] > 0]
        rrate = fit_geometric_rate([n for n, _ in ratio],
                                   [v for _, v in ratio])[0]
        checks.append((f"{variant} col-2 rate (0.5 +-10%)",
                       0.45 <= rate2 <= 0.55, f"{rate2:.4f}"))
        checks.append((f"{variant} error-ratio rate (5/9 +-15%)",
                       abs(rrate - 5.0 / 9.0) <= 0.15 * 5.0 / 9.0,
                       f"{rrate:.4f}"))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime (<1s)", elapsed < 1.0, f"{elapsed:.2f}s"))
    _verdict(6, "two-mode geometric rates", checks)


def test_criterion_07_logarithmic_exponents_and_constants():
    dim, b = 6, 1.0
    S = np.zeros(dim)
    zero = S
    f = Functional.dot(np.random.default_rng(13).random(dim))
    checks = []

    def column_errors(tab, k, count):
        out = {}
        for n in range(count - 2 * k):
            e = tab.entry(2 * k, n)
            if e is not None and np.isfinite(e).all():
                out[n] = np.max(np.abs(e - zero))
        return out

    rngl = np.random.default_rng(5)
    us = [rngl.random(dim) + 0.5 for _ in range(3)]
    for alternating in (False, True):
        src = sequences.LogarithmicModes(S, [1.0, 0.7, 0.4], us, b=b,
                                         alternating=alternating)
        terms = src.take(201)
        tab = Recorder(TopoEpsTable(f, max_k=3, variant="stea1", form=3))
        tab.extend(terms)
        kind = "alternating" if alternating else "monotone"
        for k in range(3):
            errs = column_errors(tab, k, len(terms))
            if alternating:
                window = [(n, v) for n, v in errs.items()
                          if 20 <= n <= 120 and v > 1e-13]
                target = 2 * k + 1
                tol = 0.10 * target
            else:
                window = [(n, v) for n, v in errs.items() if 60 <= n <= 198]
                target, tol = 1.0, 0.1
            expo = fit_algebraic_exponent([n for n, _ in window],
                                          [v for _, v in window],
                                          b=b, skip=0)[0]
            checks.append((f"{kind} k={k} exponent ({target} +-{tol:.1f})",
                           abs(expo - target) <= tol, f"{expo:.3f}"))

    # alternating constants on a one-mode source: error ~ c / (n+b)^(2k+1)
    # with c = (k!)^2 / 4^k scaled by the mode amplitude
    rngc = np.random.default_rng(5)
    u0 = rngc.random(dim) + 0.5
    src = sequences.LogarithmicModes(S, [1.0], [u0], b=b, alternating=True)
    terms = src.take(201)
    tab = Recorder(TopoEpsTable(f, max_k=3, variant="stea1", form=3))
    tab.extend(terms)
    for k, (lo, hi) in ((0, (60, 196)), (1, (120, 196)), (2, (80, 130))):
        errs = column_errors(tab, k, len(terms))
        target_c = (math.factorial(k) ** 2 / 4.0 ** k) * np.max(np.abs(u0))
        consts = [v * (n + b) ** (2 * k + 1) for n, v in errs.items()
                  if lo <= n <= hi and v > 1e-11]
        ratio = float(np.median(consts)) / target_c
        checks.append((f"alternating k={k} constant ratio (1 +-0.2)",
                       0.8 <= ratio <= 1.2, f"{ratio:.3f}"))
    _verdict(7, "logarithmic exponents and constants", checks)


def test_criterion_08_tm_to_inequalities():
    # rank-one profiles: every entry is one scalar sequence up to scale, so
    # the entrywise column orderings carry over from the scalar theory
    dim, n_terms = 5, 20
    f = Functional.dot(np.ones(dim))
    slack = 1e-12
    worst = {"tm": 0.0, "to": 0.0}

    def excess(lo, hi):
        # how far the claim lo <= hi fails, entrywise
        if lo is None or hi is None:
            return 0.0
        a = np.asarray(lo, dtype=float)
        bb = np.asarray(hi, dtype=float)
        return float(np.max(a - bb))

    for family, src in (
        ("tm", sequences.TotallyMonotonicSource.proportional(
            dim, [0.85, 0.6, 0.35, 0.15], seed=2)),
        ("to", sequences.TotallyOscillatingSource.proportional(
            dim, [0.8, 0.5, 0.25, 0.1], seed=4)),
    ):
        terms = src.take(n_terms)
        # orders k <= 6 at n <= 6 read the first 13 terms
        head = terms[:13]
        if family == "to":
            head = [t if i % 2 == 0 else -t for i, t in enumerate(head)]
        assert sequences.verify_totally_monotonic(head, max_order=6)
        for variant in ("stea1", "stea2"):
            tab = Recorder(TopoEpsTable(f, max_k=3, variant=variant, form=3))
            tab.extend(terms)
            E = tab.entry
            zero = np.zeros(dim)
            for k in range(3):
                c, cc = 2 * k, 2 * k + 2
                for n in range(7):
                    if family == "tm":
                        pairs = [
                            (zero, E(cc, n)), (E(cc, n), E(c, n)),
                            (zero, E(c, n + 1)), (E(c, n + 1), E(c, n)),
                            (E(cc, n), E(c, n + 1)),
                            (E(cc, n), E(c, n + 2)),
                        ]
                    else:
                        def diff(x, y):
                            if x is None or y is None:
                                return None
                            return x - y
                        m = 2 * n
                        pairs = [
                            (zero, E(cc, m)), (E(cc, m), E(c, m)),
                            (diff(E(c, m + 1), E(c, m)),
                             diff(E(cc, m + 1), E(cc, m))),
                            (diff(E(cc, m + 1), E(cc, m)), zero),
                            (E(c, m + 1), E(cc, m + 1)), (E(cc, m + 1), zero),
                            (zero, diff(E(cc, m + 2), E(cc, m + 1))),
                            (diff(E(cc, m + 2), E(cc, m + 1)),
                             diff(E(c, m + 2), E(c, m + 1))),
                            (zero, E(cc, m)), (E(cc, m), E(c, m + 2)),
                            (E(c, m + 3), E(cc, m + 1)), (E(cc, m + 1), zero),
                        ]
                    for lo, hi in pairs:
                        worst[family] = max(worst[family], excess(lo, hi))
    _verdict(8, "monotone/oscillating column orderings", [
        ("monotone chain excess (<=1e-12)", worst["tm"] <= slack,
         f"{worst['tm']:.3e}"),
        ("oscillating chain excess (<=1e-12)", worst["to"] <= slack,
         f"{worst['to']:.3e}"),
    ])


def test_criterion_09_kaczmarz_gain():
    out = reproduce("kaczmarz")
    rows = out["rows"]
    gain = max(r["gain_orders"] for r in rows if r["gain_orders"] is not None)
    terms = max(r["terms"] for r in rows)
    _verdict(9, "row-projection solver acceleration", [
        ("best gain at equal terms (>=4 orders)", gain >= 4.0, f"{gain:.2f}"),
        ("terms within 40 sweeps (<=41)", terms <= 41, str(terms)),
    ])


def test_criterion_10_stein_gain():
    out = reproduce("stein")
    row = next(r for r in out["rows"] if r["column"] == 4)
    _verdict(10, "matrix-equation iterate acceleration", [
        ("k=2 digits gained at equal terms (>=2)",
         row["gain_orders"] >= 2.0, f"{row['gain_orders']:.2f}"),
    ])


def test_criterion_11_storage_audit():
    # 14 terms > 2k+1 so the sliding buffers reach their steady-state width
    K = 5
    rng = np.random.default_rng(17)
    terms = _smooth_terms(rng, 4, 14)
    f = Functional.dot(rng.uniform(0.5, 1.5, 4))
    peaks = {}
    for variant in ("stea1", "stea2"):
        tab = TopoEpsTable(f, max_k=K, variant=variant, form=3)
        tab.extend(terms)
        assert tab.entry(2 * K, tab.n_terms - 1 - 2 * K) is not None
        peaks[variant] = tab.peak_slots
    totals = {}
    for variant in ("tea1", "tea2"):
        tab = TeaTable(f, max_k=K, variant=variant)
        tab.extend(terms)
        assert tab.best() is not None
        totals[variant] = tab.peak_total
    _verdict(11, "storage high-water audit, k=5", [
        ("stea1 peak elements (==2k+2)", peaks["stea1"] == 2 * K + 2,
         f"{peaks['stea1']} vs {2 * K + 2}"),
        ("stea2 peak elements (<=k+2)", peaks["stea2"] <= K + 2,
         f"{peaks['stea2']} vs {K + 2}"),
        ("tea1 peak elements+duals (<=3k+3)", totals["tea1"] <= 3 * K + 3,
         f"{totals['tea1']} vs {3 * K + 3}"),
        ("tea2 peak elements+duals (<=2k+3)", totals["tea2"] <= 2 * K + 3,
         f"{totals['tea2']} vs {2 * K + 3}"),
    ])
