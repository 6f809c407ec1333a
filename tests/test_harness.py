"""Experiment harness: specs, runs, reports, fits, protocols."""

import json
import re

import numpy as np
import pytest

from epsaccel import ScalarEpsTable, TopoEpsTable, Functional
from epsaccel.harness import (
    build_functional,
    build_source,
    build_table,
    fit_algebraic_exponent,
    fit_geometric_rate,
    iterations_to_tolerance,
    reproduce,
    run,
)
from epsaccel.seqio import write_terms
from epsaccel.sequences import KernelRecurrence
from epsaccel.vectorspace import BLOCK

KERNEL_SPEC = {
    "source": {"kind": "kernel_recurrence", "dim": 20, "seed": 1},
    "algorithm": {"variant": "stea2", "form": 3, "max_k": 5, "p": 10},
    "functional": {"kind": "dot"},
    "n_terms": 11,
}


def test_builders_reject_unknown_keys():
    # a nested key no builder reads is an error, not a silent default
    with pytest.raises(ValueError, match="dimm"):
        build_source(dict(KERNEL_SPEC["source"], dimm=30))
    with pytest.raises(ValueError, match="conjugat"):
        build_functional({"kind": "dot", "conjugat": False}, (20,))
    with pytest.raises(ValueError, match="kmax"):
        build_table({"variant": "stea2", "kmax": 3}, Functional.dot(np.ones(20)))
    # a table has one storage mode; a Recorder keeps what grows with the stream
    with pytest.raises(ValueError, match="history"):
        build_table({"variant": "stea2", "history": True}, Functional.dot(np.ones(20)))
    # and so is a top-level spec key run does not read
    with pytest.raises(ValueError, match="n_term'"):
        run(dict(KERNEL_SPEC, n_term=11))


def test_run_is_deterministic():
    a = run(dict(KERNEL_SPEC))
    b = run(dict(KERNEL_SPEC))
    assert a.sigma == b.sigma == 2
    assert json.dumps(a.entries) == json.dumps(b.entries)


def test_term_accounting():
    rep = run(dict(KERNEL_SPEC))
    assert rep.n_terms == 11
    for e in rep.entries:
        assert e["terms"] == e["col"] + e["n"] + 1


def test_kernel_annihilation_and_iteration_count():
    rep = run(dict(KERNEL_SPEC))
    errs = rep.errors(10)
    assert errs and errs[0][1] <= 1e-8
    # the column-10 entry exists once 2k+1 = 11 terms are consumed
    assert iterations_to_tolerance(errs, 10, 1e-6) == 11


def test_iterations_to_tolerance_none_when_unmet():
    assert iterations_to_tolerance([(0, 1.0), (1, 0.5)], 2, 1e-12) is None


def test_metrics_ride_in_notes():
    spec = dict(KERNEL_SPEC, metrics=["ratio_series", "stability_margin"])
    rep = run(spec)
    assert set(rep.notes) == {"ratio_series", "stability_margin"}
    assert "0" in rep.notes["stability_margin"]


def test_run_rejects_unknown_metrics():
    with pytest.raises(ValueError, match="ratio_serie"):
        run(dict(KERNEL_SPEC, metrics=["stability_margin", "ratio_serie"]))


def test_events_surface_in_report():
    rep = run(dict(KERNEL_SPEC))
    treated = [ev for ev in rep.events if ev["treated"]]
    assert len(treated) == 2
    assert all(ev["ratio"] < 1e-10 for ev in treated)


@pytest.mark.parametrize("variant", ["stea2", "tea2", "scalar"])
def test_run_records_only_for_the_metrics_that_read_it(monkeypatch, variant):
    # a report's events come from each append's firings, so a run records
    # nothing, and keeps no element copies, unless a metric reads the
    # recorded shadow; a full table has no shadow, so only a scalar or a
    # simplified table's notes hold those metrics, and no full table is
    # recorded for them
    from epsaccel import harness

    built, recorded = [], []

    def build_table(conf, functional):
        built.append(real(conf, functional))
        return built[-1]

    class Recorder(harness.Recorder):
        def __init__(self, table):
            recorded.append(table)
            super().__init__(table)

    real = harness.build_table
    monkeypatch.setattr(harness, "build_table", build_table)
    monkeypatch.setattr(harness, "Recorder", Recorder)
    spec = dict(KERNEL_SPEC, algorithm=dict(KERNEL_SPEC["algorithm"], variant=variant))
    plain = run(spec)
    traced = run(dict(spec, metrics=["ratio_series", "stability_margin"]))
    noted = variant != "tea2"
    assert recorded == (built[1:] if noted else [])
    if variant != "tea2":
        shadow = getattr(built[0], "scalar", built[0])
        assert len(plain.events) == len(shadow.events) > 0
    assert plain.events == traced.events
    assert plain.entries == traced.entries
    assert plain.notes == {}
    assert set(traced.notes) == ({"ratio_series", "stability_margin"} if noted else set())
    assert traced.spec["algorithm"] == spec["algorithm"]


def test_scalar_notes_are_a_simplified_tables_shadow_notes():
    # a scalar run's recorder is its own shadow: its table is the one a
    # simplified table's shadow is, fed the same reduced terms
    metrics = ["ratio_series", "stability_margin"]
    simplified = run(dict(KERNEL_SPEC, metrics=metrics))
    scalar = run(dict(KERNEL_SPEC, metrics=metrics,
                      algorithm=dict(KERNEL_SPEC["algorithm"], variant="scalar")))
    assert json.dumps(scalar.notes) == json.dumps(simplified.notes)
    assert list(scalar.notes["stability_margin"]) == ["0", "1", "2", "3", "4"]


def _report_cases():
    """Streams with a limit, by name: real, complex and matrix terms, a term
    with an inf and one with a NaN, and a complex term whose modulus
    overflows while its parts are finite."""
    rng = np.random.default_rng(4)
    y = rng.random(6) + 0.5
    geo = [0.3 + 0.8 ** n * y + 0.5 ** n * y[::-1] for n in range(14)]
    lim = np.full(6, 0.3)
    bad = [S.copy() for S in geo]
    bad[5][2], bad[8][0] = np.inf, np.nan
    huge = [S + 0j for S in geo]
    huge[4][1] = 1.5e308 + 1.5e308j
    return {
        "real": (geo, lim),
        "complex": ([(1 - 0.5j) * S for S in geo], (1 - 0.5j) * lim),
        "matrix": ([S.reshape(2, 3) for S in geo], lim.reshape(2, 3)),
        "scalars": ([S[:1].reshape(()) * (1 - 0.5j) for S in geo], np.array(0.3 - 0.15j)),
        "non-finite": (bad, lim),
        "overflow": (huge, lim + 0j),
    }


def _abs_or_inf(x):
    """``abs(x)``, or inf where Python's abs raises because a complex
    number's modulus overflows."""
    try:
        return abs(x)
    except OverflowError:
        return np.inf


@pytest.mark.parametrize("variant, case", [
    (variant, case) for variant in ("scalar", "stea1", "stea2", "tea1", "tea2")
    for case in sorted(_report_cases())])
def test_report_rows_are_the_plain_expressions(monkeypatch, tmp_path, case, variant):
    # each row's norm, validity and error are the plain numpy expressions of
    # the entry the table gave, taken as it gave it; a scalar table is fed
    # the reduced terms and compared with the reduced limit, and an error
    # whose modulus overflows is inf
    from epsaccel import harness
    from epsaccel.vectorspace import as_term

    terms, limit = _report_cases()[case]
    limit_path = tmp_path / "limit.txt"
    write_terms(limit_path, [limit])
    plain = []

    def build_table(conf, functional):
        table = real(conf, functional)
        lim = as_term(limit)
        lim = functional(lim) if variant == "scalar" else lim
        append = table.append

        def recording(term):
            out = append(term)
            plain.extend((col, n, float(np.max(np.abs(v))), bool(np.all(np.isfinite(v))),
                          float(np.max(_abs_or_inf(v - lim))))
                         for col, n, v in out if col % 2 == 0)
            return out

        table.append = recording
        return table

    real = harness.build_table
    monkeypatch.setattr(harness, "build_table", build_table)
    with np.errstate(all="ignore"):
        rep = run({"source": {"kind": "file", "terms": terms, "limit_path": str(limit_path)},
                   "algorithm": {"variant": variant, "max_k": 3}, "n_terms": len(terms)})
    rows = [(e["col"], e["n"], e["norm_inf"], e["valid"], e["error_inf"]) for e in rep.entries]
    assert repr(rows) == repr(plain)
    if case == "overflow":
        # |1.5e308 + 1.5e308j| overflows, yet the term is finite
        assert (0, 4, np.inf, True) == rows[[r[:2] for r in rows].index((0, 4))][:4]


def test_limit_of_another_shape_is_rejected_alike(tmp_path):
    # the limit is checked against the terms before any reduction, so the
    # scalar table rejects it as the element tables do, with one message
    from epsaccel import DimensionMismatchError

    terms = [np.array([1.0, 2.0, 3.0]) * 0.5 ** n for n in range(6)]
    messages = set()
    for limit in (np.zeros(2), np.array(0.0), np.zeros((3, 1))):
        path = tmp_path / "limit.txt"
        write_terms(path, [limit])
        for variant in ("scalar", "stea1", "stea2", "tea1", "tea2"):
            with pytest.raises(DimensionMismatchError) as exc:
                run({"source": {"kind": "file", "terms": terms, "limit_path": str(path)},
                     "algorithm": {"variant": variant, "max_k": 2}, "n_terms": len(terms)})
            messages.add(str(exc.value))
    assert messages == {"limit shape (2,) != term shape (3,)",
                        "limit shape () != term shape (3,)",
                        "limit shape (3, 1) != term shape (3,)"}


def test_bilinear_functional_wants_matrix_terms():
    from epsaccel import DimensionMismatchError

    for shape in ((), (4,)):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"shape {shape}")):
            build_functional({"kind": "bilinear"}, shape)
    assert build_functional({"kind": "bilinear"}, (2, 3))(np.ones((2, 3))) != 0


def test_file_source_constant_sequence(tmp_path):
    path = tmp_path / "const.txt"
    limit_path = tmp_path / "limit.txt"
    write_terms(path, [np.array(3.25)] * 6)
    write_terms(limit_path, [np.array(3.25)])
    spec = {
        "source": {"kind": "file", "path": str(path),
                   "limit_path": str(limit_path)},
        "algorithm": {"variant": "scalar", "max_k": 2, "rules": False},
        "n_terms": 6,
    }
    rep = run(spec)
    col0 = rep.column(0)
    assert all(e["error_inf"] == 0.0 and e["valid"] for e in col0)
    higher = [e for e in rep.entries if e["col"] > 0]
    assert higher and not any(e["valid"] for e in higher)


def test_report_serialization_roundtrip():
    rep = run(dict(KERNEL_SPEC))
    blob = json.loads(rep.to_json())
    assert blob["sigma"] == 2
    assert blob["entries"] == json.loads(json.dumps(rep.entries))
    csv_text = rep.to_csv()
    head, header, first = csv_text.splitlines()[:3]
    assert head.startswith("# sigma=2 peak_slots=")
    assert header.split(",") == ["col", "n", "terms", "norm_inf",
                                 "error_inf", "residual", "valid"]
    assert first.split(",")[0] == "0"


def test_report_best_prefers_smallest_error():
    rep = run(dict(KERNEL_SPEC))
    best = rep.best()
    assert best["col"] == 10 and best["error_inf"] <= 1e-8


def test_fit_geometric_rate():
    ns = list(range(20))
    rate, const = fit_geometric_rate(ns, [2.0 ** -n for n in ns])
    assert rate == pytest.approx(0.5, rel=1e-12)
    assert const == pytest.approx(1.0, rel=1e-9)
    assert fit_geometric_rate([0, 1], [1.0, 0.5]) is None  # all skipped


def test_fit_algebraic_exponent():
    ns = list(range(1, 40))
    expo, const = fit_algebraic_exponent(ns, [(n + 1.0) ** -3 for n in ns])
    assert expo == pytest.approx(3.0, rel=1e-12)
    assert const == pytest.approx(1.0, rel=1e-9)


def test_build_functional_auto():
    assert build_functional({"kind": "auto"}, (4,)).kind == "dot"
    assert build_functional({"kind": "auto"}, (3, 3)).kind == "trace"
    with pytest.raises(ValueError):
        build_functional({"kind": "entropy"}, (4,))


def test_build_table_variants():
    f = Functional.dot(np.ones(3))
    assert isinstance(build_table({"variant": "scalar", "max_k": 2}, f),
                      ScalarEpsTable)
    assert isinstance(build_table({"variant": "stea1"}, f), TopoEpsTable)
    with pytest.raises(ValueError):
        build_table({"variant": "rho"}, f)
    for variant in ("scalar", "stea1", "stea2", "tea1", "tea2"):
        with pytest.raises(ValueError):
            build_table({"variant": variant, "max_k": -1}, f)
    with pytest.raises(ValueError):
        build_source({"kind": "fibonacci"})


def test_reproduce_kernel_structure():
    out = reproduce("kernel-vector", dim=20, p=10, kmax=3)
    assert out["n_terms"] == 7
    labels = [r["algorithm"] for r in out["rows"]]
    assert len(labels) == 10 and "stea2 form 3" in labels
    for row in out["rows"]:
        assert set(row) >= {"algorithm", "sigma", "error", "error_plain",
                            "gain_orders"}


def test_kernel_protocol_makes_its_terms_once(monkeypatch):
    # the 20 runs replay one list of 2K + 1 terms
    counts = {"init": 0, "next_term": 0}
    init, next_term = KernelRecurrence.__init__, KernelRecurrence.next_term

    def counted_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counted_next_term(self):
        counts["next_term"] += 1
        return next_term(self)

    monkeypatch.setattr(KernelRecurrence, "__init__", counted_init)
    monkeypatch.setattr(KernelRecurrence, "next_term", counted_next_term)
    out = reproduce("kernel-vector")
    assert len(out["rows"]) == 10
    assert counts == {"init": 1, "next_term": 11}


@pytest.mark.parametrize("name, dim", [
    ("kernel-vector", 12), ("kernel-matrix", 12),
    # above one block a full table's f(hi, lo) sums through per-call scratch
    ("kernel-vector", BLOCK + 7)])
def test_reproduce_kernel_threads_share_the_terms(name, dim):
    # the threads share the terms and the one functional
    serial = reproduce(name, dim=dim, p=10, jobs=1)
    threaded = reproduce(name, dim=dim, p=10, jobs=2)
    assert json.dumps(serial) == json.dumps(threaded)


def test_kernel_rows_are_the_reports_entries():
    # each row reads entry (2K, 0) off its table; run reports the same entry
    # of the same table on the same terms
    from epsaccel import harness

    out = reproduce("kernel-vector", dim=20, p=12)
    kmax = out["kmax"]
    terms = KernelRecurrence(20, "vector", 0).take(out["n_terms"])
    grid = [dict(a, max_k=kmax, p=12) for a in harness._VARIANT_GRID]
    assert [r["algorithm"] for r in out["rows"]] == [harness._label(a) for a in grid]
    for row, algo in zip(out["rows"], grid):
        for rules, key in ((True, "error"), (False, "error_plain")):
            rep = run({"source": {"kind": "file", "terms": terms},
                       "algorithm": dict(algo, rules=rules),
                       "functional": {"kind": "dot"}, "n_terms": out["n_terms"]})
            final = [e["norm_inf"] for e in rep.column(2 * kmax) if e["n"] == 0]
            assert row[key] == (final[0] if final else None), (row["algorithm"], key)
            if rules:
                assert row["sigma"] == rep.sigma


def test_reproduce_rejects_unknown_name():
    with pytest.raises(ValueError):
        reproduce("perpetuum-mobile")
