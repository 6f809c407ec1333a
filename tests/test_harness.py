"""Experiment harness: specs, runs, reports, fits, protocols."""

import gc
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsaccel import ScalarEpsTable, SingularEvent, TopoEpsTable, Functional
from epsaccel.harness import (
    Entry,
    RunReport,
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
        assert e.terms == e.col + e.n + 1


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
    treated = [ev for ev in rep.events if ev.treated]
    assert len(treated) == 2
    assert all(ev.ratio < 1e-10 for ev in treated)


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
    rows = [(e.col, e.n, e.norm_inf, e.valid, e.error_inf) for e in rep.entries]
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
    assert all(e.error_inf == 0.0 and e.valid for e in col0)
    higher = [e for e in rep.entries if e.col > 0]
    assert higher and not any(e.valid for e in higher)


def test_report_serialization_roundtrip():
    rep = run(dict(KERNEL_SPEC))
    blob = json.loads(rep.to_json())
    assert blob["sigma"] == 2
    assert blob["entries"] == [{k: v for k, v in e._asdict().items() if v is not None}
                               for e in rep.entries]
    csv_text = rep.to_csv()
    head, header, first = csv_text.splitlines()[:3]
    assert head.startswith("# sigma=2 peak_slots=")
    assert header.split(",") == ["col", "n", "terms", "norm_inf",
                                 "error_inf", "residual", "valid"]
    assert first.split(",")[0] == "0"


# -- the report's text against the dict rows it was once rendered from --------

# the CSV columns, and the rendering of a report whose entries and events
# were dicts; an entry's dict held error_inf and residual only when known
_REF_CSV_FIELDS = ("col", "n", "terms", "norm_inf", "error_inf", "residual", "valid")


def _ref_to_csv(fields, entries):
    lines = [f"# sigma={fields['sigma']} peak_slots={fields['peak_slots']}"
             f" n_terms={fields['n_terms']} wall_time_s={fields['wall_time_s']:.6f}\n"
             + ",".join(_REF_CSV_FIELDS)]
    lines += [",".join("" if (v := e.get(key)) is None else str(v) for key in _REF_CSV_FIELDS)
              for e in entries]
    lines.append("")
    return "\r\n".join(lines)


def _ref_to_json(fields, entries, events):
    from epsaccel.harness import _json_default

    blob = dict(fields, entries=entries, events=events, notes=fields["notes"])
    order = ("spec", "sigma", "peak_slots", "n_terms", "wall_time_s", "entries", "events",
             "notes")
    return json.dumps({key: blob[key] for key in order}, indent=2, default=_json_default)


_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
_ROWS = st.builds(
    lambda col, n, norm, valid, error, residual: {
        "col": col, "n": n, "terms": col + n + 1, "norm_inf": norm, "valid": valid,
        **({} if error is None else {"error_inf": error}),
        **({} if residual is None else {"residual": residual})},
    st.integers(0, 12), st.integers(0, 10_000), _FLOATS, st.booleans(),
    st.none() | _FLOATS, st.none() | _FLOATS)
_EVENTS = st.builds(
    lambda k, n, ratio, treated, suppressed, victim: {
        "k": k, "n": n, "ratio": ratio, "treated": treated, "suppressed": suppressed,
        "victim": None if victim is None else list(victim)},
    st.integers(0, 12), st.integers(0, 10_000), _FLOATS, st.booleans(), st.booleans(),
    st.none() | st.tuples(st.integers(0, 15), st.integers(0, 10_000)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROWS, max_size=12), events=st.lists(_EVENTS, max_size=6),
       sigma=st.integers(0, 50), peak_slots=st.integers(0, 50), n_terms=st.integers(0, 10_000),
       wall=st.floats(0, 1e4), label=st.text(max_size=8),
       notes=st.sampled_from([{}, {"stability_margin": {"0": 1.5}}]))
def test_report_text_is_that_of_the_dict_rows(rows, events, sigma, peak_slots, n_terms,
                                              wall, label, notes):
    # records render as the dicts did, byte for byte: the CSV fills a
    # missing error or residual with an empty field, and the JSON entry
    # names col, n, terms, norm_inf and valid before error_inf and residual
    fields = {"spec": {"label": label, "n_terms": n_terms}, "sigma": sigma,
              "peak_slots": peak_slots, "n_terms": n_terms, "wall_time_s": wall,
              "notes": notes}
    entries = [Entry(**dict({"error_inf": None, "residual": None}, **row)) for row in rows]
    fired = [SingularEvent(**dict(ev, victim=None if ev["victim"] is None else tuple(ev["victim"])))
             for ev in events]
    rep = RunReport(entries=entries, events=fired, **fields)
    assert rep.to_csv() == _ref_to_csv(fields, rows)
    assert rep.to_json() == _ref_to_json(fields, rows, events)


@pytest.mark.parametrize("variant", ["stea2", "tea2"])
def test_a_report_keeps_a_few_hundred_bytes_per_entry(variant):
    # a fixed-field record per entry and the shadow's own slotted events:
    # 235 (stea2, 0.58 events per entry) and 162 (tea2) bytes per entry on
    # this stream under CPython 3.11, where a dict per entry and per event
    # took 517 and 330
    rng = np.random.default_rng(3)
    source = {"kind": "geometric_modes", "limit": rng.random(20) + 0.5,
              "amps": [1.0] * 5, "rates": [0.9, 0.8, 0.7, 0.6, 0.5],
              "modes": [rng.random(20) + 0.5 for _ in range(5)]}
    spec = {"source": source, "algorithm": {"variant": variant, "max_k": 5}, "n_terms": 200}
    run(spec)
    gc.collect()
    tracemalloc.start()
    try:
        rep = run(spec)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rep.entries) > 1000
    assert kept / len(rep.entries) <= 280


def _five_modes_file(path, count):
    """A five-mode geometric stream of dim 20 written to ``path``, and its
    limit; it repairs on most terms."""
    rng = np.random.default_rng(5)
    source = build_source({"kind": "geometric_modes", "limit": rng.random(20) + 0.5,
                           "amps": [1.0] * 5, "rates": [0.9, 0.8, 0.7, 0.6, 0.5],
                           "modes": [rng.random(20) + 0.5 for _ in range(5)]})
    write_terms(path, source.take(count))
    return source.limit()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant", ["scalar", "stea1", "stea2", "tea1", "tea2"])
def test_a_spooled_report_writes_the_text_of_a_listed_one(tmp_path, variant, fmt):
    # the spool renders each append's entries, and its events once the next
    # append's repairs have marked them, as the listed report renders them
    # at the end; a budget of None reads the whole file and records its count
    from epsaccel.harness import Spool

    path, limit_path = tmp_path / "terms.txt", tmp_path / "limit.txt"
    write_terms(limit_path, [_five_modes_file(path, 150)])
    spec = {"source": {"kind": "file", "path": str(path), "limit_path": str(limit_path)},
            "algorithm": {"variant": variant, "max_k": 4}, "n_terms": 150}
    listed = run(spec)
    assert variant.startswith("tea") or any(ev.treated for ev in listed.events)
    with Spool(fmt) as entries, Spool(fmt, "events") as events:
        spooled = run(dict(spec, n_terms=None), entries, events)
        assert (len(entries), len(events)) == (len(listed.entries), len(listed.events))
        out = io.StringIO()
        getattr(spooled, f"write_{fmt}")(out)
    timing = r'"?wall_time_s"?[:=]\s*[-+0-9.eE]+'
    assert spooled.spec["n_terms"] == 150
    assert re.sub(timing, "", out.getvalue()) == re.sub(timing, "", getattr(listed, f"to_{fmt}")())
    with pytest.raises(ValueError, match="cannot be written"):
        spooled.write_csv(io.StringIO()) if fmt == "json" else spooled.write_json(io.StringIO())


def test_report_best_prefers_smallest_error():
    rep = run(dict(KERNEL_SPEC))
    best = rep.best()
    assert best.col == 10 and best.error_inf <= 1e-8


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_kernel_protocol_builds_each_full_table_once(monkeypatch, jobs):
    # a full table reads neither p nor rules, so one build of tea1 and one
    # of tea2 fill both of their columns
    from epsaccel import harness

    built = []

    class CountedTeaTable(harness.TeaTable):
        def __init__(self, functional, max_k, variant):
            built.append(variant)
            super().__init__(functional, max_k, variant)

    monkeypatch.setattr(harness, "TeaTable", CountedTeaTable)
    out = reproduce("kernel-vector", dim=12, jobs=jobs)
    assert sorted(built) == ["tea1", "tea2"]
    full = [row for row in out["rows"] if row["algorithm"] in ("tea1", "tea2")]
    assert len(full) == 2 and all(row["error"] == row["error_plain"] for row in full)


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
            final = [e.norm_inf for e in rep.column(2 * kmax) if e.n == 0]
            assert row[key] == (final[0] if final else None), (row["algorithm"], key)
            if rules:
                assert row["sigma"] == rep.sigma


def test_reproduce_rejects_unknown_name():
    with pytest.raises(ValueError):
        reproduce("perpetuum-mobile")


@pytest.mark.parametrize("name", ["kernel-vector", "kernel-matrix", "kaczmarz", "ns",
                                  "qpow", "stein"])
@pytest.mark.parametrize("arg, value", [("dim", 0), ("kmax", -1)])
def test_reproduce_rejects_a_bad_dim_or_kmax_before_building(monkeypatch, name, arg, value):
    from epsaccel import harness

    def unbuilt(*args, **kwargs):
        raise AssertionError("built before the arguments were checked")

    monkeypatch.setattr(harness, "run", unbuilt)
    monkeypatch.setattr(harness.sequences, "KernelRecurrence", unbuilt)
    with pytest.raises(ValueError, match=f"^{arg} must be >= "):
        reproduce(name, **{arg: value})


@pytest.mark.parametrize("name", ["kernel-vector", "kernel-matrix"])
def test_kernel_protocols_reject_a_negative_p_before_building(monkeypatch, name):
    # 10**-p above 1 would make every pair fire, and -p past 308 overflows
    from epsaccel import harness

    def unbuilt(*args, **kwargs):
        raise AssertionError("built before p was checked")

    monkeypatch.setattr(harness.sequences, "KernelRecurrence", unbuilt)
    for p in (-1, -400):
        with pytest.raises(ValueError, match=f"^p must be >= 0, not {p}$"):
            reproduce(name, p=p)


@pytest.mark.parametrize("name", ["kaczmarz", "ns", "qpow", "stein"])
def test_solver_protocols_reject_p_before_building(monkeypatch, name):
    # their table runs at its default threshold, so a p would be ignored
    from epsaccel import harness

    def unbuilt(*args, **kwargs):
        raise AssertionError("built before p was checked")

    monkeypatch.setattr(harness, "run", unbuilt)
    with pytest.raises(ValueError, match=f"^p applies only to the kernel protocols, "
                                         f"not to {name}$"):
        reproduce(name, p=10)


def test_reproduce_qpow_rows_are_the_runs_best_residuals():
    # the source knows no limit: each row is its column's smallest equation
    # residual, against the plain iterate that consumed as many terms
    out = reproduce("qpow")
    assert (out["protocol"], out["n_terms"], out["kmax"]) == ("qpow", 16, 3)
    rep = run({"source": out["source"],
               "algorithm": {"variant": "stea2", "form": 3, "max_k": 3},
               "n_terms": 16})
    assert out["sigma"] == rep.sigma and not rep.errors(0)

    def residuals(col):
        return [(e.n, e.residual) for e in rep.column(col)]

    assert [row["column"] for row in out["rows"]] == [0, 2, 4, 6]
    for row in out["rows"]:
        assert (row["at_n"], row["best"]) == min(residuals(row["column"]), key=lambda t: t[1])
        assert row["terms"] == row["column"] + row["at_n"] + 1 <= 16
        assert row["plain_same_terms"] == [r for n, r in residuals(0) if n < row["terms"]][-1]
    # the plain iterates themselves converge to rounding
    assert out["rows"][0]["best"] < 1e-12 and out["rows"][0]["gain_orders"] == 0.0
