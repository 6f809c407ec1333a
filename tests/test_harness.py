"""Experiment harness: specs, runs, reports, fits, protocols."""

import gc
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsaccel import Functional, ScalarEpsTable, SingularEvent, TopoEpsTable
from epsaccel.harness import (
    Entry,
    RunReport,
    Spool,
    build_functional,
    build_source,
    build_table,
    reproduce,
    run,
)
from epsaccel.seqio import write_terms
from epsaccel.sequences import KernelRecurrence
from epsaccel.vectorspace import as_term
from recording import Recorder, fit_algebraic_exponent, fit_geometric_rate

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
    # a file source reads its terms from a path or is given them, not both
    with pytest.raises(ValueError, match="unknown source keys: \\['path'\\]"):
        build_source({"kind": "file", "terms": [1.0, 0.5], "path": "terms.txt"})
    with pytest.raises(ValueError, match="conjugat"):
        build_functional({"kind": "dot", "conjugat": False}, (20,))
    with pytest.raises(ValueError, match="kmax"):
        build_table({"variant": "stea2", "kmax": 3}, Functional.dot(np.ones(20)))
    # a table has one storage mode; a Recorder keeps what grows with the stream
    with pytest.raises(ValueError, match="history"):
        build_table({"variant": "stea2", "history": True}, Functional.dot(np.ones(20)))
    # and one singular test, which watches every column
    for variant in ("scalar", "stea1", "stea2"):
        with pytest.raises(ValueError, match="unknown algorithm keys: \\['parity'\\]"):
            build_table({"variant": variant, "parity": "both"}, Functional.dot(np.ones(20)))
    # and so is a top-level spec key run does not read
    with pytest.raises(ValueError, match="n_term'"):
        run(dict(KERNEL_SPEC, n_term=11))
    with pytest.raises(ValueError, match="unknown spec keys: \\['metrics'\\]"):
        run(dict(KERNEL_SPEC, metrics=["stability_margin"]))


@pytest.mark.parametrize("variant", ["scalar", "stea1", "stea2", "tea1", "tea2"])
def test_a_negative_p_is_rejected_by_name(variant):
    # as the command line and reproduce reject it, whatever the table, and
    # before a scalar table's trigger could overflow
    f = Functional.dot(np.ones(20))
    for p in (-1, -309):
        with pytest.raises(ValueError, match=f"^p must be >= 0, not {p}$"):
            build_table({"variant": variant, "p": p}, f)
        with pytest.raises(ValueError, match=f"^p must be >= 0, not {p}$"):
            run(dict(KERNEL_SPEC, algorithm={"variant": variant, "p": p}))
    assert build_table({"variant": variant, "p": 0}, f) is not None


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
    assert errs[0][0] == 0


def test_events_surface_in_report(monkeypatch):
    # the report's events are every firing of the table's shadow: the scalar
    # table itself, or the one a simplified table keeps, which is fed the
    # same reduced terms and so fires alike
    from epsaccel import harness

    built = []
    build_table = harness.build_table
    monkeypatch.setattr(harness, "build_table",
                        lambda *args: built.append(build_table(*args)) or built[-1])
    reports = [run(dict(KERNEL_SPEC, algorithm=dict(KERNEL_SPEC["algorithm"], variant=v)))
               for v in ("stea2", "scalar")]
    for rep, table in zip(reports, built):
        assert len(rep.events) == len(getattr(table, "scalar", table).events) > 0
    assert reports[0].events == reports[1].events
    treated = [ev for ev in reports[0].events if ev.treated]
    assert len(treated) == 2
    assert all(ev.ratio < 1e-10 for ev in treated)


def test_a_simplified_tables_shadow_is_the_scalar_table_of_its_reduced_terms():
    # the table a simplified table's shadow records is a scalar table fed
    # the same reduced terms: every entry it gives, bit for bit, and every
    # event
    src = build_source(KERNEL_SPEC["source"])
    terms = [src.next_term() for _ in range(KERNEL_SPEC["n_terms"])]
    functional = build_functional(KERNEL_SPEC["functional"], np.shape(terms[0]))
    simplified = Recorder(build_table(KERNEL_SPEC["algorithm"], functional))
    scalar = Recorder(build_table(dict(KERNEL_SPEC["algorithm"], variant="scalar"), functional))
    for term in terms:
        simplified.append(term)
        scalar.append(functional(as_term(term)))
    shadow = simplified.shadow
    assert shadow.table.n_terms == scalar.table.n_terms == len(terms)
    assert shadow.table.max_col == scalar.table.max_col == 12
    at = [(k, n) for k in range(13) for n in range(len(terms) - k)]
    assert (np.array([shadow.entry(k, n) for k, n in at]).tobytes()
            == np.array([scalar.entry(k, n) for k, n in at]).tobytes())
    assert shadow.events == scalar.events and scalar.table.sigma == 2


def _report_cases():
    """Streams with a limit, by name: real, complex and matrix terms, a term
    with an inf and one with a NaN, in vectors and in matrices, a complex
    term whose modulus overflows while its parts are finite, a real stream
    that turns complex, and one that turns real again, whose appends from
    then on hand the report float64 and complex128 entries together; the
    latter also at length 5,000, whose appends of up to three entries the
    report stacks in one block and whose appends of four it reduces one
    entry at a time."""
    rng = np.random.default_rng(4)
    y = rng.random(6) + 0.5
    geo = [0.3 + 0.8 ** n * y + 0.5 ** n * y[::-1] for n in range(14)]
    lim = np.full(6, 0.3)
    bad = [S.copy() for S in geo]
    bad[5][2], bad[8][0] = np.inf, np.nan
    huge = [S + 0j for S in geo]
    huge[4][1] = 1.5e308 + 1.5e308j
    mixed = geo[:7] + [(1 - 0.5j) * S for S in geo[7:10]] + geo[10:]
    return {
        "real": (geo, lim),
        "complex": ([(1 - 0.5j) * S for S in geo], (1 - 0.5j) * lim),
        "matrix": ([S.reshape(2, 3) for S in geo], lim.reshape(2, 3)),
        "scalars": ([S[:1].reshape(()) * (1 - 0.5j) for S in geo], np.array(0.3 - 0.15j)),
        "non-finite": (bad, lim),
        "matrix-non-finite": ([S.reshape(3, 2) for S in bad], lim.reshape(3, 2)),
        "overflow": (huge, lim + 0j),
        "real-then-complex": (geo[:7] + [(1 - 0.5j) * S for S in geo[7:]], lim),
        "real-complex-real": (mixed, lim),
        "long-real-complex-real": ([np.resize(S, 5000) for S in mixed], np.resize(lim, 5000)),
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

    terms, limit = _report_cases()[case]
    limit_path = tmp_path / "limit.txt"
    write_terms(limit_path, [limit])
    plain, kinds = [], []

    def build_table(conf, functional):
        table = real(conf, functional)
        lim = as_term(limit)
        lim = functional(lim) if variant == "scalar" else lim
        append = table.append

        def recording(term):
            out = append(term)
            kinds.append({np.asarray(v).dtype.kind for col, n, v in out if col % 2 == 0})
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
    if case.endswith("real-complex-real") and variant != "scalar":
        # the real terms after the complex ones are column 0 of appends
        # whose other entries are still complex: the report reduced both
        # dtypes at once
        assert {"f", "c"} in kinds


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

    blob = dict(fields, entries=entries, events=events)
    order = ("spec", "sigma", "peak_slots", "n_terms", "wall_time_s", "entries", "events")
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
       wall=st.floats(0, 1e4), label=st.text(max_size=8))
def test_report_text_is_that_of_the_dict_rows(rows, events, sigma, peak_slots, n_terms,
                                              wall, label):
    # records render as the dicts did, byte for byte: the CSV fills a
    # missing error or residual with an empty field, and the JSON entry
    # names col, n, terms, norm_inf and valid before error_inf and residual
    fields = {"spec": {"label": label, "n_terms": n_terms}, "sigma": sigma,
              "peak_slots": peak_slots, "n_terms": n_terms, "wall_time_s": wall}
    entries = [Entry(**dict({"error_inf": None, "residual": None}, **row)) for row in rows]
    fired = [SingularEvent(**dict(ev, victim=None if ev["victim"] is None else tuple(ev["victim"])))
             for ev in events]
    rep = RunReport(entries=entries, events=fired, **fields)
    assert rep.to_csv() == _ref_to_csv(fields, rows)
    assert rep.to_json() == _ref_to_json(fields, rows, events)


@st.composite
def _chunks(draw, records):
    """A drawn list of records split into consecutive runs, some of them
    empty, as a run's appends hand them to a sink."""
    items = draw(records)
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=8)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


_ENTRY_CHUNKS = _chunks(st.lists(_ROWS.map(
    lambda row: Entry(**dict({"error_inf": None, "residual": None}, **row))), max_size=12))
_EVENT_CHUNKS = _chunks(st.lists(_EVENTS.map(
    lambda ev: SingularEvent(**dict(ev, victim=None if ev["victim"] is None
                                    else tuple(ev["victim"])))), max_size=6))
# over 8 KiB of text in either format, so that copying the spool crosses
# block bounds
_LONG = [Entry(col, n, col + n + 1, 0.1 * n, None if n % 3 else 2.0 ** -n, 1e-3 * n, n % 7 > 0)
         for n in range(80) for col in (0, 2, 4)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=200, deadline=None)
@given(entries=_ENTRY_CHUNKS, events=_EVENT_CHUNKS)
@example(entries=[[], _LONG[:37], [], _LONG[37:]],
         events=[[SingularEvent(2, n, 1e-12, True, False, (4, n - 1))] for n in range(1, 40)])
@example(entries=[_LONG[:100], [], _LONG[100:]], events=[[], []])
def test_a_spool_writes_the_text_of_the_list_of_its_appends(entries, events, fmt):
    # each append's records are rendered as they come, an empty append adds
    # no text, and the text is copied out as the whole list renders it
    fields = {"spec": {"label": ""}, "sigma": 1, "peak_slots": 2, "n_terms": 3,
              "wall_time_s": 0.5}
    with Spool(fmt) as entry_sink, Spool(fmt, "events") as event_sink:
        for sink, chunks in ((entry_sink, entries), (event_sink, events)):
            for chunk in chunks:
                sink.extend(chunk)
        spooled = RunReport(entries=entry_sink, events=event_sink, **fields)
        text = getattr(spooled, f"to_{fmt}")()
    listed = RunReport(entries=sum(entries, []), events=sum(events, []), **fields)
    assert (len(entry_sink), len(event_sink)) == (len(listed.entries), len(listed.events))
    assert text == getattr(listed, f"to_{fmt}")()


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


def test_report_best_skips_non_finite_keys():
    # min keeps a NaN it starts from, so a NaN error first was chosen
    bad = Entry(2, 0, 3, math.nan, math.nan, None, False)
    good = Entry(0, 1, 2, 1.0, 1e-3, None, True)
    fields = dict(spec={}, sigma=0, peak_slots=0, n_terms=2, wall_time_s=0.0)
    assert RunReport(entries=[bad, good], **fields).best() == good
    # a finite residual is chosen where no error is finite
    resid = Entry(0, 1, 2, 1.0, math.inf, 0.5, True)
    assert RunReport(entries=[bad, resid], **fields).best() == resid
    assert RunReport(entries=[bad], **fields).best() is None


def test_a_report_without_errors_or_residuals_has_no_best_entry():
    # a source with neither a limit nor an equation: best() has nothing to
    # choose by
    rep = run({"source": {"kind": "file", "terms": [1.0, 0.5, 0.25]},
               "algorithm": {"variant": "scalar"}, "n_terms": None})
    assert rep.entries and rep.best() is None


def test_a_specs_numpy_values_are_written_as_json_and_other_objects_refused():
    y = np.array([1.0, 2.0])
    spec = {"source": {"kind": "file", "terms": [y, 0.5 * y, 0.25 * y]},
            "algorithm": {"variant": "stea2", "max_k": 1}, "n_terms": None,
            "functional": {"kind": "dot", "y": y}, "seed": np.int64(3)}
    blob = json.loads(run(spec).to_json())["spec"]
    assert blob["functional"]["y"] == [1.0, 2.0] and blob["seed"] == 3
    with pytest.raises(TypeError, match="not JSON-serializable"):
        run(dict(spec, label={"a"})).to_json()


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


def test_kernel_protocol_builds_each_full_table_once(monkeypatch):
    # a full table reads neither p nor rules, so one build of tea1 and one
    # of tea2 fill both of their columns; each simplified table is built with
    # rules on, then off, in grid order
    from epsaccel import harness

    built = []
    build_table = harness.build_table

    def recorded(conf, functional):
        built.append((harness._label(conf), conf["rules"]))
        return build_table(conf, functional)

    monkeypatch.setattr(harness, "build_table", recorded)
    out = reproduce("kernel-vector", dim=12)
    assert built == [("tea1", True), ("tea2", True)] + [
        (f"{v} form {f}", rules) for v in ("stea1", "stea2") for f in (1, 2, 3, 4)
        for rules in (True, False)]
    full = [row for row in out["rows"] if row["algorithm"] in ("tea1", "tea2")]
    assert len(full) == 2 and all(row["error"] == row["error_plain"] for row in full)


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


def test_a_solver_column_with_no_entry_has_no_row():
    # kmax 9 asks for columns up to 18, but the 16 NS iterates form no entry
    # past column 12, so those columns have no series and give no row
    out = reproduce("ns", kmax=9)
    assert (out["kmax"], out["n_terms"]) == (9, 16)
    assert [row["column"] for row in out["rows"]] == [0, 2, 4, 6, 8, 10, 12]
