"""Declarative experiment harness: build, run, measure, serialize.

An experiment is a plain spec dict, so the command line and the tests build
runs through identical code paths.  Its keys, which :func:`run` reads:

``source``
    a sequence family and its parameters (:func:`build_source`);
``algorithm``
    the table (:func:`build_table`);
``functional``
    the scalar reduction (:func:`build_functional`), default
    ``{"kind": "auto"}``;
``n_terms``
    the term budget, or None for every term of a finite source;
``seed``
    feeds every random choice in the run, default 0;
``label``
    a name carried into the report, default ``""``.

Any other key is an error, as it is in every builder's dict.  Running one
produces a :class:`RunReport` of per-entry norms, errors when the source
knows its limit, equation residuals when it knows its equation, the
singular repair count, timing, and the storage high-water mark.  Each entry
is one fixed-field :class:`Entry` record and each event the shadow's own
:class:`~epsaccel.scalar_eps.SingularEvent`; the run hands them to a sink
append by append.  A list sink keeps them, and the CSV and JSON text is
rendered from them only when asked for; a :class:`Spool` renders them into
a temporary file and keeps only their count, so a run over a file holds one
term, the table's O(K) state and none of the records.  Every table is
reported through one path, which chooses by the shape of an entry (a number
of the scalar table, or an array of an element table) and never by the
table's kind; a limit must have the terms' shape, whatever the table.

The module also carries canned comparison protocols for the benchmark
families (``reproduce``), which the command line runs.  The kernel
protocols read the one entry they compare straight off each table, without
a report.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import sequences
from .topo_eps import TeaTable, TopoEpsTable
from .scalar_eps import ScalarEpsTable, _abs_any
from .vectorspace import _F64, BLOCK, DimensionMismatchError, Functional, as_term

__all__ = [
    "Entry",
    "RunReport",
    "Spool",
    "build_source",
    "build_functional",
    "build_table",
    "run",
    "reproduce",
    "PROTOCOLS",
]


def _spent(conf, what):
    """Raise on the keys of a spec dict that its builder did not pop."""
    if conf:
        raise ValueError(f"unknown {what} keys: {sorted(conf)}")


def build_source(conf, seed=0):
    """Instantiate a sequence source from its spec dict.

    Kinds: kernel_recurrence, geometric_modes, kaczmarz_parter,
    ns_iteration, qpow_iteration, smith_stein, file.  A key the kind does
    not read is an error.
    """
    conf = dict(conf)
    src = _source(conf, seed)
    _spent(conf, "source")
    return src


def _source(conf, seed):
    """The source ``build_source`` makes, popping the keys it reads."""
    kind = conf.pop("kind")
    seed = conf.pop("seed", seed)
    if kind == "kernel_recurrence":
        return sequences.KernelRecurrence(
            conf.pop("dim"), conf.pop("space", "vector"), seed,
            conf.pop("perturbation", 1e-11))
    if kind == "geometric_modes":
        if "modes" in conf:
            return sequences.GeometricModes(
                conf.pop("limit"), conf.pop("amps"), conf.pop("rates"),
                conf.pop("modes"), conf.pop("alternating", False))
        return sequences.GeometricModes.random(
            conf.pop("dim"), conf.pop("rates"), seed,
            conf.pop("alternating", False))
    if kind == "kaczmarz_parter":
        return sequences.KaczmarzSweeps.parter(conf.pop("dim"))
    if kind == "ns_iteration":
        return sequences.NsIterationSource.random(
            conf.pop("dim"), conf.pop("norm", 0.4), seed)
    if kind == "qpow_iteration":
        return sequences.QpowIterationSource.random(
            conf.pop("dim"), conf.pop("norm", 0.3), conf.pop("q", 0.5),
            seed, conf.pop("gamma", 0.9985))
    if kind == "smith_stein":
        return sequences.SmithSource.random(
            conf.pop("dim"), conf.pop("rho", 0.9), conf.pop("n_rhs", 3), seed)
    if kind == "file":
        from . import seqio
        # the file's terms, as read_terms yields them, or an iterable of
        # terms the caller has begun to read or parsed itself
        terms = conf.pop("terms", None)
        if terms is None:
            terms = seqio.read_terms(conf.pop("path"))
        limit_path = conf.pop("limit_path", None)
        limit = seqio.first_term(limit_path) if limit_path else None
        return _FileSource(terms, limit)
    raise ValueError(f"unknown source kind: {kind!r}")


class _FileSource(sequences._Source):
    """The terms of an iterable, each once, with an optional known limit."""

    def __init__(self, terms, limit=None):
        self._terms = iter(terms)
        self._limit = limit

    def __iter__(self):
        return self._terms

    def next_term(self):
        return next(self._terms)

    def limit(self):
        return self._limit


def build_functional(conf, shape, seed=0):
    """Instantiate a functional matched to the term shape.

    ``kind``: auto (dot of ones for scalars/vectors, trace for matrices),
    dot, random_dot, trace, trace_weighted, bilinear.  A key the kind does
    not read is an error.
    """
    conf = dict(conf)
    functional = _functional(conf, shape, seed)
    _spent(conf, "functional")
    return functional


def _functional(conf, shape, seed):
    """The functional ``build_functional`` makes, popping the keys it reads.

    Only a branch that draws makes an rng of ``seed``, so a functional that
    draws nothing leaves ``numpy.random``, a costly import, unimported.
    """
    kind = conf.pop("kind", "auto")
    if kind == "auto":
        kind = "trace" if len(shape) == 2 else "dot"
    if kind == "dot":
        y = conf.pop("y", None)
        if y is None:
            y = np.ones(shape) if shape else np.array(1.0)
        return Functional.dot(np.asarray(y))
    if kind == "random_dot":
        # size () draws a 0-d array of the first double, as a scalar draw would
        return Functional.dot(np.random.default_rng(seed).random(shape))
    if kind == "trace":
        return Functional.trace()
    if kind == "trace_weighted":
        Y = conf.pop("Y", None)
        if Y is None:
            Y = np.random.default_rng(seed).random(shape)
        return Functional.trace_weighted(np.asarray(Y))
    if kind == "bilinear":
        if len(shape) != 2:
            raise DimensionMismatchError(
                f"bilinear functional wants matrix terms, not shape {shape}")
        u = conf.pop("u", None)
        v = conf.pop("v", None)
        if u is None or v is None:
            rng = np.random.default_rng(seed)
            u = rng.random(shape[0]) if u is None else u
            v = rng.random(shape[1]) if v is None else v
        return Functional.bilinear(np.asarray(u), np.asarray(v))
    raise ValueError(f"unknown functional kind: {kind!r}")


def build_table(conf, functional):
    """Instantiate a table from its spec dict.

    ``variant``: scalar, tea1, tea2, stea1, stea2.  ``max_k`` bounds the
    transform order; ``form`` picks the coefficient formula for the
    simplified variants; ``p`` (decimal digits, at least 0) sets the
    singular-block detection threshold and ``rules`` switches the repairs;
    the detection watches every column.  Any other key is an error.
    """
    conf = dict(conf)
    variant = conf.pop("variant", "stea2")
    max_k = conf.pop("max_k", 5)
    p = conf.pop("p", 10)
    rules = conf.pop("rules", True)
    form = conf.pop("form", 3)
    _spent(conf, "algorithm")
    if p < 0:
        raise ValueError(f"p must be >= 0, not {p}")
    if variant == "scalar":
        if max_k < 0:
            raise ValueError("max_k must be >= 0")
        return ScalarEpsTable(max_col=2 * max_k + 2, p_threshold=p,
                              particular_rules=rules)
    if variant in ("stea1", "stea2"):
        return TopoEpsTable(functional, max_k, variant, form, p, rules)
    if variant in ("tea1", "tea2"):
        return TeaTable(functional, max_k, variant)
    raise ValueError(f"unknown table variant: {variant!r}")


class Entry(NamedTuple):
    """One even table entry of a report; its fields are the CSV's columns,
    in order, and a field the CSV leaves empty is None."""

    col: int
    n: int
    # the term count col + n + 1 consumed to reach the entry
    terms: int
    norm_inf: float
    # against the known limit, when there is one
    error_inf: float | None
    # of the source's equation, when it has one and the entry is a finite element
    residual: float | None
    valid: bool


@dataclass
class RunReport:
    """Outcome of one experiment run.

    ``entries`` has one :class:`Entry` per even table entry, the same for
    every table: column, superscript, infinity norm, error against the known
    limit (when there is one, of the terms' shape), equation residual (when
    the source defines one and the entry is an element), and the term count
    ``column + n + 1`` consumed to reach it.  ``events`` holds the
    :class:`~epsaccel.scalar_eps.SingularEvent` records of the table's
    shadow, in firing order.  Each is the sink :func:`run` handed them to:
    a list, which holds every record and which ``column``, ``errors`` and
    ``best`` read, or a :class:`Spool`, which holds their text in a
    temporary file.  ``len`` counts the records of either.  ``write_csv``
    and ``write_json`` write the report as text to a stream, rendering a
    list's records or copying a spool's text; ``to_csv`` and ``to_json``
    return that text.
    """

    spec: dict
    sigma: int
    peak_slots: int
    n_terms: int
    wall_time_s: float
    entries: list
    events: list = field(default_factory=list)

    def column(self, col):
        """Entries of one even column, ordered by superscript."""
        rows = [e for e in self.entries if e.col == col]
        rows.sort(key=attrgetter("n"))
        return rows

    def errors(self, col):
        """``(n, error)`` pairs of a column, skipping unknown errors."""
        return [(e.n, e.error_inf) for e in self.column(col) if e.error_inf is not None]

    def best(self):
        """Entry with the smallest finite error, else smallest finite
        residual; None where neither is finite anywhere."""
        for key in ("error_inf", "residual"):
            keyed = [e for e in self.entries
                     if getattr(e, key) is not None and math.isfinite(getattr(e, key))]
            if keyed:
                return min(keyed, key=attrgetter(key))
        return None

    def write_json(self, out):
        """Write the report to the text stream ``out`` as indented JSON, its
        fields in their order, as ``json.dumps(indent=2)`` lays them out.

        An entry is an object of its column, superscript, term count, norm
        and validity, then its error and residual where it has them; an
        event is an object of its fields."""
        head = {k: v for k, v in vars(self).items() if k not in ("entries", "events")}
        # the head's text up to its closing brace, then the rest of the fields
        out.write(_ENCODER.encode(head)[:-2])
        for kind in ("entries", "events"):
            records = getattr(self, kind)
            out.write(f',\n  "{kind}": ')
            if not len(records):
                out.write("[]")
                continue
            out.write("[\n    ")
            _write_records(records, "json", kind, out)
            out.write("\n  ]")
        out.write("\n}")

    def write_csv(self, out):
        """Write the entries to the text stream ``out`` as CSV; run-level
        facts ride along as # comments.

        The rows are those ``csv.writer`` writes: ``\\r\\n`` line ends, ``str``
        of each value and an empty field for a missing one; the values are
        numbers and booleans, which no field quotes."""
        out.write(f"# sigma={self.sigma} peak_slots={self.peak_slots}"
                  f" n_terms={self.n_terms} wall_time_s={self.wall_time_s:.6f}\n"
                  + ",".join(Entry._fields) + "\r\n")
        _write_records(self.entries, "csv", "entries", out)

    def to_json(self):
        """The report as the text :meth:`write_json` writes."""
        out = io.StringIO()
        self.write_json(out)
        return out.getvalue()

    def to_csv(self):
        """The report as the text :meth:`write_csv` writes."""
        out = io.StringIO()
        self.write_csv(out)
        return out.getvalue()


def _json_record(fields, values):
    """A report's record, given as its fields' names and values, as the JSON
    object ``json.dumps(indent=2)`` lays out two levels deep: each field in
    order that is not None, bar an event's ``victim``."""
    return "{" + ",".join([f'\n      "{name}": {_json_value(v)}' for name, v in zip(fields, values)
                           if v is not None or name == "victim"]) + "\n    }"


def _json_value(v):
    """A field's value as the JSON encoder spells it: a float's ``repr``, or
    ``NaN``, ``Infinity`` or ``-Infinity``; a pair as a list one level
    deeper."""
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, float):
        return ("NaN" if v != v else "Infinity" if v == math.inf
                else "-Infinity" if v == -math.inf else float.__repr__(v))
    if isinstance(v, tuple):
        return "[\n        " + ",\n        ".join(map(_json_value, v)) + "\n      ]"
    return "%d" % v


# the fields of an entry's and an event's JSON object, in order
_ENTRY_JSON = ("col", "n", "terms", "norm_inf", "valid", "error_inf", "residual")
_EVENT_JSON = ("k", "n", "ratio", "treated", "suppressed", "victim")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)!r}")


_ENCODER = json.JSONEncoder(indent=2, default=_json_default)


def _json_items(records, fields, i):
    """The records of a list that is a field of the report, from its
    ``i``-th on, as JSON objects of the named fields, each after the
    separator from the one before it."""
    values = attrgetter(*fields)
    return (",\n    " if i else "") + ",\n    ".join(
        [_json_record(fields, values(r)) for r in records])


# the text of a run of consecutive records, by format and kind, given the
# records and the index of the first; CSV shows no events
_RENDER = {
    ("csv", "entries"): lambda batch, i: "".join(
        [",".join(["" if v is None else str(v) for v in e]) + "\r\n" for e in batch]),
    ("csv", "events"): None,
    ("json", "entries"): lambda batch, i: _json_items(batch, _ENTRY_JSON, i),
    ("json", "events"): lambda batch, i: _json_items(batch, _EVENT_JSON, i),
}


def _write_records(records, fmt, kind, out):
    """Write the text of a report's entries or events, a list or a spool."""
    if isinstance(records, Spool):
        if (records.fmt, records.kind) != (fmt, kind):
            raise ValueError(f"a spool of {records.fmt} {records.kind} cannot be"
                             f" written as {fmt} {kind}")
        records.copy_to(out)
    else:
        out.write(_RENDER[fmt, kind](records, 0))


class Spool:
    """A report sink that holds the text of its records, not the records.

    The records each ``extend`` hands it are rendered at once as ``fmt``
    (``csv`` or ``json``) renders entries or events, as ``kind`` says, and
    written to a temporary file; the spool holds that file and the record
    count, which ``len`` gives.  The text is ASCII: the records are numbers
    and booleans, and JSON escapes anything else.  CSV shows no events, so
    a CSV events spool keeps the count alone.
    :meth:`RunReport.write_csv` or ``write_json`` copies the text out in
    blocks; ``close``, or leaving a ``with`` block, deletes the file.
    """

    def __init__(self, fmt, kind="entries"):
        self.fmt = fmt
        self.kind = kind
        self._render = _RENDER[fmt, kind]
        self._file = None if self._render is None else tempfile.TemporaryFile()
        self._count = 0

    def extend(self, records):
        # most appends fire no events, and an empty list renders as a stray
        # separator
        if self._file is not None and records:
            self._file.write(self._render(records, self._count).encode("ascii"))
        self._count += len(records)

    def __len__(self):
        return self._count

    def copy_to(self, out):
        """Write the spooled text to the text stream ``out``, 8 KiB at a
        time."""
        self._file.seek(0)
        for block in iter(partial(self._file.read, 1 << 13), b""):
            out.write(block.decode("ascii"))

    def close(self):
        if self._file is not None:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _max_abs(x, out=None):
    """``max |x|`` as a float, with ``|x|`` written into ``out`` if given."""
    return float(np.maximum.reduce(np.abs(x, out=out), axis=None))


class _Reduction:
    """The norm ``max |x|`` of each of an append's even array entries and,
    given a limit of their shape, its error ``max |x - limit|``, as lists of
    floats (None for each error without a limit), reduced in scratch arrays
    kept from one append to the next (:func:`run`'s docstring)."""

    def __init__(self, shape, limit):
        self.shape = shape
        self.limit = limit
        # the most entries that fit in one block together
        self.max_rows = BLOCK // max(1, math.prod(shape))
        # an entry's axes in the stack, after the row axis
        self.axes = tuple(range(1, len(shape) + 1))
        self.with_limit = () if limit is None else (limit,)
        # entries that fit in one block: the stack of them, one row each,
        # then their differences from the limit, its magnitudes, and views
        # of the entries' rows, also flat, and of the differences' rows
        self.stack = self.mag = self.block = self.flat = self.diffs = None
        # larger entries, one at a time: the magnitudes of one, and by
        # dtype its difference from the limit
        self.one_mag = None
        self.one_diff = {}

    def __call__(self, values):
        rows = len(values)
        if rows > self.max_rows:
            return self._one_by_one(values)
        dtype = np.result_type(*values, *self.with_limit)
        stack = self.stack
        if stack is None or stack.dtype != dtype or len(self.block) != rows:
            stack = self.stack = np.empty(
                (rows * (1 + len(self.with_limit)), *self.shape), dtype)
            self.block, self.diffs = stack[:rows], stack[rows:]
            self.flat = self.block.reshape(-1)
            # a real stack's magnitudes overwrite it
            self.mag = stack if dtype == _F64 else np.empty(stack.shape)
        np.concatenate(values, axis=None, out=self.flat)
        if self.limit is not None:
            np.subtract(self.block, self.limit, out=self.diffs)
        reduced = np.maximum.reduce(np.abs(stack, out=self.mag), axis=self.axes).tolist()
        # the norms, then the errors, or None for each without a limit
        return reduced[:rows], reduced[rows:] if self.limit is not None else [None] * rows

    def _one_by_one(self, values):
        mag = self.one_mag
        if mag is None:
            mag = self.one_mag = np.empty(self.shape)
        norms = [_max_abs(value, mag) for value in values]
        limit = self.limit
        if limit is None:
            return norms, [None] * len(values)
        errors = []
        for value in values:
            diff = self.one_diff.get(value.dtype)
            if diff is None:
                diff = self.one_diff[value.dtype] = np.empty(
                    self.shape, np.result_type(value, limit))
            errors.append(_max_abs(np.subtract(value, limit, out=diff), mag))
        return norms, errors


def run(spec, entries=None, events=None):
    """Execute one experiment, given its spec dict (module docstring), and
    return its :class:`RunReport`.

    ``source``, ``algorithm`` and ``n_terms`` are required; ``functional``
    defaults to ``{"kind": "auto"}``, ``seed`` to 0 and ``label`` to ``""``.
    A key the run does not read is an error.  The report's ``spec`` holds
    the keys in the order the module docstring lists them, with defaults
    filled in, a file source's ``terms`` left out and, for an ``n_terms`` of
    None, the count of terms the run took.
    The limit, when the source knows one, must have the terms' shape;
    another shape raises :class:`~epsaccel.vectorspace.DimensionMismatchError`
    before any term is fed, whatever the table.  Equation residuals are
    evaluated when the source has a ``residual`` method and the run is small
    enough to afford it.  The report's events are the shadow's own records
    of each append's firings: the scalar table is its own shadow, a
    simplified one (``stea1``, ``stea2``) has one, and a full one (``tea1``,
    ``tea2``) has none, so its events stay empty.

    ``entries`` and ``events`` are the sinks the run hands the
    :class:`Entry` records and the events to, through ``extend``, and which
    the report keeps; each is a new list when not given, and a
    :class:`Spool` keeps their text instead.  Each append's entries are
    handed on once it is done, and its events once the next append is done,
    since that append's repairs mark them treated.  Apart from a list sink,
    the run holds the term being fed, the table, the first term, the limit,
    one append's entries and events and the scratch of their reduction,
    whatever the stream's length.

    Every table's entries are reported through one loop, which chooses by
    the shape of what the table is fed: the scalar table's numbers (``()``)
    or the terms' arrays.  A number's norm is ``np.abs``'s and its error is
    ``abs`` of its difference from the limit, inf where that modulus
    overflows.  An append's even array entries that fit in one block
    (:data:`~epsaccel.vectorspace.BLOCK` numbers together) are reduced
    together, in one scratch stack the run keeps, in the common dtype of
    the entries and the limit: they are copied into its rows, one
    ``np.subtract`` writes their differences from the limit into the rows
    below, and one ``np.abs`` and one ``np.maximum.reduce`` over each row
    give every norm and every error.  ``max |x|`` is exact in any grouping,
    and a float64 entry copied into a complex128 stack has the same modulus
    and difference, so each is the entry's own.  Larger entries are reduced
    one at a time in scratch of one entry's size, since copying them costs
    more than the calls it saves (1.5x the time from 4e4 numbers an entry)
    and would hold a second copy of the table's newest diagonal.  Only
    where a norm is not finite is the entry checked for finite parts on its
    own, and residuals are evaluated entry by entry.
    """
    conf = dict(spec)
    source = conf.pop("source")
    spec = {
        # a file source names its terms by the path they were read from
        "source": {k: v for k, v in source.items() if k != "terms"},
        "algorithm": conf.pop("algorithm"),
        "functional": conf.pop("functional", {"kind": "auto"}),
        "n_terms": conf.pop("n_terms"),
        "seed": conf.pop("seed", 0),
        "label": conf.pop("label", ""),
    }
    _spent(conf, "spec")
    entries = [] if entries is None else entries
    events = [] if events is None else events
    src = build_source(source, spec["seed"])
    # the first term sets the functional's shape, and is fed like the rest
    first = src.next_term()
    functional = build_functional(spec["functional"], np.shape(first), spec["seed"])
    table = build_table(spec["algorithm"], functional)
    limit = src.limit()
    if limit is not None and np.shape(limit) != np.shape(first):
        raise DimensionMismatchError(
            f"limit shape {np.shape(limit)} != term shape {np.shape(first)}")

    # the scalar table is fed the reduced terms, its entries are compared
    # with the reduced limit, and residuals are of elements only
    scalar = isinstance(table, ScalarEpsTable)
    shape = () if scalar else np.shape(first)
    # the shadow, whose firings are the report's events
    shadow = table if scalar else getattr(table, "scalar", None)
    n_terms = spec["n_terms"]
    collect_residuals = (hasattr(src, "residual") and not scalar
                         and n_terms is not None and n_terms <= 200)
    if limit is not None:
        limit = functional(as_term(limit)) if scalar else as_term(limit)
    reduction = _Reduction(shape, limit) if shape else None
    # the events of the latest append, which the next one's repairs may mark
    fired = []

    # an entry is built as the plain tuple it is, without Entry's keyword
    # parsing: the report makes one per even entry of every append
    new_entry = tuple.__new__
    t0 = time.perf_counter()
    for term in itertools.islice(itertools.chain([first], src), n_terms):
        fed = functional(as_term(term)) if scalar else term
        out = table.append(fed)
        made = []
        if shape:
            # an element table returns its new even entries only
            norms, errors = reduction([value for _, _, value in out])
            for (col, n, value), norm, error in zip(out, norms, errors):
                # a complex entry's modulus can overflow while its parts are finite
                valid = math.isfinite(norm) or bool(np.isfinite(value).all())
                residual = src.residual(value) if collect_residuals and valid else None
                made.append(new_entry(Entry, (col, n, col + n + 1, norm, error, residual, valid)))
        else:
            for col, n, value in out:
                if col % 2:
                    continue
                norm = float(np.abs(value))
                # a number's difference takes abs(): Python's, or numpy's
                # scalar one, each rounding a complex modulus otherwise than
                # np.abs
                error = None if limit is None else float(_abs_any(value - limit))
                valid = math.isfinite(norm) or bool(np.isfinite(value).all())
                residual = src.residual(value) if collect_residuals and valid else None
                made.append(new_entry(Entry, (col, n, col + n + 1, norm, error, residual, valid)))
        entries.extend(made)
        if shadow is not None:
            events.extend(fired)
            fired = shadow.fired
    events.extend(fired)
    wall = time.perf_counter() - t0
    if n_terms is None:
        spec["n_terms"] = table.n_terms

    return RunReport(
        spec=spec, sigma=getattr(table, "sigma", 0),
        peak_slots=getattr(table, "peak_slots", 0), n_terms=table.n_terms,
        wall_time_s=wall, entries=entries, events=events)


# -- canned comparison protocols ----------------------------------------------

# the full tables, which have no shadow and so no repairs
_FULL = ("tea1", "tea2")
_VARIANT_GRID = (
    [{"variant": v} for v in _FULL]
    + [{"variant": "stea1", "form": f} for f in (1, 2, 3, 4)]
    + [{"variant": "stea2", "form": f} for f in (1, 2, 3, 4)]
)


def _label(algo):
    v = algo["variant"]
    return f"{v} form {algo['form']}" if "form" in algo else v


def reproduce(name, dim=None, p=None, seed=0, kmax=None):
    """Run a canned benchmark protocol; returns a dict with labelled rows.

    ``kernel-vector`` and ``kernel-matrix`` sweep every algorithm variant
    over the adversarial recurrence sequence, with and without singular
    repairs.  Runs are serial, one table after another (the command line's
    ``--jobs`` is accepted only as 1).  ``kaczmarz``, ``ns``, ``qpow``, and
    ``stein`` accelerate the application iterations with one ``stea2``
    table and compare against the plain iterates at equal term
    consumption.  ``p``, the kernel tables' detection threshold in digits,
    applies only to the kernel protocols.  ``dim``, ``p`` and ``kmax``
    left as None take the protocol's defaults (``p`` 12); a ``dim`` below
    1, a ``kmax`` or ``p`` below 0 or a ``p`` given to a solver protocol
    raises ValueError before anything is built.
    """
    for arg, value, least in (("dim", dim, 1), ("kmax", kmax, 0), ("p", p, 0)):
        if value is not None and value < least:
            raise ValueError(f"{arg} must be >= {least}, not {value}")
    if name in _KERNELS:
        return _reproduce_kernel(name, dim, p, seed, kmax)
    if name not in _SOLVERS:
        raise ValueError(f"unknown protocol: {name!r}")
    if p is not None:
        raise ValueError(f"p applies only to the kernel protocols, not to {name}")
    kind, default_dim, n_terms, default_kmax = _SOLVERS[name]
    return _reproduce_solver({"kind": kind, "dim": default_dim if dim is None else dim},
                             n_terms, default_kmax if kmax is None else kmax, seed, name)


# the solver protocols: source kind, default dim, n_terms, default kmax
_SOLVERS = {
    "kaczmarz": ("kaczmarz_parter", 100, 41, 5),
    "ns": ("ns_iteration", 20, 16, 3),
    "qpow": ("qpow_iteration", 20, 16, 3),
    "stein": ("smith_stein", 40, 25, 2),
}
_KERNELS = ("kernel-vector", "kernel-matrix")
# every protocol name, in the order the command line lists them
PROTOCOLS = _KERNELS + tuple(_SOLVERS)


def _reproduce_kernel(name, dim, p, seed, kmax):
    space = "vector" if name == "kernel-vector" else "matrix"
    dim = 50 if dim is None else dim
    p = 12 if p is None else p
    kmax = 5 if kmax is None else kmax
    n_terms = 2 * kmax + 1
    # every table is fed the one list of terms and the one functional;
    # column 0 holds the caller's terms, which no table writes into
    terms = sequences.KernelRecurrence(dim, space, seed).take(n_terms)
    # uniform-weight dot for vectors, plain trace for matrices: the scalar
    # shadow then sees the planted near-collisions at full strength
    functional = build_functional({"kind": "dot" if space == "vector" else "trace"},
                                  terms[0].shape, seed)

    def final(algo):
        """Error of entry (2K, 0), None if unformed, and the table's sigma."""
        table = build_table(algo, functional).extend(terms)
        value = table.entry(2 * kmax, 0)
        # the recurrence's limit is exactly zero, so the error is the norm
        return (None if value is None else _max_abs(value)), getattr(table, "sigma", 0)

    rows = []
    for algo in _VARIANT_GRID:
        algo = dict(algo, max_k=kmax, p=p)
        on, sigma = final(dict(algo, rules=True))
        # a full table reads neither p nor rules, so it is built once and
        # its error fills both columns
        off = on if algo["variant"] in _FULL else final(dict(algo, rules=False))[0]
        rows.append({
            "algorithm": _label(algo),
            "sigma": sigma,
            "error": on,
            "error_plain": off,
            "gain_orders": (np.log10(off / on) if on and off and on > 0 else None),
        })
    return {"protocol": name, "dim": dim, "p": p, "seed": seed,
            "kmax": kmax, "n_terms": n_terms, "rows": rows}


def _reproduce_solver(source, n_terms, kmax, seed, name):
    rep = run({"source": source,
               "algorithm": {"variant": "stea2", "form": 3, "max_k": kmax},
               "n_terms": n_terms, "seed": seed, "label": name})

    def series_of(col):
        """A column's ``(n, error)`` series, else its ``(n, residual)``."""
        return rep.errors(col) or [(e.n, e.residual) for e in rep.column(col)
                                   if e.residual is not None]

    plain = series_of(0)
    rows = []
    for k in range(0, kmax + 1):
        col = 2 * k
        series = series_of(col)
        if not series:
            continue
        n_best, best = min(series, key=lambda t: t[1] if np.isfinite(t[1]) else np.inf)
        terms_used = col + n_best + 1
        base = [v for n, v in plain if n + 1 <= terms_used]
        base_err = base[-1] if base else None
        rows.append({
            "column": col, "best": best, "at_n": n_best, "terms": terms_used,
            "plain_same_terms": base_err,
            "gain_orders": (np.log10(base_err / best)
                            if base_err and best and best > 0 else None),
        })
    return {"protocol": name, "source": source, "n_terms": n_terms,
            "kmax": kmax, "seed": seed, "sigma": rep.sigma, "rows": rows}
