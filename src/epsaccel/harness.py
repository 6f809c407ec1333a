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
    the term budget;
``seed``
    feeds every random choice in the run, default 0;
``label``
    a name carried into the report, default ``""``;
``metrics``
    names of shadow metrics to note (``ratio_series``,
    ``stability_margin``), default None.

Any other key is an error, as it is in every builder's dict.  Running one
produces a :class:`RunReport` of per-entry norms, errors when the source
knows its limit, equation residuals when it knows its equation, the
singular repair count, timing, and the storage high-water mark.  Every
table is reported through one path, which chooses by the shape of an entry
(a number of the scalar table, or an array of an element table) and never
by the table's kind; a limit must have the terms' shape, whatever the
table.

The module also carries the measurement helpers shared by the test-suite and
the command line: least-squares convergence-rate fits (geometric and power
law), term-budget bookkeeping, and canned comparison protocols for the
benchmark families (``reproduce``).  The kernel protocols read the one entry
they compare straight off each table, without a report.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import sequences
from .topo_eps import Recorder, TeaTable, TopoEpsTable, ratio_series, stability_margin
from .scalar_eps import ScalarEpsTable, _abs_any
from .vectorspace import DimensionMismatchError, Functional, as_term

__all__ = [
    "RunReport",
    "build_source",
    "build_functional",
    "build_table",
    "run",
    "fit_geometric_rate",
    "fit_algebraic_exponent",
    "iterations_to_tolerance",
    "reproduce",
]


def _spent(conf, what):
    """Raise on the keys of a spec dict that its builder did not pop."""
    if conf:
        raise ValueError(f"unknown {what} keys: {sorted(conf)}")


def build_source(conf, seed=0):
    """Instantiate a sequence source from its spec dict.

    Kinds: kernel_recurrence, geometric_modes, logarithmic_modes,
    totally_monotonic, totally_oscillating, kaczmarz_parter, ns_iteration,
    qpow_iteration, smith_stein, file.  A key the kind does not read is an
    error.
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
    if kind == "logarithmic_modes":
        dim = conf.pop("dim", None)
        if "modes" in conf:
            return sequences.LogarithmicModes(
                conf.pop("limit"), conf.pop("amps"), conf.pop("modes"),
                conf.pop("b", 1.0), conf.pop("alternating", False))
        rng = np.random.default_rng(seed)
        count = conf.pop("count", 3)
        modes = [rng.random(dim) + 0.5 for _ in range(count)]
        limit = np.zeros(dim)
        return sequences.LogarithmicModes(
            limit, [1.0] * count, modes, conf.pop("b", 1.0),
            conf.pop("alternating", False))
    if kind == "totally_monotonic":
        return sequences.TotallyMonotonicSource(
            conf.pop("dim"), conf.pop("rates"), seed)
    if kind == "totally_oscillating":
        return sequences.TotallyOscillatingSource(
            conf.pop("dim"), conf.pop("rates"), seed)
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
        from .seqio import read_terms
        # the file's terms, when the caller has parsed it already
        terms = conf.pop("terms", None)
        path = conf.pop("path") if terms is None else conf.pop("path", None)
        if terms is None:
            terms = read_terms(path)
        limit_path = conf.pop("limit_path", None)
        limit = read_terms(limit_path)[0] if limit_path else None
        return _ListSource(terms, limit)
    raise ValueError(f"unknown source kind: {kind!r}")


class _ListSource(sequences._Source):
    """Replays a fixed list of arrays, with an optional known limit."""

    def __init__(self, terms, limit=None):
        self._terms = terms
        self._limit = limit
        self._i = 0

    def next_term(self):
        if self._i >= len(self._terms):
            raise StopIteration
        t = self._terms[self._i]
        self._i += 1
        return t

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
    """The functional ``build_functional`` makes, popping the keys it reads."""
    kind = conf.pop("kind", "auto")
    seed = conf.pop("seed", seed)
    rng = np.random.default_rng(seed)
    if kind == "auto":
        kind = "trace" if len(shape) == 2 else "dot"
    if kind == "dot":
        y = conf.pop("y", None)
        if y is None:
            y = np.ones(shape) if shape else np.array(1.0)
        return Functional.dot(np.asarray(y), conf.pop("conjugate", True))
    if kind == "random_dot":
        y = rng.random(shape) if shape else np.array(rng.random())
        return Functional.dot(y, conf.pop("conjugate", True))
    if kind == "trace":
        return Functional.trace()
    if kind == "trace_weighted":
        Y = conf.pop("Y", None)
        if Y is None:
            Y = rng.random(shape)
        return Functional.trace_weighted(np.asarray(Y), conf.pop("conjugate", True))
    if kind == "bilinear":
        if len(shape) != 2:
            raise DimensionMismatchError(
                f"bilinear functional wants matrix terms, not shape {shape}")
        u = conf.pop("u", None)
        v = conf.pop("v", None)
        if u is None:
            u = rng.random(shape[0])
        if v is None:
            v = rng.random(shape[1])
        return Functional.bilinear(np.asarray(u), np.asarray(v),
                                   conf.pop("conjugate", True))
    raise ValueError(f"unknown functional kind: {kind!r}")


def build_table(conf, functional):
    """Instantiate a table from its spec dict.

    ``variant``: scalar, tea1, tea2, stea1, stea2.  ``max_k`` bounds the
    transform order; ``form`` picks the coefficient formula for the
    simplified variants; ``p`` (decimal digits) sets the singular-block
    detection threshold and ``rules`` switches the repairs.  Any other key
    is an error.
    """
    conf = dict(conf)
    variant = conf.pop("variant", "stea2")
    max_k = conf.pop("max_k", 5)
    p = conf.pop("p", 10)
    rules = conf.pop("rules", True)
    parity = conf.pop("parity", "both")
    form = conf.pop("form", 3)
    _spent(conf, "algorithm")
    if variant == "scalar":
        if max_k < 0:
            raise ValueError("max_k must be >= 0")
        return ScalarEpsTable(max_col=2 * max_k + 2, p_threshold=p,
                              particular_rules=rules, singular_parity=parity)
    if variant in ("stea1", "stea2"):
        return TopoEpsTable(functional, max_k, variant, form, p, rules, parity)
    if variant in ("tea1", "tea2"):
        return TeaTable(functional, max_k, variant)
    raise ValueError(f"unknown table variant: {variant!r}")


# the columns of a report's CSV, in order
_CSV_FIELDS = ("col", "n", "terms", "norm_inf", "error_inf", "residual", "valid")


@dataclass
class RunReport:
    """Outcome of one experiment run.

    ``entries`` has one dict per even table entry, the same for every
    table: column, superscript, infinity norm, error against the known limit
    (when there is one, of the terms' shape), equation residual (when the
    source defines one and the entry is an element), and the term count
    ``column + n + 1`` consumed to reach it.  ``to_json`` and ``to_csv``
    return the report as text.
    """

    spec: dict
    sigma: int
    peak_slots: int
    n_terms: int
    wall_time_s: float
    entries: list
    events: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def column(self, col):
        """Entries of one even column, ordered by superscript."""
        rows = [e for e in self.entries if e["col"] == col]
        rows.sort(key=lambda e: e["n"])
        return rows

    def errors(self, col):
        """``(n, error)`` pairs of a column, skipping unknown errors."""
        return [(e["n"], e["error_inf"]) for e in self.column(col)
                if e.get("error_inf") is not None]

    def best(self):
        """Entry with the smallest known error, else smallest residual."""
        keyed = [e for e in self.entries if e.get("error_inf") is not None]
        key = "error_inf"
        if not keyed:
            keyed = [e for e in self.entries if e.get("residual") is not None]
            key = "residual"
        if not keyed:
            return None
        return min(keyed, key=lambda e: e[key])

    def to_json(self):
        """The report as indented JSON text, its fields in their order."""
        return json.dumps(vars(self), indent=2, default=_json_default)

    def to_csv(self):
        """Entries as CSV text; run-level facts ride along as # comments.

        The rows are those ``csv.writer`` writes: ``\\r\\n`` line ends, ``str``
        of each value and an empty field for a missing one; the values are
        numbers and booleans, which no field quotes."""
        lines = [f"# sigma={self.sigma} peak_slots={self.peak_slots}"
                 f" n_terms={self.n_terms} wall_time_s={self.wall_time_s:.6f}\n"
                 + ",".join(_CSV_FIELDS)]
        lines += [",".join("" if (v := e.get(key)) is None else str(v) for key in _CSV_FIELDS)
                  for e in self.entries]
        # one join, so the text is built once
        lines.append("")
        return "\r\n".join(lines)


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)!r}")


# the metrics a run can note, by name: each reads the recorded shadow of a
# scalar or a simplified table, whose columns stop at 2 * max_k + 2
_NOTES = {
    "ratio_series": lambda rec: {
        str(k): series for k, series in ratio_series(rec).items()},
    "stability_margin": lambda rec: {
        str(k): stability_margin(rec, k)
        for k in range(rec.shadow.table.max_col // 2 - 1)},
}


def _max_abs(x, out=None):
    """``max |x|`` as a float, with ``|x|`` written into ``out`` if given."""
    return float(np.maximum.reduce(np.abs(x, out=out), axis=None))


def run(spec):
    """Execute one experiment, given its spec dict (module docstring), and
    return its :class:`RunReport`.

    ``source``, ``algorithm`` and ``n_terms`` are required; ``functional``
    defaults to ``{"kind": "auto"}``, ``seed`` to 0, ``label`` to ``""``
    and ``metrics`` to None.  A key the run does not read is an error.  The report's ``spec`` holds the keys in the
    order the module docstring lists them, with defaults filled in, a file
    source's parsed ``terms`` left out and ``metrics`` only when given.
    The limit, when the source knows one, must have the terms' shape;
    another shape raises :class:`~epsaccel.vectorspace.DimensionMismatchError`
    before any term is fed, whatever the table.  Equation residuals are
    evaluated when the source has a ``residual`` method and the run is small
    enough to afford it.  The metrics (``ratio_series``,
    ``stability_margin``) read the recorded shadow of a table that has one,
    the scalar table (its own shadow) or a simplified one (``stea1``,
    ``stea2``): only a run that asks such a table for one appends through a
    :class:`~epsaccel.topo_eps.Recorder`, and its notes hold them.  A full
    table (``tea1``, ``tea2``) has no shadow, so its notes stay empty.  A
    metric name not among these is an error.  The report's events are
    collected from each append's firings.

    Every table's entries are reported through one loop, which chooses by
    the shape of what the table is fed: the scalar table's numbers (``()``)
    or the terms' arrays.  A number's norm is ``np.abs``'s and its error is
    ``abs`` of its difference from the limit, inf where that modulus
    overflows.  An array's norm and error are reduced in place in scratch
    arrays the run keeps, so no entry makes a full-size temporary.
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
    metrics = conf.pop("metrics", None)
    if metrics:
        spec["metrics"] = list(metrics)
    _spent(conf, "spec")
    unknown = set(metrics or ()) - set(_NOTES)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
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
    # the shadow, whose firings are the report's events; the metrics are
    # noted only of a table with one, which alone makes it record
    shadow = table if scalar else getattr(table, "scalar", None)
    noted = list(metrics or ()) if shadow is not None else []
    rec = Recorder(table) if noted else None
    collect_residuals = hasattr(src, "residual") and spec["n_terms"] <= 200 and not scalar
    if limit is not None:
        limit = functional(as_term(limit)) if scalar else as_term(limit)
    # scratch for an array entry's magnitudes and, by the entry's dtype, for
    # its difference from the limit
    mag = np.empty(shape) if shape else None
    diffs = {}
    fired = []

    entries = []
    t0 = time.perf_counter()
    for term in itertools.islice(itertools.chain([first], src), spec["n_terms"]):
        fed = functional(as_term(term)) if scalar else term
        for col, n, value in (rec or table).append(fed):
            if col % 2:
                continue
            norm = _max_abs(value, mag) if shape else float(np.abs(value))
            # a complex entry's modulus can overflow while its parts are finite
            valid = math.isfinite(norm) or bool(np.isfinite(value).all())
            row = {"col": col, "n": n, "terms": col + n + 1,
                   "norm_inf": norm, "valid": valid}
            if limit is not None and shape:
                diff = diffs.get(value.dtype)
                if diff is None:
                    diff = diffs[value.dtype] = np.empty(shape, np.result_type(value, limit))
                row["error_inf"] = _max_abs(np.subtract(value, limit, out=diff), mag)
            elif limit is not None:
                # a number's difference takes abs(): Python's, or numpy's
                # scalar one, each rounding a complex modulus otherwise than
                # np.abs
                row["error_inf"] = float(_abs_any(value - limit))
            if collect_residuals and valid:
                row["residual"] = src.residual(value)
            entries.append(row)
        if shadow is not None:
            fired += shadow.fired
    wall = time.perf_counter() - t0

    sigma = getattr(table, "sigma", 0)
    events = [{"k": ev.k, "n": ev.n, "ratio": ev.ratio,
               "treated": ev.treated, "suppressed": ev.suppressed,
               "victim": list(ev.victim) if ev.victim else None}
              for ev in fired]
    notes = {metric: _NOTES[metric](rec) for metric in noted}
    return RunReport(
        spec=spec, sigma=sigma,
        peak_slots=getattr(table, "peak_slots", 0), n_terms=table.n_terms,
        wall_time_s=wall, entries=entries, events=events, notes=notes)


# -- measurement helpers ------------------------------------------------------


def _log_fit(ns, errors, skip, x_of):
    """Slope and intercept of the least-squares line through
    ``(x_of(n), log e_n)``, after dropping any non-finite or non-positive
    errors and then the first ``skip`` points (transients); None when fewer
    than two points survive."""
    pts = [(n, e) for n, e in zip(ns, errors) if np.isfinite(e) and e > 0.0][skip:]
    if len(pts) < 2:
        return None
    return np.polyfit(x_of([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)


def fit_geometric_rate(ns, errors, skip=3):
    """Least-squares per-step ratio of a geometrically decaying error series.

    Fits ``log e_n ~ log c + n log r`` after dropping the first ``skip``
    points (transients) and any non-finite or non-positive errors; returns
    ``(rate, constant)`` or None when fewer than two points survive.
    """
    fit = _log_fit(ns, errors, skip, lambda n: np.array(n, dtype=float))
    return None if fit is None else (float(np.exp(fit[0])), float(np.exp(fit[1])))


def fit_algebraic_exponent(ns, errors, b=1.0, skip=3):
    """Least-squares fit of ``e_n ~ c * (n + b)**-p``.

    Returns ``(exponent p, constant c)`` after the same point filtering as
    :func:`fit_geometric_rate`, or None.
    """
    fit = _log_fit(ns, errors, skip, lambda n: np.log([m + b for m in n]))
    return None if fit is None else (float(-fit[0]), float(np.exp(fit[1])))


def iterations_to_tolerance(errors, col, tol):
    """Terms needed before column ``col`` first meets ``tol``.

    ``errors`` is the ``(n, error)`` series of that column.  The entry at
    superscript n consumes the first ``col + n + 1`` terms, which is the
    count returned; None when the tolerance is never met.
    """
    for n, e in sorted(errors):
        if np.isfinite(e) and e <= tol:
            return col + n + 1
    return None


# -- canned comparison protocols ----------------------------------------------

_VARIANT_GRID = (
    [{"variant": "tea1"}, {"variant": "tea2"}]
    + [{"variant": "stea1", "form": f} for f in (1, 2, 3, 4)]
    + [{"variant": "stea2", "form": f} for f in (1, 2, 3, 4)]
)


def _label(algo):
    v = algo["variant"]
    return f"{v} form {algo['form']}" if "form" in algo else v


def reproduce(name, dim=None, p=None, seed=0, kmax=None, jobs=1):
    """Run a canned benchmark protocol; returns a dict with labelled rows.

    ``kernel-vector`` and ``kernel-matrix`` sweep every algorithm variant
    over the adversarial recurrence sequence, with and without singular
    repairs, on ``jobs`` threads.  ``kaczmarz``, ``ns``, ``qpow``, and
    ``stein`` accelerate the application iterations and compare against the
    plain iterates at equal term consumption.  ``dim``, ``p`` and ``kmax``
    left as None take the protocol's defaults.
    """
    if name in ("kernel-vector", "kernel-matrix"):
        return _reproduce_kernel(name, dim, p, seed, kmax, jobs)
    if name not in _SOLVERS:
        raise ValueError(f"unknown protocol: {name!r}")
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


def _reproduce_kernel(name, dim, p, seed, kmax, jobs):
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

    cases = [dict(algo, max_k=kmax, p=p, rules=rules)
             for algo in _VARIANT_GRID for rules in (True, False)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(final, cases))
    else:
        results = list(map(final, cases))
    rows = []
    for algo, (on, sigma), (off, _) in zip(_VARIANT_GRID, results[::2], results[1::2]):
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
        return rep.errors(col) or [(e["n"], e["residual"]) for e in rep.column(col)
                                   if e.get("residual") is not None]

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
