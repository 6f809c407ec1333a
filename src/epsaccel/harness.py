"""Declarative experiment harness: build, run, measure, serialize.

An experiment is a plain dict-shaped spec (source, functional, algorithm,
term budget) that can live in a JSON config file, so runs are reproducible
from the command line or from tests with identical code paths.  Running one
produces a :class:`RunReport` of per-entry norms, errors when the source
knows its limit, equation residuals when it knows its equation, the singular
repair count, timing, and the storage high-water mark.

The module also carries the measurement helpers shared by the test-suite and
the command line: least-squares convergence-rate fits (geometric and power
law), term-budget bookkeeping, and canned comparison protocols for the
benchmark families (``reproduce``).
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import sequences
from .topo_eps import TeaTable, TopoEpsTable, ratio_series, stability_margin
from .scalar_eps import ScalarEpsTable
from .vectorspace import Functional, as_term

__all__ = [
    "ExperimentSpec",
    "RunReport",
    "build_source",
    "build_functional",
    "build_table",
    "run",
    "run_many",
    "fit_geometric_rate",
    "fit_algebraic_exponent",
    "iterations_to_tolerance",
    "reproduce",
]


@dataclass
class ExperimentSpec:
    """Everything needed to rebuild one run.

    ``source`` names a sequence family and its parameters, ``functional``
    the scalar reduction, ``algorithm`` the table; ``n_terms`` is the term
    budget.  ``seed`` feeds every random choice in the run.
    """

    source: dict
    algorithm: dict
    n_terms: int
    functional: dict = field(default_factory=lambda: {"kind": "auto"})
    seed: int = 0
    label: str = ""
    stop_residual: float = None
    metrics: list = None

    @classmethod
    def from_config(cls, path):
        """Load a spec from a JSON config file (one object, nested sections)."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {"source", "algorithm", "functional", "n_terms", "seed",
                 "label", "stop_residual", "metrics"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {"source", "algorithm", "n_terms"} - set(raw)
        if missing:
            raise ValueError(f"config lacks required keys: {sorted(missing)}")
        return cls(**raw)

    def to_dict(self):
        out = {
            # a file source names its terms by the path they were read from
            "source": {k: v for k, v in self.source.items() if k != "terms"},
            "algorithm": self.algorithm,
            "functional": self.functional,
            "n_terms": self.n_terms,
            "seed": self.seed,
            "label": self.label,
        }
        if self.stop_residual is not None:
            out["stop_residual"] = self.stop_residual
        if self.metrics:
            out["metrics"] = list(self.metrics)
        return out


def build_source(conf, seed=0):
    """Instantiate a sequence source from its spec dict.

    Kinds: kernel_recurrence, geometric_modes, logarithmic_modes,
    totally_monotonic, totally_oscillating, kaczmarz_parter, ns_iteration,
    qpow_iteration, smith_stein, file.
    """
    conf = dict(conf)
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
        if terms is None:
            terms = read_terms(conf.pop("path"))
        limit = None
        if conf.get("limit_path"):
            limit = read_terms(conf.pop("limit_path"))[0]
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

    def __len__(self):
        return len(self._terms)

    def limit(self):
        return self._limit

    def clone(self):
        return _ListSource(self._terms, self._limit)


def build_functional(conf, shape, seed=0):
    """Instantiate a functional matched to the term shape.

    ``kind``: auto (dot of ones for scalars/vectors, trace for matrices),
    dot, random_dot, trace, trace_weighted, bilinear.
    """
    conf = dict(conf)
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
    detection threshold and ``rules`` switches the repairs.
    """
    conf = dict(conf)
    variant = conf.pop("variant", "stea2")
    max_k = conf.pop("max_k", 5)
    p = conf.pop("p", 10)
    rules = conf.pop("rules", True)
    parity = conf.pop("parity", "both")
    form = conf.pop("form", 3)
    debug_full = conf.pop("debug_full", False)
    if variant == "scalar":
        return ScalarEpsTable(max_col=2 * max_k + 2, p_threshold=p,
                              particular_rules=rules, singular_parity=parity)
    if variant in ("stea1", "stea2"):
        return TopoEpsTable(functional, max_k, variant, form, p, rules,
                            parity, debug_full)
    if variant in ("tea1", "tea2"):
        return TeaTable(functional, max_k, variant, debug_full)
    raise ValueError(f"unknown table variant: {variant!r}")


@dataclass
class RunReport:
    """Outcome of one experiment run.

    ``entries`` has one dict per even table entry: column, superscript,
    infinity norm, error against the known limit (when there is one),
    equation residual (when the source defines one), and the term count
    ``column + n + 1`` consumed to reach it.
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

    def to_json(self, path=None, indent=2):
        blob = {
            "spec": self.spec,
            "sigma": self.sigma,
            "peak_slots": self.peak_slots,
            "n_terms": self.n_terms,
            "wall_time_s": self.wall_time_s,
            "entries": self.entries,
            "events": self.events,
            "notes": self.notes,
        }
        text = json.dumps(blob, indent=indent, default=_json_default)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path=None):
        """Entries as CSV; run-level facts ride along as # comments."""
        buf = io.StringIO()
        buf.write(f"# sigma={self.sigma} peak_slots={self.peak_slots}"
                  f" n_terms={self.n_terms} wall_time_s={self.wall_time_s:.6f}\n")
        fields = ["col", "n", "terms", "norm_inf", "error_inf", "residual", "valid"]
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for e in self.entries:
            writer.writerow(e)
        text = buf.getvalue()
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)!r}")


def run(spec, collect_residuals=None):
    """Execute one experiment and return its :class:`RunReport`.

    ``collect_residuals`` forces equation-residual evaluation on or off;
    the default evaluates them when the source has a ``residual`` method and
    the run is small enough to afford it.
    """
    if isinstance(spec, dict):
        spec = ExperimentSpec(**spec)
    src = build_source(spec.source, spec.seed)
    probe = src.clone().next_term()
    shape = np.asarray(probe).shape
    functional = build_functional(spec.functional, shape, spec.seed)
    table = build_table(spec.algorithm, functional)

    limit = src.limit()
    has_residual = hasattr(src, "residual")
    if collect_residuals is None:
        collect_residuals = has_residual and spec.n_terms <= 200
    # the scalar table is fed the reduced terms, its entries are compared
    # with the reduced limit, and residuals are of elements only
    scalar = isinstance(table, ScalarEpsTable)
    collect_residuals = collect_residuals and has_residual and not scalar
    if limit is not None:
        limit = as_term(limit)
        if scalar:
            limit = functional(limit)

    entries = []
    t0 = time.perf_counter()
    for _ in range(spec.n_terms):
        try:
            term = src.next_term()
        except StopIteration:
            break
        fed = functional(as_term(term)) if scalar else term
        for col, n, value in table.append(fed):
            if col % 2:
                continue
            row = {
                "col": col, "n": n, "terms": col + n + 1,
                "norm_inf": float(np.max(np.abs(value))),
                "valid": bool(np.all(np.isfinite(value))),
            }
            if limit is not None:
                # abs() is numpy's on arrays and Python's on the scalar
                # table's numbers, whose complex abs rounds otherwise
                row["error_inf"] = float(np.max(abs(value - limit)))
            if collect_residuals and row["valid"]:
                row["residual"] = src.residual(value)
            entries.append(row)
        if (spec.stop_residual is not None and has_residual
                and src.residual(np.asarray(term)) <= spec.stop_residual):
            break
    wall = time.perf_counter() - t0

    sigma = getattr(table, "sigma", 0)
    events = []
    shadow = table if scalar else getattr(table, "scalar", None)
    if shadow is not None:
        events = [{"k": ev.k, "n": ev.n, "ratio": ev.ratio,
                   "treated": ev.treated, "suppressed": ev.suppressed,
                   "victim": list(ev.victim) if ev.victim else None}
                  for ev in shadow.events]
    notes = {}
    for metric in spec.metrics or ():
        if metric == "ratio_series" and isinstance(table, TopoEpsTable):
            notes["ratio_series"] = {
                str(k): series for k, series in ratio_series(table).items()}
        elif metric == "stability_margin" and isinstance(table, TopoEpsTable):
            notes["stability_margin"] = {
                str(k): stability_margin(table, k)
                for k in range(table.max_k)}
    return RunReport(
        spec=spec.to_dict(), sigma=sigma,
        peak_slots=getattr(table, "peak_slots", 0),
        n_terms=min(spec.n_terms, getattr(table, "n_terms", spec.n_terms)),
        wall_time_s=wall, entries=entries, events=events, notes=notes)


def run_many(specs, jobs=1):
    """Run several experiments, optionally on a thread pool."""
    specs = list(specs)
    if jobs <= 1 or len(specs) <= 1:
        return [run(s) for s in specs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, specs))


# -- measurement helpers ------------------------------------------------------


def fit_geometric_rate(ns, errors, skip=3):
    """Least-squares per-step ratio of a geometrically decaying error series.

    Fits ``log e_n ~ log c + n log r`` after dropping the first ``skip``
    points (transients) and any non-finite or non-positive errors; returns
    ``(rate, constant)`` or None when fewer than two points survive.
    """
    pts = [(n, e) for n, e in zip(ns, errors)
           if np.isfinite(e) and e > 0.0]
    pts = pts[skip:]
    if len(pts) < 2:
        return None
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(slope)), float(np.exp(intercept))


def fit_algebraic_exponent(ns, errors, b=1.0, skip=3):
    """Least-squares fit of ``e_n ~ c * (n + b)**-p``.

    Returns ``(exponent p, constant c)`` after the same point filtering as
    :func:`fit_geometric_rate`, or None.
    """
    pts = [(n, e) for n, e in zip(ns, errors)
           if np.isfinite(e) and e > 0.0]
    pts = pts[skip:]
    if len(pts) < 2:
        return None
    x = np.log([p[0] + b for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(-slope), float(np.exp(intercept))


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
    repairs.  ``kaczmarz``, ``ns``, ``qpow``, and ``stein`` accelerate the
    application iterations and compare against the plain iterates at equal
    term consumption.
    """
    if name in ("kernel-vector", "kernel-matrix"):
        return _reproduce_kernel(name, dim, p, seed, kmax, jobs)
    if name == "kaczmarz":
        return _reproduce_solver(
            {"kind": "kaczmarz_parter", "dim": dim or 100},
            n_terms=41, kmax=kmax or 5, seed=seed, name=name)
    if name == "ns":
        return _reproduce_solver(
            {"kind": "ns_iteration", "dim": dim or 20},
            n_terms=16, kmax=kmax or 3, seed=seed, name=name)
    if name == "qpow":
        return _reproduce_solver(
            {"kind": "qpow_iteration", "dim": dim or 20},
            n_terms=16, kmax=kmax or 3, seed=seed, name=name)
    if name == "stein":
        return _reproduce_solver(
            {"kind": "smith_stein", "dim": dim or 40},
            n_terms=25, kmax=kmax or 2, seed=seed, name=name)
    raise ValueError(f"unknown protocol: {name!r}")


def _reproduce_kernel(name, dim, p, seed, kmax, jobs):
    space = "vector" if name == "kernel-vector" else "matrix"
    dim = dim or 50
    p = 12 if p is None else p
    kmax = kmax or 5
    n_terms = 2 * kmax + 1
    source = {"kind": "kernel_recurrence", "dim": dim, "space": space}
    # uniform-weight dot for vectors, plain trace for matrices: the scalar
    # shadow then sees the planted near-collisions at full strength
    functional = ({"kind": "dot"} if space == "vector"
                  else {"kind": "trace"})
    specs = []
    for algo in _VARIANT_GRID:
        for rules in (True, False):
            a = dict(algo)
            a.update(max_k=kmax, p=p, rules=rules)
            specs.append(ExperimentSpec(
                source=source, algorithm=a, functional=functional,
                n_terms=n_terms, seed=seed, label=_label(algo)))
    reports = run_many(specs, jobs)
    rows = []
    for spec_on, rep_on, rep_off in zip(specs[::2], reports[::2], reports[1::2]):
        def final_norm(rep):
            vals = [e for e in rep.entries if e["col"] == 2 * kmax and e["n"] == 0]
            return vals[0]["error_inf"] if vals else None
        on, off = final_norm(rep_on), final_norm(rep_off)
        rows.append({
            "algorithm": spec_on.label,
            "sigma": rep_on.sigma,
            "error": on,
            "error_plain": off,
            "gain_orders": (np.log10(off / on) if on and off and on > 0 else None),
        })
    return {"protocol": name, "dim": dim, "p": p, "seed": seed,
            "kmax": kmax, "n_terms": n_terms, "rows": rows}


def _reproduce_solver(source, n_terms, kmax, seed, name):
    spec = ExperimentSpec(
        source=source, algorithm={"variant": "stea2", "form": 3, "max_k": kmax},
        n_terms=n_terms, seed=seed, label=name)
    rep = run(spec)
    plain = rep.errors(0) or [(e["n"], e["residual"]) for e in rep.column(0)
                              if e.get("residual") is not None]
    rows = []
    for k in range(0, kmax + 1):
        col = 2 * k
        series = rep.errors(col)
        if not series:
            series = [(e["n"], e["residual"]) for e in rep.column(col)
                      if e.get("residual") is not None]
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
