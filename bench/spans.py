"""In-memory spans around the public calls of each epsaccel module.

A :class:`Tracer` records one span per call at a module boundary: its name,
start, end, parent span and the benchmark label (the table being measured)
that was current when it opened.  :func:`install` wraps the public entry
points of the modules on their classes and modules, so calls the program
makes internally (a table calling its functional, ``harness.run`` calling a
source) are recorded as well as the benchmark's own calls; the returned
function puts the originals back.  Spans stay in memory until
:meth:`Tracer.dump` writes them out once.

Self time is a span's duration minus the part of it that its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, LABEL, EXTRA = range(6)


class Tracer:
    """Span recorder; one per traced session."""

    def __init__(self):
        self.spans = []
        self.tables = {}
        self.label = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.label, None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, label=None):
        """A benchmark span; ``label`` names the table its children serve."""
        outer = self.label
        if label is not None:
            self.label = label
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.label = outer

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "label": s[LABEL]}) + "\n")


@contextmanager
def no_span(name, label=None):
    yield


def self_times(spans):
    """Per-span duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), spans[c][END]
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _wrap(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, idx, args, out)
        return out
    return wrapper


def _keep_table(tracer, idx, args, out):
    # the last table of each kind appended under a label, for its public
    # counters (sigma, events, invalid, peak_slots) after the pass
    if tracer.label is not None:
        tracer.tables[(tracer.label, type(args[0]).__name__)] = args[0]


def _keep_entries(tracer, idx, args, out):
    tracer.spans[idx][EXTRA] = len(out.entries)


def install(tracer):
    """Wrap the public entry points of every module; returns an undo function."""
    from epsaccel import cli, harness, scalar_eps, seqio, sequences, topo_eps, vectorspace

    patches = []

    def patch(owner, attr, name, after=None, original=None):
        old = owner.__dict__[attr]
        patches.append((owner, attr, old))
        setattr(owner, attr, _wrap(tracer, original or old, name, after))

    for public in sequences.__all__:
        cls = getattr(sequences, public)
        if isinstance(cls, type):
            for meth in ("next_term", "limit", "residual"):
                if meth in cls.__dict__:
                    patch(cls, meth, f"sequences.{meth}")
    # __call__ is bound to the original apply when the class is created, so
    # wrapping apply alone would miss every call the tables make
    fn = vectorspace.Functional
    patch(fn, "__call__", "vectorspace.functional", original=fn.__dict__["apply"])
    patch(fn, "apply", "vectorspace.functional")
    patch(scalar_eps.ScalarEpsTable, "append", "scalar_eps.append", _keep_table)
    patch(topo_eps.TopoEpsTable, "append", "topo_eps.append", _keep_table)
    patch(topo_eps.TeaTable, "append", "topo_eps.append", _keep_table)
    patch(harness, "run", "harness.run", _keep_entries)
    patch(harness, "reproduce", "harness.reproduce")
    for builder in ("build_source", "build_functional", "build_table"):
        patch(harness, builder, "harness.build")
    patch(seqio, "read_terms", "seqio.read_terms")
    patch(seqio, "write_terms", "seqio.write_terms")
    patch(cli, "main", "cli.main")

    def undo():
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)
    return undo
