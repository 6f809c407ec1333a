"""Self-test of the benchmark's own logic.

    python3 bench/selftest.py

Checks the self-time arithmetic on synthetic nested spans, the span wrappers
and their removal, the reference's slowdown and the typical-pass medians on
synthetic timings, that the correctness gate flags a corrupted entry, and
runs every workload at tiny sizes, untraced and traced.  Exits 0 when every
check passes.
"""

import math
import sys

import run  # pins the environment before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from epsaccel import Functional, TopoEpsTable, sequences  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_self_times():
    # root [0, 10] has children a [1, 3] and b [2, 4], which overlap, and
    # c [5, 6], whose own child d [5.5, 5.8] does not count against root
    recs = [["root", 0.0, 10.0, None, None, None],
            ["a", 1.0, 3.0, 0, None, None],
            ["b", 2.0, 4.0, 0, None, None],
            ["c", 5.0, 6.0, 0, None, None],
            ["d", 5.5, 5.8, 3, None, None]]
    got = spans.self_times(recs)
    for have, want in zip(got, [6.0, 2.0, 2.0, 0.7, 0.3]):
        check(math.isclose(have, want, abs_tol=1e-12), f"self times {got}")


def small_stream(n=12, dim=4):
    src = sequences.GeometricModes.random(dim, [0.8, 0.5, 0.3], seed=7)
    return src.take(n), Functional.dot(np.ones(dim))


def test_spans_nest_and_undo():
    terms, f = small_stream()
    original = Functional.__dict__["__call__"]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tab = TopoEpsTable(f, 2, "stea2")
        with tracer.span("bench.table", "stea2"):
            for S in terms:
                tab.append(S)
    finally:
        undo()
    check(Functional.__dict__["__call__"] is original, "wrappers were not removed")
    names = [s[spans.NAME] for s in tracer.spans]
    check(names.count("topo_eps.append") == len(terms), "one table span per append")
    check(names.count("vectorspace.functional") == len(terms), "one functional call per term")
    for s in tracer.spans:
        if s[spans.NAME] in ("vectorspace.functional", "scalar_eps.append"):
            check(tracer.spans[s[spans.PARENT]][spans.NAME] == "topo_eps.append",
                  "functional and shadow nest under the table")
            check(s[spans.LABEL] == "stea2", "spans carry the table label")
    check(tracer.tables[("stea2", "TopoEpsTable")] is tab, "table kept for its counters")


def test_pace():
    # ticks of 1, 1, 1, then a stretch at twice the nominal time, 2, 2, 2, 2
    pace = Pace(4, 1, 1.0, window=1)
    pace.samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    check(pace.slowdown(0) == 1.0 and pace.slowdown(2) == 1.0, "slowdown before")
    check(pace.slowdown(3) == 2.0 and pace.slowdown(6) == 2.0, "slowdown after")
    check(pace.tick() == 7 and len(pace.samples) == 8, "tick returns its index")
    # a stall in one pass at each position is dropped by the median
    passes = [[1.0, 5.0, 1.0], [1.0, 1.0, 9.0], [2.0, 1.0, 1.0]]
    check(workloads.typical(passes) == [1.0, 1.0, 1.0], "typical pass")
    lat = workloads.typical_latencies(pace, [{"stea2": [(0, [1.0, 3.0]), (4, [4.0])]}])
    check(lat == [1.0, 3.0, 2.0], f"latencies at nominal speed: {lat}")


class Corrupted:
    """A table whose entry at one position is shifted."""

    def __init__(self, table, col, n):
        self.table, self.col, self.n = table, col, n

    def entry(self, col, n):
        e = self.table.entry(col, n)
        if (col, n) == (self.col, self.n):
            return gate.values(e) + 1e-3
        return e


def test_gate_flags_corruption():
    terms, f = small_stream()
    tab = TopoEpsTable(f, 2, "stea2")
    for S in terms:
        tab.append(S)
    clean = gate.Gate()
    gate.DiagonalChecker(clean, terms, f, 2).check(tab, "stea2", len(terms))
    check(clean.checked == 3 and clean.failed == 0, f"clean table: {vars(clean)}")
    bad = gate.Gate()
    gate.DiagonalChecker(bad, terms, f, 2).check(Corrupted(tab, 4, len(terms) - 5),
                                                 "stea2", len(terms))
    check(bad.failed == 1, f"corrupted entry not flagged: {vars(bad)}")


def test_smoke():
    run.OUT.mkdir(exist_ok=True)
    for name, w in run.build_workloads(smoke=True).items():
        metrics, g, _ = run.measure(w, 3, 0, 0)
        check(g.failed == 0 and g.checked > 0, f"{name} gate: {g.failures}")
        check(set(metrics) == set(run.END_TO_END_UNITS), f"{name} end-to-end names")
        check(all(math.isfinite(v) and v > 0 for v, _ in metrics.values()),
              f"{name} end-to-end values {metrics}")
        metrics, g, _ = run.measure_traced(w, 3, 0, run.OUT / f"selftest-{name}.jsonl")
        check(g.failed == 0, f"{name} traced gate: {g.failures}")
        check(set(metrics) == set(layers.UNITS), f"{name} per-layer names")
        check(all(math.isfinite(v) for v, _ in metrics.values()), f"{name} per-layer values")


def main():
    tests = [test_self_times, test_spans_nest_and_undo, test_pace,
             test_gate_flags_corruption, test_smoke]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
