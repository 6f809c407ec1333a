"""Per-layer metrics of one traced session, derived from its spans.

A session is one set-up plus one pass.  Spans carry the label of the table
the benchmark was feeding when they opened, so functional, shadow and table
time is attributed per table.  Layers a workload never enters (the harness
run, file reading and the command line on ``wide``/``long``) are reported as
shares of the session, which are then zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, EXTRA, LABEL, NAME, PARENT, START, self_times

from workloads import K, SHADOWED, TABLES, TOPO


def positions(table, n_terms):
    """Entry positions the table's diagonals span (even only for stea)."""
    if type(table).__name__ == "TopoEpsTable":
        return sum(min(d, 2 * K) // 2 + 1 for d in range(n_terms))
    return sum(min(d, 2 * K) + 1 for d in range(n_terms))


def layer_metrics(tracer, wall_s, element_bytes, floor_s):
    spans = tracer.spans
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    total = defaultdict(float)       # by span name: duration
    self_by_module = defaultdict(float)
    calls = defaultdict(int)
    fn_s, fn_calls = defaultdict(float), defaultdict(int)
    shadow_self, topo_self = defaultdict(float), defaultdict(float)
    terms = defaultdict(int)         # appends to the table each label names
    shadow_series = []
    entries = 0
    for i, s in enumerate(spans):
        name, label = s[NAME], s[LABEL]
        module = name.split(".")[0]
        total[name] += dur[i]
        self_by_module[module] += own[i]
        calls[name] += 1
        if name == "vectorspace.functional":
            parent = s[PARENT]
            if parent is None or spans[parent][NAME] != name:
                fn_s[label] += dur[i]
                fn_calls[label] += 1
        elif name == "scalar_eps.append":
            shadow_self[label] += own[i]
            if label == "scalar":
                terms[label] += 1
            elif label == "stea2":
                shadow_series.append(own[i])
        elif name == "topo_eps.append":
            topo_self[label] += own[i]
            terms[label] += 1
        elif name == "harness.run":
            entries += s[EXTRA] or 0

    m = {
        "sequences.self_s": self_by_module["sequences"],
        "sequences.next_term.s": total["sequences.next_term"],
        "sequences.next_term.calls": calls["sequences.next_term"],
        "sequences.limit.s": total["sequences.limit"],
    }
    for t in TABLES:
        m[f"vectorspace.functional.s.{t}"] = fn_s[t]
        m[f"vectorspace.functional.calls_per_term.{t}"] = fn_calls[t] / terms[t]
    for t in SHADOWED:
        m[f"scalar_eps.self_ms_per_term.{t}"] = shadow_self[t] * 1e3 / terms[t]
    stea2 = tracer.tables[("stea2", "TopoEpsTable")]
    m["scalar_eps.repairs"] = stea2.sigma
    m["scalar_eps.events"] = len(stea2.scalar.events)
    m["scalar_eps.repair_share"] = stea2.sigma / stea2.n_terms
    # per stream fed to a stea2 table (solvers feeds one per accelerate run)
    ratios = []
    for lo in range(0, len(shadow_series), stea2.n_terms):
        run = shadow_series[lo:lo + stea2.n_terms]
        tenth = max(1, len(run) // 10)
        ratios.append(sum(run[-tenth:]) / sum(run[:tenth]))
    m["scalar_eps.late_early_ratio"] = statistics.median(ratios)
    for t in TOPO:
        tab = tracer.tables[(t, "TopoEpsTable" if t.startswith("s") else "TeaTable")]
        slots = positions(tab, tab.n_terms)
        m[f"topo_eps.self_ms_per_term.{t}"] = topo_self[t] * 1e3 / terms[t]
        m[f"topo_eps.invalid_share.{t}"] = len(tab.invalid) / slots
        m[f"topo_eps.peak_slots.{t}"] = getattr(tab, "peak_total", tab.peak_slots)
        # each entry past column 0 is one three-operand element update:
        # two element reads and one element write
        updates = slots - tab.n_terms - len(tab.invalid)
        m[f"topo_eps.update_bytes_per_term.{t}"] = (3 * element_bytes * updates
                                                    / tab.n_terms)
    m["topo_eps.floor_ratio.stea2"] = topo_self["stea2"] / terms["stea2"] / floor_s
    m["harness.self_s"] = self_by_module["harness"]
    m["harness.run.share"] = total["harness.run"] / wall_s
    m["harness.report.self_share"] = sum(
        own[i] for i, s in enumerate(spans) if s[NAME] == "harness.run") / wall_s
    m["harness.entries_reported"] = entries
    m["seqio.read_terms.share"] = total["seqio.read_terms"] / wall_s
    m["seqio.read_terms.calls"] = calls["seqio.read_terms"]
    m["cli.self_share"] = self_by_module["cli"] / wall_s
    return m


UNITS = {
    "sequences.self_s": "s", "sequences.next_term.s": "s",
    "sequences.next_term.calls": "count", "sequences.limit.s": "s",
    "scalar_eps.repairs": "count", "scalar_eps.events": "count",
    "scalar_eps.repair_share": "frac", "scalar_eps.late_early_ratio": "ratio",
    "topo_eps.floor_ratio.stea2": "ratio", "harness.self_s": "s",
    "harness.run.share": "frac", "harness.report.self_share": "frac",
    "harness.entries_reported": "count", "seqio.read_terms.share": "frac",
    "seqio.read_terms.calls": "count", "cli.self_share": "frac",
    "trace.overhead_frac": "frac",
}
for _t in TABLES:
    UNITS[f"vectorspace.functional.s.{_t}"] = "s"
    UNITS[f"vectorspace.functional.calls_per_term.{_t}"] = "calls/term"
for _t in SHADOWED:
    UNITS[f"scalar_eps.self_ms_per_term.{_t}"] = "ms/term"
for _t in TOPO:
    UNITS[f"topo_eps.self_ms_per_term.{_t}"] = "ms/term"
    UNITS[f"topo_eps.invalid_share.{_t}"] = "frac"
    UNITS[f"topo_eps.peak_slots.{_t}"] = "count"
    UNITS[f"topo_eps.update_bytes_per_term.{_t}"] = "B/term"
