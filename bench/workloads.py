"""The benchmark's workloads and the metrics taken from them.

``wide`` and ``long`` feed one pre-generated five-mode geometric stream to
all five tables through ``append``; ``solvers`` drives the command line
in-process.  Each workload has a ``setup`` (sources, terms, input files,
tables), a ``run_pass`` that calls ``tick`` before every step it times and
returns each step's CPU seconds with the index of its tick, an
``end_to_end`` that reduces the passes to metrics at the nominal host speed
(``pace.py``), a ``verify`` that runs the correctness gate, and a ``peak``
pass under ``tracemalloc``.  The program is
reached only through public names: the harness builders, sources, table
``append``/``entry`` and their public counters, ``Functional``,
``seqio.read_terms``/``write_terms`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from epsaccel import cli, harness, oracle, seqio

import gate as gate_mod
from pace import clock, no_tick
from spans import no_span

K = 5
# streams of the family whose stea2 errors make err_digits (see Stream.verify)
ERR_STREAMS = 4
RATES = (0.9, 0.8, 0.7, 0.6, 0.5)
TABLES = ("scalar", "stea1", "stea2", "tea1", "tea2")
TOPO = ("stea1", "stea2", "tea1", "tea2")
SHADOWED = ("scalar", "stea1", "stea2")
_EPS = float(np.finfo(np.float64).eps)


def five_modes(dim, seed, nonzero_limit):
    """Source spec of the five-mode geometric family (rates 0.9 .. 0.5)."""
    if not nonzero_limit:
        return {"kind": "geometric_modes", "dim": dim, "rates": list(RATES)}
    rng = np.random.default_rng(seed)
    modes = [rng.random(dim) + 0.5 for _ in RATES]
    return {"kind": "geometric_modes", "limit": rng.random(dim) + 0.5,
            "amps": [1.0] * len(RATES), "rates": list(RATES), "modes": modes}


def checkpoints(n_terms):
    """Term counts after which newest diagonals are checked: 12, 24, 48, .., n."""
    out, c = {n_terms}, 12
    while c < n_terms:
        out.add(c)
        c *= 2
    return sorted(out)


def err_digits(errors, initial, limit_norm):
    """Digits gained over the initial error by the median of ``errors``.

    The errors are those of the finite entries of the highest column; the
    median is floored at float64 rounding of the limit.
    """
    floor = _EPS * max(limit_norm, initial)
    return -math.log10(max(statistics.median(errors), floor) / initial)


def new_table(f, name):
    return harness.build_table({"variant": name, "max_k": K}, f)


def stea2_stream(state, tab=None, span=no_span, tick=no_tick, block=20):
    """Append every term to a stea2 table; returns it and its blocks of appends.

    A block is the index of the tick taken before it and the CPU seconds of
    each of its appends.  Its spans carry no table label, so the per-table
    layer metrics leave it out.
    """
    tab = tab or new_table(state.f, "stea2")
    blocks = []
    with span("bench.stea2"):
        for lo in range(0, len(state.terms), block):
            i, ts = tick(), []
            for S in state.terms[lo:lo + block]:
                t0 = clock()
                tab.append(S)
                ts.append(clock() - t0)
            blocks.append((i, ts))
    return tab, blocks


def typical(per_pass):
    """The median over passes at each position of equally long lists.

    The host's short stalls land on different steps in different passes, so
    the median at each position keeps the steps that are slow in every pass
    and drops the stalls.
    """
    return [statistics.median(xs) for xs in zip(*per_pass)]


def typical_latencies(pace, passes):
    """Per ``stea2`` append, its typical latency at nominal speed.

    A tail taken over latencies pooled from all passes is set by the host's
    stalls, not by the program; the typical latency of each append is not.
    """
    return typical([[t / pace.slowdown(i) for i, ts in p["stea2"] for t in ts]
                    for p in passes])


def measure_peak(fn):
    """tracemalloc peak, in MiB, of the allocations ``fn`` makes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def update_floor(size, reps=5):
    """Seconds for K plain numpy ``a + c*(b - a)`` updates at one element size."""
    rng = np.random.default_rng(0)
    a, b = rng.random(size), rng.random(size)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(K):
            e = a + 0.37 * (b - a)
        times.append(time.perf_counter() - t0)
    del e
    return statistics.median(times)


def column_errors(new, limit):
    """Inf-norm errors of the finite column-2K entries among a table's new ones."""
    out = []
    for col, _, e in new:
        v = gate_mod.values(e)
        if col == 2 * K and np.all(np.isfinite(v)):
            out.append(float(np.max(np.abs(v - limit))))
    return out


class StreamState:
    def __init__(self, seed, terms, limit, f, tables):
        self.seed = seed
        self.terms = terms
        self.limit = limit
        self.f = f
        self.tables = tables


class Stream:
    """A stream of five-mode terms fed to all five tables (``wide``, ``long``)."""

    def __init__(self, dim, n_terms, nonzero_limit, tail_q, min_passes, setup_reps, pace):
        self.dim = dim
        self.n_terms = n_terms
        self.nonzero_limit = nonzero_limit
        self.tail_q = tail_q
        self.min_passes = min_passes
        self.setup_reps = setup_reps
        self.pace_args = pace

    def setup(self, seed):
        src = harness.build_source(five_modes(self.dim, seed, self.nonzero_limit), seed)
        terms = src.take(self.n_terms)
        limit = src.limit()
        f = harness.build_functional({"kind": "dot"}, terms[0].shape, seed)
        tables = {name: new_table(f, name) for name in TABLES}
        return StreamState(seed, terms, limit, f, tables)

    def release(self, state):
        pass

    def run_pass(self, state, seed, span=no_span, tick=no_tick):
        # the tables take the stream in turns, one block of terms each, so
        # that every table's time spreads over the whole pass and the host's
        # drifting speed is shared out evenly; blocks of about a thirtieth of
        # the stream keep each table's code warm within a block, and the
        # reference ticks before every block
        tables = {name: state.tables.pop(name, None) or new_table(state.f, name)
                  for name in TABLES}
        blocks = {name: [] for name in TABLES}
        f = state.f
        block = max(1, self.n_terms // 30)
        for lo in range(0, self.n_terms, block):
            chunk = state.terms[lo:lo + block]
            for name, tab in tables.items():
                i, ts = tick(), []
                with span("bench.table", name):
                    for S in chunk:
                        t0 = clock()
                        tab.append(f(S) if name == "scalar" else S)
                        ts.append(clock() - t0)
                blocks[name].append((i, ts))
        return blocks

    def end_to_end(self, pace, passes):
        # a table's time is the sum over its blocks of the block's typical
        # time at nominal speed
        seconds = {name: sum(typical([[sum(ts) / pace.slowdown(i) for i, ts in p[name]]
                                      for p in passes]))
                   for name in TABLES}
        out = {f"{name}_terms_per_s": self.n_terms / s for name, s in seconds.items()}
        out["pass_s"] = sum(seconds.values())
        return out, typical_latencies(pace, passes)

    def verify(self, state, gate):
        """Checks newest diagonals at every checkpoint; returns err_digits.

        The stea2 error floor is set by rounding in the random mode
        directions and moves by 0.4 digits from seed to seed on ``wide``, so
        err_digits is the mean over the run's stream and ERR_STREAMS - 1
        more streams of the family, from seeds derived from the run's.
        """
        checker = gate_mod.DiagonalChecker(gate, state.terms, state.f, K)
        stops = set(checkpoints(self.n_terms))
        limit = state.limit
        errors = []
        for group in (("scalar",), ("stea1", "tea1"), ("stea2", "tea2")):
            checker.clear()
            for name in group:
                tab = new_table(state.f, name)
                for i, S in enumerate(state.terms):
                    new = tab.append(state.f(S) if name == "scalar" else S)
                    if name == "stea2":
                        errors += column_errors(new, limit)
                    if i + 1 in stops:
                        checker.check(tab, name, i + 1)
        initial = gate_mod.norm_inf(state.terms[0] - limit)
        digits = [err_digits(errors, initial, gate_mod.norm_inf(limit))]
        for j in range(1, ERR_STREAMS):
            digits.append(self.stream_digits(state.seed + 7919 * j, state.f))
        return statistics.mean(digits)

    def stream_digits(self, seed, f):
        """err_digits of a fresh stea2 table on another stream of the family."""
        src = harness.build_source(five_modes(self.dim, seed, self.nonzero_limit), seed)
        limit = src.limit()
        tab = new_table(f, "stea2")
        errors, initial = [], None
        for _ in range(self.n_terms):
            S = src.next_term()
            if initial is None:
                initial = gate_mod.norm_inf(S - limit)
            errors += column_errors(tab.append(S), limit)
        return err_digits(errors, initial, gate_mod.norm_inf(limit))

    def peak(self, state):
        return measure_peak(lambda: stea2_stream(state))


# -- solvers ------------------------------------------------------------------

PROTOCOLS = (
    ("kernel-vector", "--dim", "100000", "--p", "10"),
    ("kernel-matrix", "--dim", "200", "--p", "7"),
    ("kaczmarz", "--dim", "300"),
    ("ns", "--dim", "150"),
    ("qpow", "--dim", "100"),
    ("stein", "--dim", "50"),
)


def call_cli(argv):
    """``cli.main`` in-process with stdout captured; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class SolverState:
    def __init__(self, workdir, terms, limit, f, table):
        self.workdir = workdir
        self.terms = terms
        self.limit = limit
        self.f = f
        self.tables = {"stea2": table}
        self.input = f"{workdir}/terms.txt"
        self.limit_file = f"{workdir}/limit.txt"
        self.last = None


class Solvers:
    """``reproduce`` for all six protocols, then ``accelerate`` per algorithm."""

    def __init__(self, out_dir, dim=100, n_terms=200, protocols=PROTOCOLS,
                 tail_q=90, min_passes=2, setup_reps=5, pace=(100, 300, 1.27e-3)):
        self.out_dir = out_dir
        self.dim = dim
        self.n_terms = n_terms
        self.protocols = protocols
        self.tail_q = tail_q
        self.min_passes = min_passes
        self.setup_reps = setup_reps
        self.pace_args = pace

    def setup(self, seed):
        workdir = tempfile.mkdtemp(prefix="solvers-", dir=self.out_dir)
        src = harness.build_source(five_modes(self.dim, seed, True), seed)
        terms = src.take(self.n_terms)
        limit = src.limit()
        f = harness.build_functional({"kind": "dot"}, terms[0].shape, seed)
        state = SolverState(workdir, terms, limit, f, new_table(f, "stea2"))
        seqio.write_terms(state.input, terms)
        seqio.write_terms(state.limit_file, [limit])
        return state

    def release(self, state):
        shutil.rmtree(state.workdir, ignore_errors=True)

    def run_pass(self, state, seed, span=no_span, tick=no_tick):
        # one round of accelerate runs after each protocol, so that every
        # algorithm is timed several times a pass, spread over the pass; the
        # reference ticks before every command
        reproduce = {}
        accelerate = {algo: [] for algo in TABLES}
        outputs = {"reproduce": {}, "accelerate": {}}
        for proto in self.protocols:
            argv = ["reproduce", *proto, "--seed", str(seed), "--jobs", "1",
                    "--format", "json"]
            i = tick()
            with span("bench.reproduce"):
                t0 = clock()
                outputs["reproduce"][proto[0]] = call_cli(argv)
                reproduce[proto[0]] = (i, clock() - t0)
            for algo in TABLES:
                argv = ["accelerate", state.input, "--algo", algo,
                        "--limit-file", state.limit_file]
                i = tick()
                with span("bench.accelerate", algo):
                    t0 = clock()
                    outputs["accelerate"][algo] = call_cli(argv)
                    accelerate[algo].append((i, clock() - t0))
        # per-append latency of a library user's stea2 table on the same terms
        state.direct, lat = stea2_stream(state, state.tables.pop("stea2", None), span, tick)
        state.last = outputs
        return {"reproduce": reproduce, "accelerate": accelerate, "stea2": lat}

    def end_to_end(self, pace, passes):
        accelerate = {algo: statistics.median(t / pace.slowdown(i) for p in passes
                                              for i, t in p["accelerate"][algo])
                      for algo in TABLES}
        out = {f"{algo}_terms_per_s": self.n_terms / s for algo, s in accelerate.items()}
        reproduce = typical([[t / pace.slowdown(i) for i, t in p["reproduce"].values()]
                             for p in passes])
        out["pass_s"] = sum(reproduce) + sum(accelerate.values())
        return out, typical_latencies(pace, passes)

    def verify(self, state, gate):
        """Checks the last pass's CLI outputs; returns err_digits."""
        for proto in self.protocols:
            code, text = state.last["reproduce"][proto[0]]
            gate.record(code == 0, f"reproduce {proto[0]} exit {code}")
            if code == 0:
                check_protocol(gate, json.loads(text))
        checker = gate_mod.DiagonalChecker(gate, state.terms, state.f, K)
        errors = []
        for algo in TABLES:
            code, text = state.last["accelerate"][algo]
            gate.record(code == 0, f"accelerate {algo} exit {code}")
            if code != 0:
                continue
            rows = [r for r in csv.DictReader(
                line for line in text.splitlines() if not line.startswith("#"))]
            check_accelerate(gate, checker, algo, rows, self.n_terms, state.limit)
            if algo == "stea2":
                errors = [float(r["error_inf"]) for r in rows
                          if int(r["col"]) == 2 * K and r["valid"] == "True"]
        checker.check(state.direct, "stea2", self.n_terms)
        initial = gate_mod.norm_inf(state.terms[0] - state.limit)
        return err_digits(errors, initial, gate_mod.norm_inf(state.limit))

    def peak(self, state):
        argv = ["accelerate", state.input, "--algo", "stea2",
                "--limit-file", state.limit_file]
        return measure_peak(lambda: call_cli(argv))


def _finite(x):
    return x is not None and math.isfinite(x) and x >= 0


def check_protocol(gate, result):
    """Every row finite; solver rows agree with the oracle's error.

    The kernel protocols plant near-singular blocks.  Their rows are checked
    against the protocol's own reference, the same table with the repairs
    switched off: repairs must not make the error worse, and the full
    tables, which have no repairs, must not change at all.
    """
    name = result["protocol"]
    seed = result["seed"]
    if name.startswith("kernel"):
        for row in result["rows"]:
            what = f"reproduce {name} {row['algorithm']}"
            on, off = row["error"], row["error_plain"]
            if not (_finite(on) and _finite(off)):
                gate.record(False, what + " not finite")
            elif row["algorithm"].startswith("tea"):
                gate.record(on == off, what + " rules changed a full table")
            else:
                gate.record(on <= off, what + " repairs made it worse")
        return
    src = harness.build_source(result["source"], seed)
    terms = src.take(result["n_terms"])
    f = harness.build_functional({"kind": "auto"}, terms[0].shape, seed)
    limit = src.limit()
    for row in result["rows"]:
        what = f"reproduce {name} column {row['column']}"
        if not _finite(row["best"]):
            gate.record(False, what + " not finite")
            continue
        compare_error(gate, terms, f, row["at_n"], row["column"], limit,
                      None if limit is not None else src, row["best"], what)


def compare_error(gate, terms, f, n, col, limit, residual_src, got, what):
    """The second-kind oracle entry's error (or residual) against a reported one."""
    k = col // 2
    window = terms[n:n + col + 1]
    s = np.array([f(t) for t in window])
    co = gate_mod.coefficients(s, k)
    if co is None:
        gate.unchecked += 1
        return
    ref = gate_mod.values(oracle.shanks_topo(window, f, 0, k, "second"))
    if residual_src is not None:
        want = residual_src.residual(ref)
    else:
        want = float(np.max(np.abs(ref - limit)))
    scale = max(gate_mod.norm_inf(t) for t in window)
    gate.record(abs(got - want) <= gate_mod.tolerance(co, scale), what)


def check_accelerate(gate, checker, algo, rows, n_terms, limit):
    """The newest diagonal of a report's norms and errors against the oracle."""
    kind = gate_mod.KINDS[algo]
    for r in rows:
        col, n = int(r["col"]), int(r["n"])
        if col + n != n_terms - 1:
            continue
        ref = checker.reference(kind, col, n)
        if ref is None:
            gate.unchecked += 1
            continue
        co, want, scale = ref
        if kind == "scalar":
            want_err = abs(want - checker.f(limit))
        else:
            want_err = gate_mod.norm_inf(want - limit)
        want_norm = gate_mod.norm_inf(want)
        tol = gate_mod.tolerance(co, max(scale, want_norm))
        ok = (r["valid"] == "True"
              and abs(float(r["norm_inf"]) - want_norm) <= tol
              and abs(float(r["error_inf"]) - want_err) <= tol)
        gate.record(ok, f"accelerate {algo} ({col}, {n})")
