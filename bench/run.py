"""epsaccel benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload {wide,long,solvers} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the details behind the metrics.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  See bench/README.md.
"""

import os
import sys

# BLAS threads are pinned before numpy is first imported, and EPSACCEL_SEED
# is dropped because the command line lets it override --seed.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
os.environ.pop("EPSACCEL_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("wide", "long", "solvers")
END_TO_END_UNITS = {
    "setup_s": "s", "scalar_terms_per_s": "1/s", "stea1_terms_per_s": "1/s",
    "stea2_terms_per_s": "1/s", "tea1_terms_per_s": "1/s", "tea2_terms_per_s": "1/s",
    "append_p50_ms": "ms", "append_tail_ms": "ms", "peak_mb": "MiB",
    "err_digits": "digits", "agree_frac": "frac", "pass_s": "s",
}


def build_workloads(smoke=False):
    """Workload objects by name; ``smoke`` shrinks every size for a quick check."""
    from workloads import Solvers, Stream

    if smoke:
        protocols = (("kernel-vector", "--dim", "50", "--p", "10"),
                     ("kernel-matrix", "--dim", "6", "--p", "7"),
                     ("kaczmarz", "--dim", "20"), ("ns", "--dim", "8"),
                     ("qpow", "--dim", "8"), ("stein", "--dim", "6"))
        return {
            "wide": Stream(2000, 24, False, 90, 1, 1, (2000, 1, 1e-5)),
            "long": Stream(10, 200, True, 90, 1, 1, (10, 10, 4e-5)),
            "solvers": Solvers(OUT, 20, 40, protocols, 90, 1, 1, (20, 10, 4e-5)),
        }
    # the reference tick: element size, repetitions, nominal seconds (pace.py)
    return {
        "wide": Stream(1_000_000, 24, False, 90, 5, 3, (1_000_000, 1, 4.3e-3)),
        "long": Stream(100, 3000, True, 99, 2, 9, (100, 300, 1.27e-3)),
        "solvers": Solvers(OUT),
    }


def import_seconds(pace_args, reps):
    """CPU seconds to import the package in fresh interpreters, at nominal speed.

    Each interpreter times the import, then ticks the workload's reference
    itself, so that the slowdown is the one of the core it ran on.
    """
    code = ("import sys, time; t = time.process_time(); import epsaccel.cli; "
            "t = time.process_time() - t; sys.path.insert(0, sys.argv[1]); "
            "from pace import Pace; p = Pace(*map(float, sys.argv[2:])); "
            "[p.tick() for _ in range(5)]; print(t / p.slowdown(2))")
    args = [str(BENCH), *(str(a) for a in pace_args)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(w, seed, seconds, import_reps=9):
    """Untraced run: set-up repeats, timed passes, then the gate and peak pass.

    Every step is timed in CPU seconds and divided by the slowdown the
    reference measured next to it (``pace.py``).
    """
    import numpy as np

    from gate import Gate
    from pace import Pace, clock

    imports = import_seconds(w.pace_args, import_reps) if import_reps else [0.0]
    pace = Pace(*w.pace_args)
    setups, state = [], None
    for _ in range(w.setup_reps):
        if state is not None:
            w.release(state)
            state = None
        i = pace.tick()
        t0 = clock()
        state = w.setup(seed)
        setups.append((i, clock() - t0))
    try:
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < w.min_passes or time.perf_counter() < deadline:
            passes.append(w.run_pass(state, seed, tick=pace.tick))
        metrics, lat = w.end_to_end(pace, passes)
        gate = Gate()
        digits = w.verify(state, gate)
        peak = w.peak(state)
    finally:
        w.release(state)
    q = w.tail_q
    slowdowns = [pace.slowdown(i) for i in range(len(pace.samples))]
    metrics.update({
        "setup_s": (statistics.median(imports)
                    + statistics.median(t / pace.slowdown(i) for i, t in setups)),
        "append_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "append_tail_ms": float(np.percentile(lat, q)) * 1e3,
        "peak_mb": peak,
        "err_digits": digits,
        "agree_frac": gate.agree_frac(),
    })
    details = {"passes": len(passes), "setup_reps": w.setup_reps,
               "setup_s_samples": [t for _, t in setups],
               "import_s_samples": imports,
               "reference_ticks": len(slowdowns),
               "reference_nominal_s": pace.nominal_s,
               "slowdown_quartiles": statistics.quantiles(slowdowns, n=4),
               "append_samples": len(lat), "append_tail_percentile": q,
               "append_samples_beyond_tail": len(lat) * (100 - q) / 100}
    return {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}, gate, details


def measure_traced(w, seed, seconds, trace_path):
    """Traced run: alternating untraced and traced sessions (set-up plus pass)."""
    from gate import Gate
    from layers import UNITS, layer_metrics
    from spans import Tracer, install
    from workloads import update_floor

    floor_s = update_floor(w.dim)
    untraced, traced, runs = [], [], []
    deadline = time.perf_counter() + seconds
    tracer = state = None
    while len(traced) < 2 or time.perf_counter() < deadline:
        if state is not None:
            w.release(state)
            state = None
        t0 = time.perf_counter()
        state = w.setup(seed)
        w.run_pass(state, seed)
        untraced.append(time.perf_counter() - t0)
        w.release(state)
        state = None
        tracer = Tracer()
        undo = install(tracer)
        try:
            t0 = time.perf_counter()
            state = w.setup(seed)
            w.run_pass(state, seed, tracer.span)
            wall = time.perf_counter() - t0
        finally:
            undo()
        traced.append(wall)
        element_bytes = state.terms[0].nbytes
        runs.append(layer_metrics(tracer, wall, element_bytes, floor_s))
        tracer.tables.clear()  # the tables' elements are not needed any more
    try:
        tracer.dump(trace_path)
        gate = Gate()
        w.verify(state, gate)
    finally:
        w.release(state)
    metrics = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    details = {"sessions": len(traced), "traced_s": traced, "untraced_s": untraced,
               "update_floor_s": floor_s, "spans": len(tracer.spans),
               "trace_file": str(trace_path.relative_to(ROOT))}
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, gate, details


def cache_sizes():
    out = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            done = subprocess.run(["getconf", level], capture_output=True, text=True,
                                  timeout=10)
            out[level.lower()] = int(done.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            out[level.lower()] = None
    return out


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": THREADS,
        **cache_sizes(),
        "bytes_note": "element bytes are computed from sizes; no bandwidth or roofline ratio",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32

    if not (SRC / "epsaccel" / "__init__.py").is_file():
        print(f"bench: no epsaccel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epsaccel

    if Path(epsaccel.__file__).resolve().parent != SRC / "epsaccel":
        print(f"bench: imported epsaccel from {epsaccel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = build_workloads()[args.workload]
    if args.trace:
        path = OUT / f"trace-{args.workload}-{seed}.jsonl"
        metrics, gate, details = measure_traced(w, seed, args.seconds, path)
    else:
        metrics, gate, details = measure(w, seed, args.seconds)
    info = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, **environment(), **details,
            "gate": {"checked": gate.checked, "failed": gate.failed,
                     "unchecked": gate.unchecked, "failures": gate.failures}}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": gate.failed == 0 and gate.checked > 0,
        "attempted": gate.checked,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
