"""Time the layers of ``epsaccel accelerate`` of two source trees side by side.

    python3 tools/accelerate_ab.py OLD_TREE NEW_TREE [--rounds N] [--algos A,B]

``OLD_TREE`` and ``NEW_TREE`` are checkouts of this repository, each loaded
in this one process under a package name of its own, as
``tools/append_ab.py`` loads them.  The input is the benchmark's
``solvers`` file: the first 200 terms of the five-mode geometric family at
dim 100 (seed 1), written by ``seqio.write_terms`` with its limit in a file
of its own.  Each round times, for every algorithm (default all five) and
each tree, these stages in CPU time (``time.process_time``), the two trees
in alternating order:

``command``
    ``cli.main(["accelerate", FILE, "--algo", ALGO, "--limit-file", LIMIT])``
    with stdout captured, as the benchmark runs it;
``read``
    ``seqio.read_terms(FILE)`` drained;
``appends``
    a table built by ``harness.build_table`` with the command's defaults,
    fed every term, parsed beforehand, and its shadow's events read after
    each append, as ``harness.run`` does; the scalar table is fed ``f(S)``;
``run``
    ``harness.run`` with list sinks on the terms parsed beforehand and the
    limit file.

``report`` is ``run`` minus ``appends``: the run loop and the report's
norms, errors and records.  Prints each tree's median over the rounds (the
first round warms up and is dropped), in ms, and the ratio of the medians,
new over old.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import statistics
import sys
import tempfile
import time

from append_ab import load, source

ALGOS = ("scalar", "stea1", "stea2", "tea1", "tea2")
STAGES = ("command", "read", "appends", "run", "report")


def stages(pkg, algo, path, limit_path, terms):
    """The CPU seconds of each measured stage, one run of each."""
    cli, harness, seqio = (importlib.import_module(f"{pkg.__name__}.{m}")
                           for m in ("cli", "harness", "seqio"))
    out = {}
    t0 = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["accelerate", path, "--algo", algo, "--limit-file", limit_path])
    out["command"] = time.process_time() - t0
    if code:
        raise SystemExit(f"{pkg.__name__}: accelerate --algo {algo} exited {code}")

    t0 = time.process_time()
    for _ in seqio.read_terms(path):
        pass
    out["read"] = time.process_time() - t0

    f = harness.build_functional({"kind": "auto"}, terms[0].shape)
    table = harness.build_table({"variant": algo}, f)
    append = table.append
    shadow = table if algo == "scalar" else getattr(table, "scalar", None)
    t0 = time.process_time()
    for S in terms:
        append(f(S) if algo == "scalar" else S)
        if shadow is not None:
            shadow.fired
    out["appends"] = time.process_time() - t0

    t0 = time.process_time()
    harness.run({"source": {"kind": "file", "terms": terms, "limit_path": limit_path},
                 "algorithm": {"variant": algo}, "n_terms": None})
    out["run"] = time.process_time() - t0
    out["report"] = out["run"] - out["appends"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--algos", default=",".join(ALGOS))
    args = parser.parse_args(argv)
    algos = args.algos.split(",")
    pkgs = [load(args.old, "epsaccel_old"), load(args.new, "epsaccel_new")]
    seqio = importlib.import_module("epsaccel_old.seqio")
    src = source(pkgs[0])
    terms = src.take(200)
    with tempfile.TemporaryDirectory(prefix="accelerate-ab-") as tmp:
        path, limit_path = os.path.join(tmp, "terms.txt"), os.path.join(tmp, "limit.txt")
        seqio.write_terms(path, terms)
        seqio.write_terms(limit_path, [src.limit()])
        print(f"{'algo':6} {'stage':8} {'old med':>8} {'new med':>8} {'new/old':>8}"
              f"   (ms per run, {args.rounds} rounds)")
        for algo in algos:
            times = ({s: [] for s in STAGES}, {s: [] for s in STAGES})
            for r in range(args.rounds + 1):
                for side in ((0, 1) if r % 2 else (1, 0)):
                    got = stages(pkgs[side], algo, path, limit_path, terms)
                    if r:       # the first round warms up
                        for s in STAGES:
                            times[side][s].append(got[s] * 1e3)
            for s in STAGES:
                old, new = (statistics.median(t[s]) for t in times)
                print(f"{algo:6} {s:8} {old:8.3f} {new:8.3f} {new / old:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
