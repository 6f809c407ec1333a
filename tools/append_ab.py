"""Time the tables' appends of two source trees of epsaccel side by side.

    python3 tools/append_ab.py OLD_TREE NEW_TREE [--rounds N]

``OLD_TREE`` and ``NEW_TREE`` are checkouts of this repository.  Each
tree's ``src/epsaccel`` is loaded in this one process under a package name
of its own, and the two are timed in alternating rounds, which of the two
goes first alternating too, so that both see the same drift of the host's
speed.  A round builds a fresh table and appends every term of a stream to
it, and gives the CPU time (``time.process_time``) of the round over its
number of appends.  After each append the round reads the events of the
table's scalar shadow (``fired``), as ``harness.run`` does for its report.

The streams are the five-mode geometric family (rates 0.9 .. 0.5, random
directions and a random nonzero limit, seed 1) at dim 100: ``solvers``,
200 terms, and ``long``, 3,000 terms.  The tables are ``scalar``, fed
``f(S)`` of each term inside the timed append, ``stea1``, ``stea2``,
``tea1`` and ``tea2``, each with ``max_k=5`` and its defaults, and
``shadow``, a scalar table fed the precomputed ``f(S)``: the shadow of a
simplified table alone.  ``f`` is the dot product with ones.

Prints, for each stream and table, each tree's microseconds per append over
the rounds (min and median) and the ratio of the medians, new over old.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

RATES = (0.9, 0.8, 0.7, 0.6, 0.5)
STREAMS = {"solvers": 200, "long": 3000}
TABLES = ("shadow", "scalar", "stea1", "stea2", "tea1", "tea2")


def load(tree, name):
    """The package ``src/epsaccel`` of ``tree``, imported as ``name``."""
    path = os.path.join(os.path.abspath(tree), "src", "epsaccel")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def stream(pkg, n_terms, dim=100, seed=1):
    """The first ``n_terms`` terms of the five-mode family, as the
    package's ``harness.build_source`` makes them."""
    rng = np.random.default_rng(seed)
    modes = [rng.random(dim) + 0.5 for _ in RATES]
    spec = {"kind": "geometric_modes", "limit": rng.random(dim) + 0.5,
            "amps": [1.0] * len(RATES), "rates": list(RATES), "modes": modes}
    return importlib.import_module(pkg.__name__ + ".harness").build_source(
        spec, seed).take(n_terms)


def round_us(pkg, table, terms, f):
    """Microseconds per append of one round: a fresh table, every term."""
    if table in ("shadow", "scalar"):
        tab = pkg.ScalarEpsTable(max_col=12)
        if table == "shadow":
            terms = [f(S) for S in terms]
    elif table.startswith("stea"):
        tab = pkg.TopoEpsTable(f, 5, variant=table)
    else:
        tab = pkg.TeaTable(f, 5, variant=table)
    append = tab.append
    shadow = tab if table in ("shadow", "scalar") else getattr(tab, "scalar", None)
    t0 = time.process_time()
    if table == "scalar":
        for S in terms:
            append(f(S))
            shadow.fired
    elif shadow is not None:
        for S in terms:
            append(S)
            shadow.fired
    else:
        for S in terms:
            append(S)
    return (time.process_time() - t0) / len(terms) * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    pkgs = [load(args.old, "epsaccel_old"), load(args.new, "epsaccel_new")]
    print(f"{'stream':8} {'table':7} {'old min':>8} {'old med':>8} {'new min':>8}"
          f" {'new med':>8} {'new/old':>8}   (us per append, {args.rounds} rounds)")
    for sname, count in STREAMS.items():
        terms = stream(pkgs[0], count)
        fs = [pkg.Functional.dot(np.ones(terms[0].shape)) for pkg in pkgs]
        for table in TABLES:
            times = ([], [])
            for r in range(args.rounds + 1):
                for side in ((0, 1) if r % 2 else (1, 0)):
                    us = round_us(pkgs[side], table, terms, fs[side])
                    if r:       # the first round warms up
                        times[side].append(us)
            old, new = (statistics.median(t) for t in times)
            print(f"{sname:8} {table:7} {min(times[0]):8.2f} {old:8.2f}"
                  f" {min(times[1]):8.2f} {new:8.2f} {new / old:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
