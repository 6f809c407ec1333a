"""Check that two source trees of epsaccel give bit-identical outputs.

    python3 tools/compare_trees.py OLD_TREE NEW_TREE

``OLD_TREE`` and ``NEW_TREE`` are checkouts of this repository (for example
the parent commit, exported with ``git archive``, and the working tree).
Each tree's ``src`` is imported in its own subprocess, which runs the fixed
list of configurations in :func:`configurations`.  A table gives two
SHA-256 digests, so that a change of counters cannot hide a change of
entries.  A table is run once, appending through a ``Recorder`` of it:
the counters digest is read off the recorder and must match the old
tree's, and the entries, the odd coefficients and the table's own counts,
``sigma``, ``len(events)``, ``len(invalid)``, ``peak_slots``/``peak_total``
and ``n_terms``, must match too (the ``counts`` part).  The entries digest
covers the bytes (any NaN as the canonical one), dtype, shape and Python
type of every entry each ``append`` returned and, for the full tables, of
every finite odd coefficient of the newest diagonal after each ``append``
(``entry(2j+1, n)``).  The non-finite odd coefficients are kept by position
instead, so that each one that differs is printed: which infinity a
coefficient ``1/f(hi, lo)`` is at ``f = 0`` depends on the sign of the
zero.  The counters digest covers ``sigma``, the event log (k, n, ratio,
treated, suppressed, victim), the repair flags as ``flag()`` gives them
where each firing's repair lands, the positions in ``invalid`` and
``peak_slots``/``peak_total``.  A command, or a ``harness.run`` report,
gives its exit code and output, with
``wall_time_s`` removed; for each one that differs, the lines that differ
are printed.  A command run with ``--out`` also gives the SHA-256 of the
file's bytes, ``wall_time_s`` removed, or that it wrote none.  A file ``seqio.write_terms`` writes for the commands gives
the SHA-256 of its bytes.  Each public source of ``epsaccel.sequences``
gives the digest of its first 60 terms (the ``entries`` part) and, as its
output, the digest of its ``limit()`` and the ``residual`` of its last term,
where it has them.

``Functional.trace_weighted`` sums in another order than the parent's
``np.trace(Y^H @ X)``, so its values are compared within ``TW_RTOL`` of the
sum of the absolute products, not bit for bit, and no table is fed by it.
``SmithSource.limit`` sums Smith's squared iteration where the parent
solved the Kronecker system, so the ``reproduce stein`` outputs, whose
errors are taken against it, are compared number by number within
``SMITH_RTOL``.

Exits 0 when every digest and output agrees and 1 otherwise, naming each
configuration that differs and what differs in it.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile

# 2 * s * eps at s = 150, the bound tests/test_vectorspace.py checks
TW_RTOL = 6.7e-14
# seven significant digits; the stein rows, errors against a Smith limit
# that moved within 1e-12 of max|X| (tests/test_sequences.py), differed by
# at most 5.2e-9 relative at dims 40 and 50
SMITH_RTOL = 1e-6
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RATES = (0.9, 0.8, 0.7, 0.6, 0.5)


# -- child side: run every configuration in the tree on sys.path ---------------

def _feed(h, value):
    """Hash a value's type, dtype, shape and bytes, with every NaN as the one
    canonical NaN: the sign of a NaN that CPython's float operations return
    depends on whether the interpreter has specialised the operation yet."""
    import numpy as np

    arr = np.asarray(value)
    h.update(f"{type(value).__name__}|{arr.dtype.str}|{arr.shape}|".encode())
    if arr.dtype.kind in "fc":
        parts = arr.reshape(-1).view(np.float64)
        arr = np.where(np.isnan(parts), np.nan, parts)
    h.update(arr.tobytes())


def _digest_table(make, terms):
    """Digests of the entries the table ``make()`` builds gives as the terms
    are appended through a ``Recorder`` of it, and of the counters the
    recorder keeps; also the full tables' non-finite odd coefficients by
    position, and the counts the table keeps."""
    import numpy as np

    from epsaccel import Recorder

    tab = make()
    rec = Recorder(tab)
    h = hashlib.sha256()
    full = getattr(tab, "variant", "").startswith("tea")
    odd = range(1, 2 * tab.max_k, 2) if full else ()
    nonfinite = {}
    for S in terms:
        new = rec.append(S)
        N = tab.n_terms - 1
        for k, n, value in new + [(c, N - c, tab.entry(c, N - c)) for c in odd]:
            if k % 2 and full and value is not None and not np.isfinite(value):
                nonfinite[f"{k},{n}"] = repr(value)
                continue
            h.update(f"{k},{n}:".encode())
            if value is None:
                h.update(b"None")
            else:
                _feed(h, value)
    scalar = getattr(tab, "scalar", tab)
    shadowed = hasattr(scalar, "events")
    kept = {attr: getattr(tab, attr) for attr in ("invalid", "peak_slots", "peak_total")
            if hasattr(tab, attr)}
    counts = {"n_terms": tab.n_terms}
    if shadowed:
        counts.update(sigma=scalar.sigma, events=len(scalar.events))
    counts.update((attr, len(value) if attr == "invalid" else value)
                  for attr, value in kept.items())
    out = {"entries": h.hexdigest(), "odd": nonfinite if full else None, "counts": counts}
    # the event log, the recorder's shadow's
    log = rec.shadow
    h = hashlib.sha256()
    if shadowed:
        h.update(f"sigma={scalar.sigma}".encode())
        for ev in log.events:
            h.update(f"{ev.k},{ev.n},{struct.pack('<d', ev.ratio).hex()},"
                     f"{ev.treated},{ev.suppressed},{ev.victim};".encode())
        # the repair flags, read through flag() where each firing's repair
        # lands, three columns east and one superscript down: the only
        # entries a flag can name
        spots = sorted({(ev.k + 3, ev.n - 1) for ev in log.events})
        h.update(repr([(k, n, log.flag(k, n)) for k, n in spots]).encode())
    for attr, value in kept.items():
        h.update(f"{attr}={sorted(rec.invalid) if attr == 'invalid' else value}".encode())
    out["counters"] = h.hexdigest()
    return out


def _five_modes(dim, seed):
    """The benchmark's five-mode geometric spec with a nonzero limit."""
    import numpy as np

    rng = np.random.default_rng(seed)
    modes = [rng.random(dim) + 0.5 for _ in RATES]
    return {"kind": "geometric_modes", "limit": rng.random(dim) + 0.5,
            "amps": [1.0] * len(RATES), "rates": list(RATES), "modes": modes}


def _all_tables(f, max_k=5, p=10):
    """Factories ``make()`` of the scalar table, stea1/stea2 in every
    form with rules on and off, and tea1/tea2, by name."""
    from epsaccel import ScalarEpsTable, TeaTable, TopoEpsTable

    out = {}
    for rules in (True, False):
        out[f"scalar/rules={rules}"] = lambda r=rules: ScalarEpsTable(
            max_col=2 * max_k + 2, p_threshold=p, particular_rules=r)
        for variant in ("stea1", "stea2"):
            for form in (1, 2, 3, 4):
                out[f"{variant}/form={form}/rules={rules}"] = (
                    lambda v=variant, fo=form, r=rules: TopoEpsTable(
                        f, max_k, variant=v, form=fo, p_threshold=p, particular_rules=r))
    for variant in ("tea1", "tea2"):
        out[variant] = lambda v=variant: TeaTable(f, max_k, variant=v)
    return out


def _stream_configs(name, terms, f, **kw):
    for tname, make in _all_tables(f, **kw).items():
        feed = [f(S) for S in terms] if tname.startswith("scalar") else terms
        yield f"{name}/{tname}", lambda m=make, t=feed: _digest_table(m, t)


def configurations(workdir):
    """``(name, thunk)`` pairs; each thunk returns a dict of the parts to
    compare (:func:`_digest_table`, :func:`_call`).  The command-line runs
    write their input files under ``workdir``."""
    import numpy as np

    from epsaccel import Functional, ScalarEpsTable, TopoEpsTable, harness
    from epsaccel.sequences import KernelRecurrence

    # the 3,000-term dim-100 stream of the benchmark's long workload, and
    # one of 10,000 terms, far past the point where its tables stop forming
    # entries and their history grows fastest
    for seed, count in ((1, 3000), (2, 3000), (3, 10_000)):
        src = harness.build_source(_five_modes(100, seed), seed)
        terms = src.take(count)
        f = harness.build_functional({"kind": "dot"}, terms[0].shape, seed)
        yield from _stream_configs(f"long/seed={seed}/terms={count}", terms, f)

    # the kernel protocols' streams, as reproduce builds them
    for space, dim in (("vector", 50), ("matrix", 12)):
        src = KernelRecurrence(dim, space, seed=0)
        terms = [src.next_term() for _ in range(11)]
        f = Functional.dot(np.ones(dim)) if space == "vector" else Functional.trace()
        for p in (7, 10, 12):
            yield from _stream_configs(f"kernel-{space}/p={p}", terms, f, p=p)
    # the matrix stream Fortran-ordered, through the first kind's tie rule
    fterms = [np.asfortranarray(S) for S in terms]
    for p in (7, 10, 12):
        for tname, make in _all_tables(f, p=p).items():
            if tname.startswith("stea"):
                yield (f"kernel-matrix-fortran/p={p}/{tname}",
                       lambda m=make: _digest_table(m, fterms))

    rng = np.random.default_rng(7)
    y = rng.random(20) + 0.5
    geo = [0.3 + 0.8 ** n * y + 0.5 ** n * y[::-1] for n in range(40)]
    cgeo = [(1 + 0.5j) * S + 1j * 0.6 ** n * y for n, S in enumerate(geo)]
    scal = [1.0 + 0.9 ** n - 0.5 ** n for n in range(400)]
    streams = {
        "constant": ([np.full(5, 3.25)] * 12, Functional.dot(np.ones(5))),
        "zero": ([np.zeros(5)] * 12, Functional.dot(np.ones(5))),
        "0d": ([np.asarray(s) for s in scal], Functional.dot(1.0)),
        "0d-complex": ([np.asarray(s * (1 - 0.5j)) for s in scal], Functional.dot(1.0)),
        "0d-complex-y": ([np.asarray(s) for s in scal], Functional.dot(1.0 - 2.0j)),
        # numpy's sums give +0.0 for -0.0, so a signed zero reaches a
        # table's 1/x only through a functional that keeps the sign
        "0d-signed-zero": ([np.asarray(s) for s in
                            (0.0, -0.0, 0.0, 1.0, -0.0, -0.0, 2.0, 2.0, 0.0, 3.0)],
                           Functional("identity", lambda x: x[()], "identity")),
        "complex": (cgeo, Functional.dot(y)),
        "complex-y": (cgeo, Functional.dot(y + 1j * y[::-1])),
        "real-complex-y": (geo, Functional.dot(y + 1j * y[::-1])),
        # weighed by conj(y): the bilinear sum(y * x)
        "complex-y-noconj": (cgeo, Functional.dot(np.conj(y + 1j * y[::-1]))),
        # a real stream that turns complex, and one with a strided term
        "real-then-complex": (geo[:20] + cgeo[20:], Functional.dot(y)),
        "strided-term": (geo[:20] + [np.repeat(geo[20], 2)[::2]] + geo[21:],
                         Functional.dot(y)),
    }
    m = rng.random((30, 30))
    fgeo = [np.asfortranarray(0.1 * m + 0.7 ** n * m.T + 0.4 ** n * np.eye(30))
            for n in range(25)]
    streams["fortran-30"] = (fgeo, Functional.trace())
    big = rng.random((150, 150))
    streams["fortran-150"] = ([np.asfortranarray(big + 0.6 ** n * big.T)
                               for n in range(14)], Functional.trace())
    for name, (terms, f) in streams.items():
        yield from _stream_configs(name, terms, f)

    # 1-d dot streams above one block, where the functional of a difference
    # is summed leaf by leaf without forming the difference, and that of a
    # term is the plain sum below 2**17 entries and summed leaf by leaf from
    # there on; with a y of ones, that of a real term is its sum at every
    # length and that of a real difference sums its leaves with no product
    from epsaccel.vectorspace import BLOCK
    for dim in (BLOCK + 1, 2 * BLOCK + 7, 100_003, (1 << 17) + 9):
        u, v, w = (rng.random(dim) + 0.5 for _ in range(3))
        y = rng.random(dim) + 0.5
        cy = y + 1j * u[::-1]
        real = [0.3 + 0.8 ** n * u + 0.5 ** n * v for n in range(14)]
        cplx = [(1 + 0.5j) * S + 1j * 0.6 ** n * w for n, S in enumerate(real)]
        for name, terms, f in (("real", real, Functional.dot(y)),
                               ("complex", cplx, Functional.dot(cy)),
                               ("real-complex-y", real, Functional.dot(cy)),
                               ("complex-y-noconj", cplx, Functional.dot(np.conj(cy))),
                               ("ones", real, Functional.dot(np.ones(dim))),
                               ("complex-ones", cplx, Functional.dot(np.ones(dim)))):
            yield from _stream_configs(f"above-block-{dim}/{name}", terms, f)

    # the kernel recurrence above one block, real and complex, through the
    # simplified tables: at p = 7 and 10 the first kind's tie rule forms
    # its column-2 and column-4 entries there on whole elements
    dim = 2 * BLOCK + 7
    kterms = KernelRecurrence(dim, "vector", seed=0).take(11)
    f = Functional.dot(np.ones(dim))
    for name, terms in (("real", kterms), ("complex", [(1 - 0.5j) * S for S in kterms])):
        for p in (7, 10):
            for tname, make in _all_tables(f, p=p).items():
                if tname.startswith("stea"):
                    yield (f"kernel-vector-{dim}/{name}/p={p}/{tname}",
                           lambda m=make, t=terms: _digest_table(m, t))

    # the scalar table alone: every parity and threshold, planted exact and
    # near ties, signed zeros, infinities, NaN, complex and mixed streams
    tied = list(scal[:60])
    for i, rel in ((5, 0.0), (17, 1e-13), (30, 0.0), (31, 1e-15), (44, 1e-11)):
        tied[i] = tied[i - 1] * (1.0 + rel)
    # finite consecutive terms whose difference overflows, real and with
    # both parts near 1e308
    big = [(-1) ** n * (1.0 + n / 16) * 1e308 for n in range(12)]
    cbig = [complex(x, -0.9 * x) for x in big]
    scalar_streams = {
        "tied": tied,
        "signed-zero": [0.0, -0.0, 0.0, 1.0, -0.0, -0.0, 2.0, 2.0, 0.0],
        "inf-nan": [1.0, 2.0, float("inf"), 3.0, float("-inf"), 4.0, float("nan"),
                    5.0, 6.0, 6.0, 7.0],
        "complex": [complex(s, -s / 3) for s in tied],
        "mixed": tied[:10] + [complex(s, 1e-3) for s in tied[10:20]] + tied[20:30],
        "numpy-scalars": [np.float64(s) for s in tied],
        "constant": [3.25] * 12,
        "overflow": big,
        "overflow-complex": cbig,
    }
    for sname, terms in scalar_streams.items():
        for parity in ("both", "even", "odd"):
            for p in (7, 10, 12):
                for rules in (True, False):
                    # the last cap is past the stream's length: full diagonals
                    for max_col in (4, 10, len(terms) + 2):
                        yield (f"scalar/{sname}/{parity}/p={p}/rules={rules}/max_col={max_col}",
                               lambda t=terms, pa=parity, pp=p, r=rules, mc=max_col:
                               _digest_table(lambda: ScalarEpsTable(
                                   max_col=mc, p_threshold=pp, particular_rules=r,
                                   singular_parity=pa), t))

    # the overflowing streams as dim-1 elements through the simplified tables
    f = Functional.dot(np.ones(1))
    for name, terms in (("overflow", big), ("overflow-complex", cbig)):
        for tname, make in _all_tables(f).items():
            if tname.startswith("stea"):
                yield (f"{name}-dim1/{tname}",
                       lambda m=make, t=[np.array([x]) for x in terms]: _digest_table(m, t))

    # parity and rules through the element tables
    src = KernelRecurrence(50, "vector", seed=0)
    terms = [src.next_term() for _ in range(11)]
    f = Functional.dot(np.ones(50))
    for parity in ("even", "odd"):
        for variant in ("stea1", "stea2"):
            yield (f"kernel-vector/{variant}/parity={parity}",
                   lambda v=variant, pa=parity: _digest_table(
                       lambda: TopoEpsTable(f, 5, variant=v, singular_parity=pa), terms))

    yield from _source_configs()
    yield from _run_configs(workdir)
    yield from _cli_configs(workdir)


def _source_configs():
    """Sixty terms of each public source, its limit where it knows one and
    the residual of the last term where it knows its equation."""
    import numpy as np

    from epsaccel import sequences as seqs

    rng = np.random.default_rng(21)
    log_modes = [rng.random(20) + 0.5 for _ in range(3)]
    makers = {
        "KernelRecurrence": lambda: seqs.KernelRecurrence(20, "vector", seed=1),
        "GeometricModes": lambda: seqs.GeometricModes.random(20, RATES, seed=4),
        "LogarithmicModes": lambda: seqs.LogarithmicModes(
            np.full(20, 0.5), [1.0, 0.5, 0.25], log_modes, alternating=True),
        "TotallyMonotonicSource": lambda: seqs.TotallyMonotonicSource(20, RATES, seed=4),
        "TotallyOscillatingSource": lambda: seqs.TotallyOscillatingSource(20, RATES, seed=4),
        "KaczmarzSweeps": lambda: seqs.KaczmarzSweeps.parter(30),
        "NsIterationSource": lambda: seqs.NsIterationSource.random(12, seed=4),
        "QpowIterationSource": lambda: seqs.QpowIterationSource.random(12, seed=4),
        "SmithSource": lambda: seqs.SmithSource.random(12, seed=4),
    }
    for name, make in makers.items():
        yield f"sources/{name}", lambda m=make: _digest_source(m())


def _digest_source(src):
    terms = src.take(60)
    h = hashlib.sha256()
    for S in terms:
        _feed(h, S)
    out = []
    limit = src.limit()
    if limit is not None:
        lh = hashlib.sha256()
        _feed(lh, limit)
        out.append(f"limit {lh.hexdigest()}")
    if hasattr(src, "residual"):
        out.append(f"residual {src.residual(terms[-1])!r}")
    return {"entries": h.hexdigest(), "output": "\n".join(out)}


def _run_configs(workdir):
    """``harness.run`` reports of every table, on the kernel stream and on
    a five-mode stream long enough to repair on most terms; of ``stea2``
    and ``tea2`` on the solver sources, whose entries carry residuals; and
    of every table on lists of terms with a limit file under ``workdir``:
    a real stream that turns complex, one that then turns real again, so
    that its appends give float64 and complex128 entries together, the
    latter also at length 5,000, where an append of more than three entries
    is reduced one entry at a time, and one with a complex term whose
    modulus overflows."""
    import numpy as np

    from epsaccel import harness, seqio

    kernel = {"kind": "kernel_recurrence", "dim": 20, "seed": 1}
    for name, source, n_terms in (("kernel", kernel, 11),
                                  ("five-modes", _five_modes(20, 5), 400)):
        for algo in harness._VARIANT_GRID + [{"variant": "scalar"}]:
            spec = {"source": source, "n_terms": n_terms,
                    "algorithm": dict(algo, max_k=5, p=10)}
            yield f"run/{name}/{harness._label(algo)}", lambda sp=spec: _report(sp)
    solvers = {"kaczmarz": {"kind": "kaczmarz_parter", "dim": 12},
               "stein": {"kind": "smith_stein", "dim": 8, "seed": 2},
               "ns": {"kind": "ns_iteration", "dim": 6, "seed": 3}}
    for name, source in solvers.items():
        for variant in ("stea2", "tea2"):
            spec = {"source": source, "n_terms": 17,
                    "algorithm": {"variant": variant, "max_k": 3}}
            yield f"run/{name}/{variant}", lambda sp=spec: _report(sp)

    rng = np.random.default_rng(9)
    y = rng.random(8) + 0.5
    geo = [0.3 + 0.8 ** n * y + 0.5 ** n * y[::-1] for n in range(24)]
    cgeo = [(1 - 0.5j) * S for S in geo]
    huge = list(cgeo)
    huge[9] = huge[9].copy()
    huge[9][3] = 1.5e308 + 1.5e308j
    lim = np.full(8, 0.3)
    mixed = geo[:10] + cgeo[10:14] + geo[14:]
    streams = {"real-then-complex": (geo[:10] + cgeo[10:], lim),
               "real-complex-real": (mixed, lim),
               "long-real-complex-real": ([np.resize(S, 5000) for S in mixed],
                                          np.resize(lim, 5000)),
               "overflow-modulus": (huge, (1 - 0.5j) * lim)}
    for name, (terms, limit) in streams.items():
        limit_path = os.path.join(workdir, f"run-{name}-limit.txt")
        seqio.write_terms(limit_path, [limit])
        for variant in ("scalar", "stea1", "stea2", "tea1", "tea2"):
            spec = {"source": {"kind": "file", "terms": terms, "limit_path": limit_path},
                    "algorithm": {"variant": variant, "max_k": 4}, "n_terms": None}
            yield f"run/{name}/{variant}", lambda sp=spec: _report(sp, workdir)


def _report(spec, workdir=None):
    """A ``harness.run`` report as JSON, its timing and the temporary
    directory's name taken out."""
    from epsaccel import harness

    text = harness.run(spec).to_json()
    if workdir:
        text = text.replace(workdir, "<workdir>")
    return {"output": re.sub(r'"wall_time_s":\s*[-+0-9.eE]+', "wall_time_s", text)}


def _call(argv, workdir=None):
    """A command's exit code and output; the timing and the temporary
    directory's name are taken out."""
    from epsaccel import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = re.sub(_TIMING, "wall_time_s", out.getvalue())
    if workdir:
        text = text.replace(workdir, "<workdir>")
    return {"output": f"exit {code}\n{text}"}


_TIMING = r'"?wall_time_s"?[:=]\s*[-+0-9.eE]+'


def _call_out(argv, out, workdir):
    """:func:`_call` with ``--out out``, and the SHA-256 of the bytes the
    command wrote there, the timing and the temporary directory's name taken
    out, or that it wrote no file."""
    result = _call([*argv, "--out", out], workdir)
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = re.sub(_TIMING.encode(), b"wall_time_s", fh.read())
        data = data.replace(workdir.encode(), b"<workdir>")
        os.remove(out)
        result["output"] += f"\n--out sha256 {hashlib.sha256(data).hexdigest()}"
    else:
        result["output"] += "\n--out: no file"
    return result


def _cli_configs(tmp):
    import numpy as np

    from epsaccel import harness, seqio
    from epsaccel.vectorspace import BLOCK

    kernel = [[name, *p] for name in ("kernel-vector", "kernel-matrix")
              for p in ([], ["--p", "10"], ["--p", "7"])]
    # the benchmark's solvers workload runs these argument sets
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import PROTOCOLS

    bench = [list(args) for args in PROTOCOLS]
    for args in kernel + [["kaczmarz"], ["ns"], ["qpow"], ["stein"]] + bench:
        yield "reproduce/" + " ".join(args), lambda a=args: _call(
            ["reproduce", *a, "--format", "json"])

    src = harness.build_source(_five_modes(20, 3), 3)
    terms = src.take(60)
    lim = src.limit()
    rng = np.random.default_rng(13)
    dim = 2 * BLOCK + 7
    u, v = rng.random(dim) + 0.5, rng.random(dim) + 0.5
    # each input file's terms, and its limit's, if any
    inputs = {
        "real": (terms, lim),
        "complex": ([(1 - 0.5j) * S for S in terms[:30]], (1 - 0.5j) * lim),
        "matrix": ([S.reshape(4, 5) for S in terms[:30]], lim.reshape(4, 5)),
        "scalar": ([S[:1].reshape(()) for S in terms], lim[:1].reshape(())),
        "complex-scalar": ([np.asarray(S[0] + 0.5j * S[1]) for S in terms],
                           np.asarray(lim[0] + 0.5j * lim[1])),
        # real terms, and every third one complex: a file of mixed lines
        "mixed": ([S * (1 + 0.1j) if n % 3 == 0 else S for n, S in enumerate(terms[:30])],
                  None),
        "above-block": ([0.3 + 0.8 ** n * u + 0.5 ** n * v for n in range(6)],
                        np.full(dim, 0.3)),
        # a matrix file whose last term alone is complex
        "matrix-complex-last": ([S.reshape(4, 5) for S in terms[:29]]
                                + [terms[29].reshape(4, 5) * (1 - 0.5j)], lim.reshape(4, 5)),
    }
    # finite numbers near the largest float, whose rows' sums, differences
    # and the functional overflow
    inputs["huge"] = ([(-1) ** n * (1.0 - n / 64) * np.array([1.7e308, 1.1e308, -9e307])
                       for n in range(20)], np.array([1.6e308, 1.2e308, -8e307]))
    # a length-10 stream of 2,000 terms, which the command reads a term at
    # a time and reports through a spool
    src = harness.build_source({"kind": "geometric_modes", "dim": 10,
                                "rates": [0.99, 0.98, 0.97, 0.96, 0.95]}, 3)
    inputs["long-10"] = (src.take(2000), src.limit())
    # each file's path, and its limit file's; the bytes write_terms wrote
    files = {}
    for name, (seq, limit) in inputs.items():
        files[name] = [os.path.join(tmp, f"{name}.txt")]
        if limit is not None:
            files[name].append(os.path.join(tmp, f"{name}-limit.txt"))
        for path, what in zip(files[name], (seq, [limit])):
            seqio.write_terms(path, what)
            with open(path, "rb") as fh:
                yield f"write_terms {os.path.basename(path)}", lambda b=fh.read(): {
                    "output": hashlib.sha256(b).hexdigest()}
    # by hand: comments, blank lines, tabs, and tokens float() reads or only
    # complex() does; the first file's parts are all real, the second's not
    lines = ["# written by hand", "", "vector 3"]
    for n in range(12):
        a, b, c = 1 + 0.5 ** n, 2 - 0.3 ** n, 0.25 ** n
        lines.append((f"+{a!r}\t{b:.17E}  {c!r}", f"{a!r}\t({b!r}+0j)\t{c!r}",
                      f"  {a!r} {b!r}-0j {c!r}")[n % 3])
        if n % 3 == 0:
            lines += ["# between terms", ""]
    lines.append("1_0 1E3 +.5")
    # the third file holds a j and a J in comments only, so its terms are real
    for name, more in (("hand", []), ("hand-complex", ["1j 2 -0.5j"]),
                       ("hand-j", ["# a j and a J in a comment"])):
        files[name] = [os.path.join(tmp, f"{name}.txt")]
        with open(files[name][0], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + more) + "\n")
    for name, (path, *limit) in files.items():
        for algo in ("scalar", "stea1", "stea2", "tea1", "tea2"):
            for fmt in ("csv", "json"):
                for more in [[], *[["--limit-file", lp] for lp in limit]]:
                    argv = ["accelerate", path, "--algo", algo, "--format", fmt, *more]
                    label = f"accelerate {name} {algo} {fmt}" + (" limit" if more else "")
                    yield label, lambda a=argv: _call(a, tmp)
    # dot of ones, which the spec records without its y, on scalar terms
    for name in ("scalar", "complex-scalar"):
        argv = ["accelerate", files[name][0], "--functional", "dot", "--format", "json"]
        yield f"accelerate {name} dot json", lambda a=argv: _call(a, tmp)
    # the report written to a file instead of stdout
    out = os.path.join(tmp, "report.out")
    for name in ("real", "complex", "hand-complex", "long-10"):
        path, *limit = files[name]
        for fmt in ("csv", "json"):
            argv = ["accelerate", path, "--format", fmt, *[a for lp in limit
                                                         for a in ("--limit-file", lp)]]
            yield f"accelerate {name} {fmt} --out", lambda a=argv: _call_out(a, out, tmp)
    # a fault near the end of a long file: the exit code, and nothing on
    # stdout or in the --out file
    rows = [f"{1 + 0.9 ** n!r} {2 - 0.5 ** n!r} {0.25 ** n!r}" for n in range(2000)]
    faults = {"bad-number": ("vector 3", {1990: "1 2 apple"}),
              "bad-width": ("vector 3", {1990: "1 2"}),
              "non-finite": ("vector 3", {1990: "1 inf 2"}),
              "non-finite-then-bad-number": ("vector 3", {10: "1 nan 2", 1990: "1 2 apple"}),
              "partial-block": ("matrix 3 3", {})}
    for name, (header, changed) in faults.items():
        path = os.path.join(tmp, f"fault-{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, *[changed.get(n, row) for n, row in enumerate(rows)]])
                     + "\n")
        for fmt in ("csv", "json"):
            argv = ["accelerate", path, "--format", fmt]
            yield f"accelerate fault {name} {fmt}", lambda a=argv: _call(a, tmp)
            yield f"accelerate fault {name} {fmt} --out", lambda a=argv: _call_out(a, out, tmp)
    const = os.path.join(tmp, "const.txt")
    seqio.write_terms(const, [np.full(4, 2.5)] * 7)
    for algo in ("stea1", "stea2"):
        argv = ["accelerate", const, "--algo", algo, "--kmax", "2", "--format", "json"]
        yield f"accelerate const {algo}", lambda a=argv: _call(a, tmp)


def _trace_weighted_values():
    """``trace_weighted`` of random 150x150 matrices, real and complex,
    weighed by ``Y`` (``trace(Y^H X)``) and by ``conj(Y).T``
    (``trace(Y X)``), beside the sum of the absolute products."""
    import numpy as np

    from epsaccel import Functional

    rng = np.random.default_rng(11)
    out = {}
    for kind in ("real", "complex"):
        Y, X = rng.standard_normal((2, 150, 150))
        if kind == "complex":
            Y = Y + 1j * rng.standard_normal((150, 150))
            X = X + 1j * rng.standard_normal((150, 150))
        for form, W in (("Y", Y), ("conj(Y).T", np.conj(Y).T)):
            value = complex(Functional.trace_weighted(W)(X))
            scale = float(np.abs(W).ravel() @ np.abs(X).ravel())
            out[f"{kind}/{form}"] = [value.real, value.imag, scale]
    return out


def child():
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as workdir:
        digests = {name: thunk() for name, thunk in configurations(workdir)}
    json.dump({"digests": digests, "trace_weighted": _trace_weighted_values()},
              sys.stdout)


# -- parent side ------------------------------------------------------------------

def run_tree(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: configuration run failed")
    return json.loads(proc.stdout)


_NUMBER = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?")


def _worst_relative(a, b):
    """The largest relative difference between the finite numbers of two
    outputs; inf where they differ in anything else."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return math.inf
    pairs = zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b)))
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y),
               default=0.0)


def main(argv):
    if argv == ["--child"]:
        child()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (run_tree(tree) for tree in argv)
    bad = []
    counts = {}
    for name in sorted(set(old["digests"]) | set(new["digests"])):
        a, b = old["digests"].get(name), new["digests"].get(name)
        if a is None or b is None:
            bad.append(f"{name} (only in {'new' if a is None else 'old'})")
            continue
        parts = [part for part in a if a[part] != b[part]]
        if "output" in parts and name.startswith("reproduce/stein"):
            worst = _worst_relative(a["output"], b["output"])
            print(f"{name}: relative difference {worst:.2e} (bound {SMITH_RTOL:g})")
            if worst <= SMITH_RTOL:
                parts.remove("output")
        for part in parts:
            counts[part] = counts.get(part, 0) + 1
        if parts:
            bad.append(f"{name} ({', '.join(parts)})")
        if "odd" in parts:
            for pos in sorted(set(a["odd"]) | set(b["odd"]),
                              key=lambda p: tuple(map(int, p.split(",")))):
                x, y = a["odd"].get(pos, "finite"), b["odd"].get(pos, "finite")
                if x != y:
                    bad.append(f"    odd coefficient ({pos}): {x} -> {y}")
        if "output" in parts:
            # past the two file headers, so that a line of its own that
            # starts with "--" (the --out digest) is shown too
            lines = list(difflib.unified_diff(a["output"].splitlines(),
                                              b["output"].splitlines(), lineterm="", n=0))
            bad.extend(f"    {line}" for line in lines[2:] if line[:1] in "+-")
    for name, (re0, im0, scale) in old["trace_weighted"].items():
        re1, im1, _ = new["trace_weighted"][name]
        err = abs(complex(re1, im1) - complex(re0, im0)) / scale
        print(f"trace_weighted {name}: relative difference {err:.2e} (bound {TW_RTOL:g})")
        if err > TW_RTOL:
            bad.append(f"trace_weighted {name}")
    for line in bad:
        print(line if line.startswith("    ") else f"DIFFERS: {line}")
    differ = ", ".join(f"{counts.get(part, 0)} in {part}"
                       for part in ("entries", "counters", "odd", "counts", "output"))
    print(f"{len(old['digests'])} configurations; differing: {differ}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
