"""Check that two source trees of epsaccel give bit-identical outputs.

    python3 tools/compare_trees.py OLD_TREE NEW_TREE

``OLD_TREE`` and ``NEW_TREE`` are checkouts of this repository (for example
the parent commit, exported with ``git archive``, and the working tree).
Each tree's ``src`` is imported in its own subprocess, which runs the fixed
list of configurations in :func:`configurations` and prints one SHA-256
digest per configuration.  A table's digest covers the bytes (any NaN as the
canonical one), dtype, shape and Python type of every entry each ``append``
returned, then ``sigma``, the event log (k, n, ratio, treated, suppressed,
victim), the repair flags, ``invalid`` and ``peak_slots``/``peak_total``.  A command's digest covers its
exit code and output, with ``wall_time_s`` removed.

``Functional.trace_weighted`` sums in another order than the parent's
``np.trace(Y^H @ X)``, so its values are compared within ``TW_RTOL`` of the
sum of the absolute products, not bit for bit, and no table is fed by it.

Exits 0 when every digest agrees and 1 otherwise, naming each configuration
that differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile

# 2 * s * eps at s = 150, the bound tests/test_vectorspace.py checks
TW_RTOL = 6.7e-14
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


def _digest_table(tab, terms):
    """Digest of every entry ``append`` returns and the table's counters."""
    h = hashlib.sha256()
    for S in terms:
        for k, n, value in tab.append(S):
            h.update(f"{k},{n}:".encode())
            if value is None:
                h.update(b"None")
            else:
                _feed(h, value)
    scalar = getattr(tab, "scalar", tab)
    if hasattr(scalar, "events"):
        h.update(f"sigma={scalar.sigma}".encode())
        for ev in scalar.events:
            h.update(f"{ev.k},{ev.n},{struct.pack('<d', ev.ratio).hex()},"
                     f"{ev.treated},{ev.suppressed},{ev.victim};".encode())
        h.update(repr(sorted(scalar._flags.items())).encode())
    for attr in ("invalid", "peak_slots", "peak_total"):
        if hasattr(tab, attr):
            value = getattr(tab, attr)
            h.update(f"{attr}={sorted(value) if attr == 'invalid' else value}".encode())
    return h.hexdigest()


def _five_modes(dim, seed):
    """The benchmark's five-mode geometric spec with a nonzero limit."""
    import numpy as np

    rng = np.random.default_rng(seed)
    modes = [rng.random(dim) + 0.5 for _ in RATES]
    return {"kind": "geometric_modes", "limit": rng.random(dim) + 0.5,
            "amps": [1.0] * len(RATES), "rates": list(RATES), "modes": modes}


def _all_tables(f, max_k=5, p=10):
    """Factories of the scalar table, stea1/stea2 in every form with rules on
    and off, and tea1/tea2, by name."""
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
        yield f"{name}/{tname}", lambda m=make, t=feed: _digest_table(m(), t)


def configurations(workdir):
    """``(name, thunk)`` pairs; each thunk returns a digest string.  The
    command-line runs write their input files under ``workdir``."""
    import numpy as np

    from epsaccel import Functional, ScalarEpsTable, TopoEpsTable, harness
    from epsaccel.sequences import KernelRecurrence

    # the 3,000-term dim-100 stream of the benchmark's long workload
    for seed in (1, 2):
        src = harness.build_source(_five_modes(100, seed), seed)
        terms = src.take(3000)
        f = harness.build_functional({"kind": "dot"}, terms[0].shape, seed)
        yield from _stream_configs(f"long/seed={seed}", terms, f)

    # the kernel protocols' streams, as reproduce builds them
    for space, dim in (("vector", 50), ("matrix", 12)):
        src = KernelRecurrence(dim, space, seed=0)
        terms = [src.next_term() for _ in range(11)]
        f = Functional.dot(np.ones(dim)) if space == "vector" else Functional.trace()
        for p in (7, 10, 12):
            yield from _stream_configs(f"kernel-{space}/p={p}", terms, f, p=p)

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
        "complex": (cgeo, Functional.dot(y)),
        "complex-y": (cgeo, Functional.dot(y + 1j * y[::-1])),
        "real-complex-y": (geo, Functional.dot(y + 1j * y[::-1])),
        "complex-y-noconj": (cgeo, Functional.dot(y + 1j * y[::-1], conjugate=False)),
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
    # is summed leaf by leaf without forming the difference
    from epsaccel.vectorspace import BLOCK
    for dim in (BLOCK + 1, 2 * BLOCK + 7, 100_003):
        u, v, w = (rng.random(dim) + 0.5 for _ in range(3))
        y = rng.random(dim) + 0.5
        cy = y + 1j * u[::-1]
        real = [0.3 + 0.8 ** n * u + 0.5 ** n * v for n in range(14)]
        cplx = [(1 + 0.5j) * S + 1j * 0.6 ** n * w for n, S in enumerate(real)]
        for name, terms, f in (("real", real, Functional.dot(y)),
                               ("complex", cplx, Functional.dot(cy)),
                               ("real-complex-y", real, Functional.dot(cy)),
                               ("complex-y-noconj", cplx,
                                Functional.dot(cy, conjugate=False))):
            yield from _stream_configs(f"above-block-{dim}/{name}", terms, f)

    # the scalar table alone: every parity and threshold, planted exact and
    # near ties, signed zeros, infinities, NaN, complex and mixed streams
    tied = list(scal[:60])
    for i, rel in ((5, 0.0), (17, 1e-13), (30, 0.0), (31, 1e-15), (44, 1e-11)):
        tied[i] = tied[i - 1] * (1.0 + rel)
    scalar_streams = {
        "tied": tied,
        "signed-zero": [0.0, -0.0, 0.0, 1.0, -0.0, -0.0, 2.0, 2.0, 0.0],
        "inf-nan": [1.0, 2.0, float("inf"), 3.0, float("-inf"), 4.0, float("nan"),
                    5.0, 6.0, 6.0, 7.0],
        "complex": [complex(s, -s / 3) for s in tied],
        "mixed": tied[:10] + [complex(s, 1e-3) for s in tied[10:20]] + tied[20:30],
        "numpy-scalars": [np.float64(s) for s in tied],
        "constant": [3.25] * 12,
    }
    for sname, terms in scalar_streams.items():
        for parity in ("both", "even", "odd"):
            for p in (None, 7, 10, 12):
                for rules in (True, False):
                    for max_col in (4, 10, None):
                        yield (f"scalar/{sname}/{parity}/p={p}/rules={rules}/max_col={max_col}",
                               lambda t=terms, pa=parity, pp=p, r=rules, mc=max_col:
                               _digest_table(ScalarEpsTable(
                                   max_col=mc, p_threshold=pp, particular_rules=r,
                                   singular_parity=pa), t))

    # parity and rules through the element tables
    src = KernelRecurrence(50, "vector", seed=0)
    terms = [src.next_term() for _ in range(11)]
    f = Functional.dot(np.ones(50))
    for parity in ("even", "odd"):
        for variant in ("stea1", "stea2"):
            yield (f"kernel-vector/{variant}/parity={parity}",
                   lambda v=variant, pa=parity: _digest_table(
                       TopoEpsTable(f, 5, variant=v, singular_parity=pa), terms))

    yield from _cli_configs(workdir)


def _call(argv, workdir=None):
    """Digest of a command's exit code and output; the timing and the
    temporary directory's name are taken out."""
    from epsaccel import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = re.sub(r'"?wall_time_s"?[:=]\s*[-+0-9.eE]+', "wall_time_s", out.getvalue())
    if workdir:
        text = text.replace(workdir, "<workdir>")
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def _cli_configs(tmp):
    import numpy as np

    from epsaccel import harness, seqio

    kernel = [[name, *p] for name in ("kernel-vector", "kernel-matrix")
              for p in ([], ["--p", "10"], ["--p", "7"])]
    for args in kernel + [["kaczmarz"], ["ns"], ["qpow"], ["stein"]]:
        yield "reproduce/" + " ".join(args), lambda a=args: _call(
            ["reproduce", *a, "--format", "json"])

    src = harness.build_source(_five_modes(20, 3), 3)
    terms = src.take(60)
    files = {}
    for name, seq in (("real", terms),
                      ("complex", [(1 - 0.5j) * S for S in terms[:30]]),
                      ("matrix", [S.reshape(4, 5) for S in terms[:30]]),
                      ("scalar", [S[:1].reshape(()) for S in terms])):
        path = os.path.join(tmp, f"{name}.txt")
        seqio.write_terms(path, seq)
        files[name] = path
    limit = os.path.join(tmp, "limit.txt")
    seqio.write_terms(limit, [src.limit()])
    const = os.path.join(tmp, "const.txt")
    seqio.write_terms(const, [np.full(4, 2.5)] * 7)
    for name, path in files.items():
        for algo in ("scalar", "stea1", "stea2", "tea1", "tea2"):
            for fmt in ("csv", "json"):
                extra = [["--limit-file", limit]] if name == "real" else []
                for more in [[], *extra]:
                    argv = ["accelerate", path, "--algo", algo, "--format", fmt, *more]
                    label = f"accelerate {name} {algo} {fmt}" + (" limit" if more else "")
                    yield label, lambda a=argv: _call(a, tmp)
    for algo in ("stea1", "stea2"):
        argv = ["accelerate", const, "--algo", algo, "--kmax", "2", "--format", "json"]
        yield f"accelerate const {algo}", lambda a=argv: _call(a, tmp)


def _trace_weighted_values():
    """``trace_weighted`` of random 150x150 matrices, real and complex, with
    ``conjugate`` on and off, beside the sum of the absolute products."""
    import numpy as np

    from epsaccel import Functional

    rng = np.random.default_rng(11)
    out = {}
    for kind in ("real", "complex"):
        Y, X = rng.standard_normal((2, 150, 150))
        if kind == "complex":
            Y = Y + 1j * rng.standard_normal((150, 150))
            X = X + 1j * rng.standard_normal((150, 150))
        for conj in (True, False):
            value = complex(Functional.trace_weighted(Y, conjugate=conj)(X))
            scale = float(np.abs(Y).ravel() @ np.abs(X).ravel())
            out[f"{kind}/conjugate={conj}"] = [value.real, value.imag, scale]
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


def main(argv):
    if argv == ["--child"]:
        child()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (run_tree(tree) for tree in argv)
    bad = []
    for name in sorted(set(old["digests"]) | set(new["digests"])):
        if old["digests"].get(name) != new["digests"].get(name):
            bad.append(name)
    for name, (re0, im0, scale) in old["trace_weighted"].items():
        re1, im1, _ = new["trace_weighted"][name]
        err = abs(complex(re1, im1) - complex(re0, im0)) / scale
        print(f"trace_weighted {name}: relative difference {err:.2e} (bound {TW_RTOL:g})")
        if err > TW_RTOL:
            bad.append(f"trace_weighted {name}")
    for name in bad:
        print(f"DIFFERS: {name}")
    print(f"{len(old['digests'])} configurations, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
