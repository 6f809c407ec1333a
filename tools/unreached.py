"""List the lines of src/epsaccel that no run reaches.

    python3 tools/unreached.py [--compare-trees]

Runs tier-1 (pytest on ``tests``) and ``bench/selftest.py``, each in a
subprocess of its own under a line tracer (``sys.settrace``) that follows
only the frames of ``src/epsaccel``, and merges the lines they ran.
``--compare-trees`` adds ``tools/compare_trees.py --child``: the three
traced runs took 13 minutes on a shared 2-vCPU host, where the untraced
``--child`` takes two.  Prints each line
that can run (a line the compiler starts an instruction on) but never ran,
as ``path:line: source``, then the count per module.  The programs' own
output goes to stderr.

This is the ``python -m trace --count --missing`` survey, with two
differences.  ``trace`` exits 0 whatever the program it ran returned, so
each run here calls its program in-process and passes on the program's own
exit code.  And ``trace --ignore-dir`` caches its verdict by a module's
base name, so numpy's ``__init__`` hides the package's own ``__init__.py``.
A run that fails is named on stderr with its exit code; pytest's code 1
(tests ran, some failed) still leaves a complete trace and only warns,
since tier-1 holds a check that fails by design.  Any other failure makes
the script exit 1.
"""

from __future__ import annotations

import dis
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "epsaccel")
# the runs, by name: the script (or pytest's arguments) and the exit codes
# that still leave a complete trace
RUNS = {
    "pytest": (["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")], (0, 1)),
    "selftest": ([os.path.join(ROOT, "bench", "selftest.py")], (0,)),
    "compare_trees": ([os.path.join(ROOT, "tools", "compare_trees.py"), "--child"], (0,)),
}


def _program(name):
    """A function that runs one program in this process and returns its exit
    code."""
    args = RUNS[name][0]
    if name == "pytest":
        import pytest

        return lambda: pytest.main(args)

    def run():
        sys.argv = list(args)
        sys.path.insert(0, os.path.dirname(args[0]))
        try:
            runpy.run_path(args[0], run_name="__main__")
        except SystemExit as stop:
            return stop.code
        return 0
    return run


def _call(name):
    """Run one program with a line tracer on the package's frames; its exit
    code and the lines of the package it ran, by path."""
    ran = {}

    def lines(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    out = sys.stdout
    with open(os.devnull, "w") as null:
        # compare_trees --child writes its digests to stdout
        if name == "compare_trees":
            sys.stdout = null
        threading.settrace(calls)
        sys.settrace(calls)
        try:
            code = _program(name)()
        finally:
            sys.settrace(None)
            threading.settrace(None)
            sys.stdout = out
    return int(code or 0), {path: sorted(got) for path, got in ran.items()}


def _runnable(path):
    """The lines of a module that start an instruction."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv):
    if argv[:1] == ["--child"]:
        code, ran = _call(argv[1])
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(ran, fh)
        return code
    if argv not in ([], ["--compare-trees"]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    names = ["pytest", "selftest"] + (["compare_trees"] if argv else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    ran, failed = {}, False
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        for name in names:
            out = os.path.join(tmp, f"{name}.json")
            # the programs' own output goes to stderr, the report to stdout
            code = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                                   name, out], env=env, cwd=ROOT, stdout=sys.stderr,
                                  check=False).returncode
            if code not in RUNS[name][1] or not os.path.exists(out):
                print(f"unreached: {name} failed with exit code {code}", file=sys.stderr)
                failed = True
                continue
            if code:
                print(f"unreached: {name} exited {code}; its trace is complete",
                      file=sys.stderr)
            with open(out, encoding="utf-8") as fh:
                for path, lines in json.load(fh).items():
                    ran.setdefault(path, set()).update(lines)
    if failed:
        return 1
    total = 0
    counts = []
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        missing = sorted(_runnable(path) - ran.get(path, set()))
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in missing:
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
        counts.append(f"{len(missing):5d}  {module}")
        total += len(missing)
    print("\n".join(counts + [f"{total:5d}  lines never ran"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
