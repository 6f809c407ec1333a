"""Command-line front end.

Two subcommands:

``epsaccel accelerate FILE``
    Read a term sequence from a text file (see :mod:`epsaccel.seqio` for the
    format), run one acceleration table over it, and emit the per-entry
    report as CSV or JSON.  The file is read one term at a time as the
    table is fed, and each entry's row is written to a temporary spool as it
    is made, so the command holds one term and the table's O(K) state
    however long the file is.  The report's header (``sigma``, ``n_terms``,
    the wall time) is known only at the end: then it is written, and the
    spool copied after it in blocks.  Nothing is written when the file turns
    out to be unusable.

``epsaccel reproduce NAME``
    Run a canned benchmark protocol (kernel-vector, kernel-matrix, kaczmarz,
    ns, qpow, stein) and print its comparison table.

Exit codes: 0 on success, 1 when the run produced no valid accelerated
entry (numerical breakdown), 2 for unusable input or bad arguments: a file
that cannot be read or parsed, a limit, functional or ``y`` that does not
fit the terms' shape, a ``--y-file`` for a functional that takes no ``y``
(only ``dot`` and ``trace-y`` take one), an ``--out`` file that cannot be
written, or a negative ``--kmax``, ``--p`` or ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, seqio
from .vectorspace import DimensionMismatchError

__all__ = ["main"]

_ALGOS = ("scalar", "stea1", "stea2", "tea1", "tea2")
# each --functional's harness kind, and the key of the y that --y-file
# gives it (None for a functional that takes no y)
_FUNCTIONALS = {"auto": ("auto", None), "dot": ("dot", "y"),
                "random-dot": ("random_dot", None), "trace": ("trace", None),
                "trace-y": ("trace_weighted", "Y"), "bilinear": ("bilinear", None)}


def _order(text):
    """A transform order, threshold digit count or seed from the command
    line: an integer >= 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {k}")
    return k


def _dim(text):
    """A problem dimension from the command line: an integer >= 1."""
    d = int(text)
    if d < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {d}")
    return d


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epsaccel",
        description="Convergence acceleration for scalar, vector, and matrix sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    acc = sub.add_parser(
        "accelerate", help="accelerate a sequence read from a text file")
    acc.add_argument("input", help="sequence file (see package docs for the format)")
    acc.add_argument("--algo", choices=_ALGOS, default="stea2",
                     help="table variant (default stea2)")
    acc.add_argument("--form", type=int, choices=(1, 2, 3, 4), default=3,
                     help="coefficient form for stea variants (default 3)")
    acc.add_argument("--kmax", type=_order, default=5,
                     help="highest transform order (default 5)")
    acc.add_argument("--p", type=_order, default=10,
                     help="singular detection threshold digits (default 10)")
    acc.add_argument("--no-rules", action="store_true",
                     help="disable singular-block repairs")
    acc.add_argument("--parity", choices=("both", "even", "odd"), default="both",
                     help="columns watched by the singular test (default both)")
    acc.add_argument("--functional", choices=_FUNCTIONALS, default="auto",
                     help="scalar reduction driving the table (default auto)")
    acc.add_argument("--y-file", metavar="FILE",
                     help="sequence file whose first term is the y of "
                          "--functional dot or trace-y")
    acc.add_argument("--limit-file", metavar="FILE",
                     help="sequence file whose first term is the known limit, "
                          "enabling error columns")
    acc.add_argument("--seed", type=_order, default=0,
                     help="seed for any randomized choices (default 0)")
    acc.add_argument("--format", choices=("csv", "json"), default="csv")
    acc.add_argument("--out", metavar="FILE", help="write report here instead of stdout")

    rep = sub.add_parser("reproduce", help="run a canned benchmark protocol")
    rep.add_argument("name", choices=("kernel-vector", "kernel-matrix",
                                      "kaczmarz", "ns", "qpow", "stein"))
    rep.add_argument("--dim", type=_dim, default=None)
    rep.add_argument("--p", type=_order, default=None,
                     help="singular detection threshold digits (kernel protocols only)")
    rep.add_argument("--kmax", type=_order, default=None)
    rep.add_argument("--seed", type=_order, default=0)
    rep.add_argument("--jobs", type=int, choices=(1,), default=1,
                     help="kept for compatibility; runs are serial")
    rep.add_argument("--format", choices=("table", "json"), default="table")
    rep.add_argument("--out", metavar="FILE")
    return parser


def _functional_conf(args):
    """The harness's functional spec for ``--functional`` and ``--y-file``."""
    kind, key = _FUNCTIONALS[args.functional]
    conf = {"kind": kind}
    if args.y_file:
        if key is None:
            raise argparse.ArgumentError(
                None, f"--y-file needs --functional dot or trace-y, not {args.functional}")
        conf[key] = seqio.first_term(args.y_file).tolist()
    return conf


def _emit(write, out):
    """Call ``write`` on stdout, or on the file ``out`` opened for writing;
    returns the exit code, 2 when ``out`` cannot be written."""
    if not out:
        write(sys.stdout)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        print(f"epsaccel: {exc}", file=sys.stderr)
        return 2
    return 0


class _Rows(harness.Spool):
    """The report's entry sink: each append's rows spooled, and whether any
    accelerated entry (column > 0) is valid."""

    accelerated = False

    def extend(self, entries):
        super().extend(entries)
        if not self.accelerated:
            self.accelerated = any(e.col > 0 and e.valid for e in entries)


def _cmd_accelerate(args):
    with _Rows(args.format) as rows, harness.Spool(args.format, "events") as events:
        try:
            source = {"kind": "file", "path": args.input}
            if args.limit_file:
                source["limit_path"] = args.limit_file
            algo = {"variant": args.algo, "form": args.form, "max_k": args.kmax,
                    "p": args.p, "rules": not args.no_rules, "parity": args.parity}
            report = harness.run({
                "source": source, "algorithm": algo,
                "functional": _functional_conf(args),
                "n_terms": None, "seed": args.seed,
                "label": os.path.basename(args.input)}, rows, events)
        except (OSError, argparse.ArgumentError, seqio.FormatError,
                DimensionMismatchError) as exc:
            print(f"epsaccel: {exc}", file=sys.stderr)
            return 2

        def write(out):
            if args.format == "json":
                report.write_json(out)
                out.write("\n")
            else:
                report.write_csv(out)

        if _emit(write, args.out):
            return 2

    if not rows.accelerated and args.kmax > 0 and report.n_terms > 2:
        print("epsaccel: numerical breakdown; no accelerated entry is finite",
              file=sys.stderr)
        return 1
    return 0


def _format_protocol_table(result):
    lines = [f"protocol: {result['protocol']}"]
    meta = {k: v for k, v in result.items() if k not in ("rows", "protocol")}
    lines.append("  " + "  ".join(f"{k}={v}" for k, v in meta.items()
                                  if not isinstance(v, dict)))
    rows = result["rows"]
    cols = list(rows[0].keys())
    widths = {c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) for c in cols}
    lines.append("  " + "  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        lines.append("  " + "  ".join(_cell(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def _cell(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e4 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def _cmd_reproduce(args):
    try:
        result = harness.reproduce(args.name, dim=args.dim, p=args.p,
                                   seed=args.seed, kmax=args.kmax)
    except ValueError as exc:
        print(f"epsaccel: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(result, indent=2, default=harness._json_default)
    else:
        text = _format_protocol_table(result)
    return _emit(lambda out: out.write(text + "\n"), args.out)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "accelerate":
        code = _cmd_accelerate(args)
    else:
        code = _cmd_reproduce(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
