"""Command-line front end.

Two subcommands:

``epsaccel accelerate FILE``
    Read a term sequence from a text file (see :mod:`epsaccel.seqio` for the
    format), run one acceleration table over it, and emit the per-entry
    report as CSV or JSON.

``epsaccel reproduce NAME``
    Run a canned benchmark protocol (kernel-vector, kernel-matrix, kaczmarz,
    ns, qpow, stein) and print its comparison table.

Exit codes: 0 on success, 1 when the run produced no valid accelerated
entry (numerical breakdown), 2 for unusable input or bad arguments: a file
that cannot be read or parsed, or a limit, functional or ``y`` that does not
fit the terms' shape.
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
_FUNCTIONALS = ("auto", "dot", "random-dot", "trace", "trace-y", "bilinear")


def _order(text):
    """A transform order from the command line: an integer >= 0."""
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
    acc.add_argument("--p", type=int, default=10,
                     help="singular detection threshold digits (default 10)")
    acc.add_argument("--no-rules", action="store_true",
                     help="disable singular-block repairs")
    acc.add_argument("--parity", choices=("both", "even", "odd"), default="both",
                     help="columns watched by the singular test (default both)")
    acc.add_argument("--functional", choices=_FUNCTIONALS, default="auto",
                     help="scalar reduction driving the table (default auto)")
    acc.add_argument("--y-file", metavar="FILE",
                     help="sequence file whose first term is the functional's y")
    acc.add_argument("--limit-file", metavar="FILE",
                     help="sequence file whose first term is the known limit, "
                          "enabling error columns")
    acc.add_argument("--seed", type=int, default=0,
                     help="seed for any randomized choices (default 0)")
    acc.add_argument("--format", choices=("csv", "json"), default="csv")
    acc.add_argument("--out", metavar="FILE", help="write report here instead of stdout")

    rep = sub.add_parser("reproduce", help="run a canned benchmark protocol")
    rep.add_argument("name", choices=("kernel-vector", "kernel-matrix",
                                      "kaczmarz", "ns", "qpow", "stein"))
    rep.add_argument("--dim", type=_dim, default=None)
    rep.add_argument("--p", type=int, default=None,
                     help="singular detection threshold digits")
    rep.add_argument("--kmax", type=_order, default=None)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--jobs", type=int, default=1,
                     help="worker threads for independent runs")
    rep.add_argument("--format", choices=("table", "json"), default="table")
    rep.add_argument("--out", metavar="FILE")
    return parser


def _functional_conf(args, terms):
    kind = args.functional
    shape = terms[0].shape
    if kind == "auto":
        return {"kind": "auto"}
    if kind in ("dot", "trace-y") and args.y_file:
        y = seqio.read_terms(args.y_file)[0]
        if kind == "dot":
            return {"kind": "dot", "y": y.tolist()}
        return {"kind": "trace_weighted", "Y": y.tolist()}
    mapping = {"dot": {"kind": "dot"},
               "random-dot": {"kind": "random_dot"},
               "trace": {"kind": "trace"},
               "trace-y": {"kind": "trace_weighted"},
               "bilinear": {"kind": "bilinear"}}
    conf = mapping[kind]
    if kind == "dot" and shape == ():
        conf = {"kind": "dot", "y": 1.0}
    return conf


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_accelerate(args):
    try:
        terms = seqio.read_terms(args.input)
        source = {"kind": "file", "path": args.input, "terms": terms}
        if args.limit_file:
            source["limit_path"] = args.limit_file
        algo = {"variant": args.algo, "form": args.form, "max_k": args.kmax,
                "p": args.p, "rules": not args.no_rules, "parity": args.parity}
        report = harness.run({
            "source": source, "algorithm": algo,
            "functional": _functional_conf(args, terms),
            "n_terms": len(terms), "seed": args.seed,
            "label": os.path.basename(args.input)})
    except (OSError, seqio.FormatError, DimensionMismatchError) as exc:
        print(f"epsaccel: {exc}", file=sys.stderr)
        return 2

    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out)

    accelerated = [e for e in report.entries if e["col"] > 0 and e["valid"]]
    if not accelerated and args.kmax > 0 and len(terms) > 2:
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
    if not rows:
        lines.append("  (no rows)")
        return "\n".join(lines)
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
    result = harness.reproduce(args.name, dim=args.dim, p=args.p,
                               seed=args.seed, kmax=args.kmax, jobs=args.jobs)
    if args.format == "json":
        text = json.dumps(result, indent=2, default=harness._json_default)
    else:
        text = _format_protocol_table(result)
    _emit(text, args.out)
    return 0


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
