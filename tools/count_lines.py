"""Count the code lines of Python modules.

    python3 tools/count_lines.py SRC...

Prints each module's count and the total.  A code line holds at least one
token that is not a comment; blank lines, comment lines and the lines of a
docstring (the string literal that opens a module, class or function,
found with ``ast``) do not count.  ROADMAP's size targets use this rule.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings cover."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """Code lines of one module."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = _docstring_lines(ast.parse(source, path))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(paths):
    if not paths:
        print("usage: python3 tools/count_lines.py SRC...", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
