"""Code lines per module of src/setorder.

Run from the repository root:

    python3 benchmarks/loc.py [--src src/setorder]

A code line is a non-blank line that holds a token other than a comment,
outside every docstring (the string opening a module, class or function
body): comment-only lines, blank lines and docstrings are left out, and a
statement spanning several lines counts each of them. Prints one line per
module, ``<lines> <file>``, and then ``<total> total``. Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = source.splitlines()
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return sum(1 for i in code if lines[i - 1].strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src" / "setorder",
                    help="package directory (default %(default)s)")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
