"""Statements of src/setorder that no test runs.

Run from the repository root:

    python3 benchmarks/untested.py [--src src/setorder] [-- <pytest args>]

Runs pytest once, in this process, under ``sys.settrace``, recording the
lines run in frames whose code lies under ``--src`` (other frames are not
traced line by line). The directory holding ``--src`` goes first on
``sys.path``, so the package is imported from there. Then prints each
statement of the package that never ran as ``<file>:<line>: <text>`` and
a last line ``<count> statements never ran``. Docstrings are left out, as
``loc.py`` leaves them out. A statement ran when a line of its head ran
(from its decorators to the line before its body) or a statement inside
it ran, so a ``try`` or ``else`` that emits no line event of its own is
not listed while its body runs. Pytest's arguments default to the
repository's ``tests`` directory with ``-q``; pytest's own exit status
is printed to stderr, and the tool's exit status is 0 either way.

Code run only in a child process is not seen: the CLI's error branches
that only the subprocess tests reach (``cli.py:529-530``, for example)
show as never run. So do lines run before tracing starts, for a package
already imported. A full run of the repository's tests takes about
3.5 min on 2 vCPU, against about 80 s without tracing. Uses the standard
library and pytest only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks")]

from loc import docstring_lines  # noqa: E402


def _head(node: ast.stmt) -> range:
    """The lines of a statement before its body: decorators, the statement's
    own lines, and for a compound statement those up to its first child."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(start, max(end, node.lineno) + 1)


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first line of each statement of ``source`` that never ran, in
    line order, given the lines ``ran``; docstrings, ``global`` and
    ``nonlocal`` (which run no code) are left out."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    out: list[int] = []

    def visit(node: ast.AST) -> bool:
        """Whether some statement at or inside ``node`` ran."""
        inner = [visit(c) for c in ast.iter_child_nodes(node)]
        if not isinstance(node, ast.stmt):
            return any(inner)
        if node.lineno in docs or isinstance(node, (ast.Global, ast.Nonlocal)):
            return False
        hit = any(inner) or not ran.isdisjoint(_head(node))
        if not hit:
            out.append(node.lineno)
        return hit

    visit(tree)
    return sorted(out)


def trace_tests(src: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run per file under ``src``."""
    import pytest

    prefix = os.path.join(src.resolve(), "")
    ran: dict[str, set[int]] = {}
    files: dict[str, Optional[set[int]]] = {}   # co_filename -> its lines, or None

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        return local if files[name] is not None else None

    parent = str(src.resolve().parent)
    sys.path.insert(0, parent)
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
        sys.path.remove(parent)
    return int(status), ran


def report(src: Path, ran: dict[str, set[int]]) -> list[str]:
    """``<file>:<line>: <text>`` for each statement of a module of ``src``
    that never ran, modules in name order."""
    lines = []
    for path in sorted(src.resolve().glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for i in unrun(source, ran.get(str(path), set())):
            lines.append(f"{path.name}:{i}: {text[i - 1].strip()}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src" / "setorder",
                    help="package directory (default %(default)s)")
    ap.add_argument("pytest_args", nargs="*",
                    help="arguments for pytest, after -- (default: the tests "
                         "directory, -q)")
    args = ap.parse_args(argv)
    status, ran = trace_tests(args.src, args.pytest_args or [str(ROOT / "tests"), "-q"])
    print(f"pytest exited with {status}", file=sys.stderr)
    lines = report(args.src, ran)
    for line in lines:
        print(line)
    print(f"{len(lines)} statements never ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
