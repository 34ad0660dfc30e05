"""The code-line counter (benchmarks/loc.py)."""

import ast
import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "benchmarks" / "loc.py"


def _load_loc():
    spec = importlib.util.spec_from_file_location("benchmarks_loc", LOC)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


loc = _load_loc()

SOURCE = '''"""Module docstring,
over two lines."""

import math   # a trailing comment keeps its line

# a comment-only line


def f(x):
    """One-line docstring."""
    return math.fsum([x,
                      1.0,

                      2.0])


class C:
    """Class docstring."""
    text = """a string that is
not a docstring"""
'''


def test_counts_code_lines_only():
    # import, def, the return's three non-blank lines, class, and the two
    # lines of the string that is data
    assert loc.code_lines(SOURCE) == 8


def test_docstrings_are_found_in_modules_classes_and_functions():
    assert loc.docstring_lines(ast.parse(SOURCE)) == {1, 2, 10, 18}
