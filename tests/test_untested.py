"""The untested-statement lister (benchmarks/untested.py)."""

import importlib.util
from pathlib import Path

UNTESTED = Path(__file__).resolve().parent.parent / "benchmarks" / "untested.py"


def _load_untested():
    spec = importlib.util.spec_from_file_location("benchmarks_untested", UNTESTED)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


untested = _load_untested()

CALC = '''"""Two functions, one of them tested."""


def called(x):
    """Docstring, never listed."""
    if x > 0:
        return x
    return -x


def uncalled(x):
    y = (x
         + 1)
    return y
'''

TEST = '''from untested_demo_pkg.calc import called


def test_called():
    assert called(2) == 2
'''


def test_lists_the_statements_no_test_runs(tmp_path):
    src = tmp_path / "untested_demo_pkg"
    src.mkdir()
    (src / "__init__.py").write_text('"""A package of two files."""\n')
    (src / "calc.py").write_text(CALC)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_untested_demo.py").write_text(TEST)
    status, ran = untested.trace_tests(src, [str(tests), "-q", "-p", "no:cacheprovider"])
    assert status == 0
    # the def lines ran when the module was imported; the branch for x <= 0
    # and the body of the function no test calls did not
    assert untested.report(src, ran) == [
        "calc.py:8: return -x",
        "calc.py:12: y = (x",
        "calc.py:14: return y",
    ]


def test_a_statement_runs_when_its_head_or_a_child_runs():
    source = "try:\n    a = 1\nexcept ValueError:\n    b = 2\nelse:\n    c = 3\n"
    # no line event for `try` itself: its body ran, so it ran
    assert untested.unrun(source, {2, 6}) == [4]
    assert untested.unrun(source, set()) == [1, 2, 4, 6]
