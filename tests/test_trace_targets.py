"""The benchmark's tracer wraps setorder attributes by name.

``perfbench/spans.py`` lists every traced function as (module, attribute
path), and ``Tracer.install`` raises on a missing attribute. Installing
and uninstalling it here makes a renamed or deleted traced attribute fail
this suite, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import setorder.cli  # noqa: F401  (loads every module the tracer patches)
from setorder import problem

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_target_and_uninstalls():
    family_at = problem.family_at
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert problem.family_at is not family_at
    finally:
        tracer.uninstall()
    assert problem.family_at is family_at
