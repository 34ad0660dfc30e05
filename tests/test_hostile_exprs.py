"""Hostile expressions in the shipped problem documents.

Each case is a shipped document with one expression string replaced by
hostile text: a guard or box or point expression of the base map or of
``map_n``, a ``domain_n`` window end, or a ``recovery_hint`` coordinate.
``solve``, and ``stability`` on a family, must end with a contract exit
code (0, 1, 2 or 64), let no exception escape and print no traceback.
"""

import json
from pathlib import Path

import pytest

from setorder import cli
from setorder.expr import MAX_DEPTH

PROBLEMS = Path(cli.__file__).parent / "data" / "problems"
SHIPPED = ("geff_vs_reff", "gamma_cos", "sop_sin")
HOSTILE = (
    "x1/(n-n)",                # a zero divisor at every n
    "exp(1000*n)",             # overflows from n = 1 on
    "inf-inf",                 # NaN
    "x2",                      # a coordinate a 1-D problem lacks
    "n",                       # n in a base map
    "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,   # nests past MAX_DEPTH
    "x1 # 2",                  # a stray character
)


def _sites(node, path=()):
    """Paths of the expression strings of a map, domain_n or hint."""
    if isinstance(node, dict):
        for key, sub in node.items():
            if key in ("guard", "lo", "hi") or (key in ("a", "b")
                                                and "domain_n" in path):
                yield path + (key,)
            elif key in ("map", "family", "map_n", "domain_n", "windows",
                         "pieces", "box", "points", "recovery_hint"):
                yield from _sites(sub, path + (key,))
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            if isinstance(sub, (dict, list)):
                yield from _sites(sub, path + (i,))
            elif path[-1:] == ("recovery_hint",) or "points" in path:
                yield path + (i,)


def _cases():
    for name in SHIPPED:
        doc = json.loads((PROBLEMS / f"{name}.json").read_text())
        for path in _sites(doc):
            yield name, path


def _mutated(name, path, text):
    doc = json.loads((PROBLEMS / f"{name}.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    # a guard is a comparison; the hostile text stands on one side
    node[path[-1]] = f"{text} < 1" if path[-1] == "guard" else text
    return doc


def test_every_kind_of_site_is_mutated():
    kinds = {(name, [k for k in path if isinstance(k, str)][-1])
             for name, path in _cases()}
    assert {("sop_sin", k) for k in ("guard", "lo", "hi", "a", "b",
                                     "recovery_hint")} <= kinds
    assert ("gamma_cos", "points") in kinds
    assert any(p[:2] == ("family", "map_n") for _, p in _cases())


@pytest.mark.parametrize("text", HOSTILE)
@pytest.mark.parametrize("name", SHIPPED)
def test_hostile_expression_exits_with_a_contract_code(tmp_path, capsys,
                                                       name, text):
    for i, (_, path) in enumerate(c for c in _cases() if c[0] == name):
        doc = _mutated(name, path, text)
        f = tmp_path / f"doc{i}.json"
        f.write_text(json.dumps(doc))
        commands = [["solve", str(f)]]
        if "family" in doc:
            commands.append(["stability", str(f), "--kind", "Relaxed",
                             "--direction", "external", "--horizon", "16"])
        for argv in commands:
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 64), (argv[0], path, code, err)
            assert "Traceback" not in err, (argv[0], path, err)


def test_n_as_a_member_lower_end_at_the_default_horizon(tmp_path, capsys):
    # with lower end n every grid point of a member is minimal, so the
    # default horizon's tail holds thousands of points to cluster
    path = ("family", "map_n", "pieces", 0, "box", 0, "lo")
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(_mutated("sop_sin", path, "n")))
    code = cli.main(["stability", str(f), "--kind", "Relaxed",
                     "--direction", "external"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 64), (code, err)
    assert "Traceback" not in err
    assert json.loads(out)["result"]["meta"]["tail_points"] == 3490
