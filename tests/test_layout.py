"""Only order and _kernels know a corner table's layout.

A CornerTable's arrays are (K, m, *L) with the sets last (order.CornerTable).
Every other module of the package handles tables whole, through order's
table operations, so a change of layout stays inside those two modules.
This scan fails on each site in another module that reaches into a table:

  * a ``CornerTable(...)`` call, which lays the arrays out by hand;
  * a read of a table's ``.h``, ``.o`` or ``.cloud``: a subscript of it, an
    attribute or method of it, its ``len()``, or any other use, except
    passing it whole as an argument to a ``_kernels`` function, as the
    adversarial margin passes ``.h`` to ``shift_bound``;
  * iterating a table: a loop or comprehension over it, ``*table``, or
    unpacking it. A name holds a table when it is a parameter annotated
    ``CornerTable``, is bound to a call of a table producer, or has one of
    its arrays read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "setorder"
OWNERS = {"order.py", "_kernels.py"}
ARRAYS = {"h", "o", "cloud"}
PRODUCERS = {"CornerTable", "corner_table", "table_from_corners", "value_table"}


def _called(node: ast.AST) -> str:
    """The name a call's function goes by: ``f`` for f(...) and m.f(...)."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _kernel_names(tree: ast.Module) -> set[str]:
    """The names a module imports from ``_kernels``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "_kernels"
            for alias in node.names}


def _table_names(fn: ast.AST) -> set[str]:
    """The names that hold a table in one function (nested ones included)."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg) and node.annotation is not None and any(
                isinstance(n, ast.Name) and n.id == "CornerTable"
                for n in ast.walk(node.annotation)):
            out.add(node.arg)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and _called(node.value) in PRODUCERS):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.Attribute) and node.attr in ARRAYS
              and isinstance(node.value, ast.Name)):
            out.add(node.value.id)
    return out


def layout_sites(source: str) -> list[tuple[int, str]]:
    """(line, what) of each site in a module's source that reaches into a
    corner table, in line order."""
    tree = ast.parse(source)
    kernels = _kernel_names(tree)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "CornerTable":
            sites.append((node.lineno, "CornerTable(...) call"))
        elif isinstance(node, ast.Attribute) and node.attr in ARRAYS:
            up = parents[node]
            if not (isinstance(up, ast.Call) and node in up.args
                    and _called(up) in kernels):
                sites.append((node.lineno, f"reads .{node.attr}"))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tables = _table_names(fn)

        def is_table(expr):
            return ((isinstance(expr, ast.Name) and expr.id in tables)
                    or (isinstance(expr, ast.Call) and _called(expr) in PRODUCERS))

        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)):
                got = node.iter
            elif isinstance(node, ast.Starred):
                got = node.value
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, (ast.Tuple, ast.List)) for t in node.targets):
                got = node.value
            else:
                continue
            if is_table(got):
                sites.append((got.lineno, "iterates a table"))
    return sorted(set(sites))


def test_no_module_but_order_and_kernels_reaches_into_a_table():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py")) if path.name not in OWNERS
             for line, what in layout_sites(path.read_text())]
    assert not found, "corner-table layout outside order:\n" + "\n".join(found)


SAMPLE = '''
from ._kernels import shift_bound
from .order import CornerTable, corner_table


def f(tab: CornerTable, other, sets):
    a = CornerTable(tab.h, tab.o, tab.cloud)
    b = tab.h[0]
    c = other.cloud.shape
    d = len(other.o)
    for x in tab:
        pass
    h, o, cloud = corner_table(sets, None)
    e = [x for x in a]
    g = zip(*tab)
    return shift_bound(tab.h, other.h, 1.0), tab.sets(0), tab.split(2), tab.ideal()
'''


def test_each_kind_of_site_is_found():
    assert layout_sites(SAMPLE) == [
        (7, "CornerTable(...) call"), (7, "reads .cloud"), (7, "reads .h"), (7, "reads .o"),
        (8, "reads .h"), (9, "reads .cloud"), (10, "reads .o"),
        (11, "iterates a table"), (13, "iterates a table"), (14, "iterates a table"),
        (15, "iterates a table")]
