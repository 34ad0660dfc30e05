"""Per-layer spans recorded from outside the program.

A Tracer wraps the public functions of each setorder module, records one
span per call (name, start, end, parent span) in flat arrays, and reduces
them to per-layer call counts, total time and self time when a pass ends.

setorder modules import functions by name (``converge`` does
``from .problem import family_at``), so a wrapper installed only on the
defining module would miss most calls. ``install`` therefore replaces
every binding of the original object in every loaded setorder module, and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer name, module, attribute path); several attributes may share a name
TARGETS = (
    ("cone.from_halfspaces", "setorder.cone", "Cone.from_halfspaces"),
    ("expr.evaluate", "setorder.expr", "evaluate"),
    ("problem.load_dict", "setorder.problem", "load_dict"),
    ("problem.Problem", "setorder.problem", "Problem.__init__"),
    ("problem.PieceMap.value", "setorder.problem", "PieceMap.value"),
    ("problem.family_at", "setorder.problem", "family_at"),
    ("kernels.rel_corners", "setorder._kernels", "rel_corners"),
    ("kernels.shift_bound", "setorder._kernels", "shift_bound"),
    ("order.relation", "setorder.order", "lower_le"),
    ("order.relation", "setorder.order", "large_le"),
    ("order.relation", "setorder.order", "strict_lt"),
    ("order.relation", "setorder.order", "equiv"),
    ("order.shift_margin", "setorder.order", "shift_margin"),
    ("solve.relation_matrices", "setorder.solve", "relation_matrices"),
    ("solve.eff", "setorder.solve", "eff"),
    ("solve.hypothesis_h", "setorder.solve", "hypothesis_h"),
    ("converge.sequences", "setorder.converge", "SeqGenBattery.sequences"),
    ("converge.gamma_check", "setorder.converge", "gamma_check"),
    ("converge.gamma_seq_check", "setorder.converge", "gamma_seq_check"),
    ("converge.kuratowski_pair", "setorder.converge", "kuratowski_pair"),
    ("converge.stability_experiment", "setorder.converge", "stability_experiment"),
    ("converge.levelset_convergence_experiment", "setorder.converge",
     "levelset_convergence_experiment"),
    ("cli.main", "setorder.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# layers whose first two arguments form a cache key: distinct keys are the
# cache misses, so hit ratio = 1 - distinct / calls
KEYED = {"problem.family_at": "builds", "solve.relation_matrices": "distinct"}


def metric_names() -> list[str]:
    names = [f"{layer}.{field}" for layer in LAYERS
             for field in ("calls", "s", "self_s")]
    for layer, field in KEYED.items():
        names += [f"{layer}.{field}", f"{layer}.hit_ratio"]
    names.append("converge.sequences.points")
    return names


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.outermost = array("b")   # no enclosing span of the same layer
        self._stack = [-1]
        self._depth = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.keys = {layer: set() for layer in KEYED}
        self.points = 0

    # -- wrappers -----------------------------------------------------------

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.outermost.append(self._depth[lid] == 0)
        self._depth[lid] += 1
        self._stack.append(i)
        return i

    def _close(self, i: int, lid: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[lid] -= 1

    def _wrap(self, name: str, fn):
        lid = self._ids[name]
        keyed = name in KEYED

        if inspect.isgeneratorfunction(fn):
            # a generator does its work while the caller iterates, so each
            # resumption is a span; the call itself is counted once. The only
            # generator target, SeqGenBattery.sequences, yields items that
            # end with the generated points
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[lid] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        i = self._open(lid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(i, lid)
                        self.points += len(item[-1])
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[lid] += 1
            if keyed:
                self.keys[name].add(args[:2])
            i = self._open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i, lid)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "setorder" or n.startswith("setorder."))]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls, total time (outermost spans only) and self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(LAYERS)
        total = np.bincount(layer[outer], weights=dur[outer], minlength=k)
        own = np.bincount(layer, weights=dur - child, minlength=k)
        out: dict[str, float] = {}
        for lid, name in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[lid]
            out[f"{name}.s"] = float(total[lid])
            out[f"{name}.self_s"] = float(own[lid])
        for name, field in KEYED.items():
            calls = self.calls[self._ids[name]]
            distinct = len(self.keys[name])
            out[f"{name}.{field}"] = distinct
            out[f"{name}.hit_ratio"] = 1.0 - distinct / calls if calls else 0.0
        out["converge.sequences.points"] = self.points
        return out
