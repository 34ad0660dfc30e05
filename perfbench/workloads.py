"""Jobs of the three workloads and their untimed output checks.

A job's ``run`` drives only public entry points and returns a plain value;
``check`` decides whether that value is right. Jobs look every setorder
function up through its module at call time (``so.eff``, ``cli.main``), so
the wrappers a Tracer installs see the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import setorder as so
from setorder import cli
from setorder.setrep import Box, BoxUnion

import gen

HERE = Path(__file__).resolve().parent
SNAPSHOT_DIR = HERE / "snapshots"
GOLDEN_DIR = Path(so.__file__).resolve().parent / "data" / "goldens"

WORKLOADS = ("experiments", "solve-grid", "order-laws")


@dataclass
class Job:
    name: str
    role: str                    # "main", "side" or "other" (see README)
    run: Callable[[], object]
    check: Callable[[object], bool]


# ------------------------------------------------------------- experiments

def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def repro_expected(example: str) -> tuple[int, str]:
    size = len((GOLDEN_DIR / f"{example}.json").read_bytes())
    return 0, f"{example}: OK (byte-identical, {size} bytes)\n"


def levelset_expected() -> tuple[int, str]:
    # exit code 1 is the report's correct "Fails" verdict
    return 1, (SNAPSHOT_DIR / "levelset-conv-sop_sin-at-50.json").read_text()


def experiment_jobs(expected: dict | None = None) -> list[Job]:
    """The shipped-problem CLI commands; ``expected`` overrides the references."""
    want = {f"repro {x}": repro_expected(x)
            for x in ("geff-example", "gamma-cos", "sop-sin-stability")}
    want["levelset-conv sop_sin --at 50"] = levelset_expected()
    want.update(expected or {})
    roles = {"repro sop-sin-stability": "main",
             "levelset-conv sop_sin --at 50": "side"}
    return [Job(name, roles.get(name, "other"), _cli(name.split()),
                lambda got, ref=ref: got == ref)
            for name, ref in want.items()]


# -------------------------------------------------------------- solve-grid

def solve_job(doc: dict) -> Callable[[], dict]:
    def run() -> dict:
        P = so.load_dict(doc)
        ctx = so.OrderCtx(P.cone)
        out = {}
        for kind in so.KINDS:
            r = so.eff(P, kind, ctx)
            out[kind] = (r.indices, dict(r.witness))
        return {"points": len(P), "eff": out}
    return run


class SolveOracle:
    """Definitional minimal sets from the public pairwise predicates.

    Each pair's three relations are asked once through ``lower_le``,
    ``large_le`` and ``strict_lt`` and memoized; the four definitions are
    then read straight off those answers, with no relation matrices or
    other code shared with ``setorder.solve``.
    """

    def __init__(self, doc: dict):
        P = so.load_dict(doc)
        ctx = so.OrderCtx(P.cone)
        vals = P.values()
        self.n = len(vals)
        self.rel = {(i, j): (so.lower_le(a, b, ctx), so.large_le(a, b, ctx),
                             so.strict_lt(a, b, ctx))
                    for i, a in enumerate(vals) for j, b in enumerate(vals)}

    def _lower(self, i, j):
        return self.rel[i, j][0]

    def _large(self, i, j):
        return self.rel[i, j][1]

    def _strict(self, i, j):
        return self.rel[i, j][2]

    def minimal(self, kind: str) -> tuple[int, ...]:
        r = range(self.n)
        if kind == "Strong":
            keep = [i for i in r if all(self._lower(i, j) for j in r)]
        elif kind == "Pareto":
            keep = [i for i in r if all(self._lower(i, j) for j in r
                                        if self._lower(j, i))]
        elif kind == "Geoffroy":
            keep = [i for i in r if all(self._large(i, j) for j in r
                                        if self._large(j, i))]
        else:
            keep = [i for i in r if not any(self._strict(j, i) for j in r)]
        return tuple(keep)

    def witness_ok(self, kind: str, i: int, w: int) -> bool:
        """Does w definitionally exclude i from the ``kind``-minimal set?"""
        if kind == "Strong":
            return not self._lower(i, w)
        if kind == "Pareto":
            return self._lower(w, i) and not self._lower(i, w)
        if kind == "Geoffroy":
            return self._large(w, i) and not self._large(i, w)
        return self._strict(w, i)

    def check(self, got: dict) -> bool:
        if got["points"] != self.n:
            return False
        for kind in so.KINDS:
            indices, witness = got["eff"][kind]
            if tuple(indices) != self.minimal(kind):
                return False
            excluded = set(range(self.n)) - set(indices)
            if set(witness) != excluded:
                return False
            if not all(self.witness_ok(kind, i, w) for i, w in witness.items()):
                return False
        return True


def solve_grid_jobs(docs: list[dict]) -> list[Job]:
    jobs = []
    for doc in docs:
        oracle: list[SolveOracle] = []   # built on first check, then reused

        def check(got, doc=doc, oracle=oracle) -> bool:
            if not oracle:
                oracle.append(SolveOracle(doc))
            return oracle[0].check(got)

        role = "main" if doc["cone"]["kind"] == "halfspaces" else "side"
        jobs.append(Job(doc["label"], role, solve_job(doc), check))
    return jobs


# -------------------------------------------------------------- order-laws

RELATIONS = ("lower_le", "large_le", "strict_lt", "equiv")


def _build_set(spec: dict, d: int):
    if "points" in spec:
        return so.points(spec["points"])
    return BoxUnion(d, tuple(
        Box(tuple(map(float, b["lo"])), tuple(map(float, b["hi"])),
            tuple(map(bool, b["lo_open"])), tuple(map(bool, b["hi_open"])))
        for b in spec["boxes"]))


def law_job(inst: dict) -> Callable[[], dict]:
    def run() -> dict:
        cone = so.Cone.from_halfspaces(inst["rows"])
        ctx = so.OrderCtx(cone)
        sets = [_build_set(s, inst["dim"]) for s in inst["sets"]]
        answers = {}
        for a, b in itertools.product(range(len(sets)), repeat=2):
            A, B = sets[a], sets[b]
            answers[a, b] = (so.lower_le(A, B, ctx), so.large_le(A, B, ctx),
                             so.strict_lt(A, B, ctx), so.equiv(A, B, ctx))
        margin = float((cone.halfspaces @ cone.interior_direction).min())
        return {"kind": cone.kind, "margin": margin, "answers": answers}
    return run


def laws_hold(inst: dict, got: dict) -> bool:
    """Preorder and chain laws on the answers, and the cone's margin."""
    ans = got["answers"]
    k = len(inst["sets"])
    want_kind = "general" if inst["class"] == "general" else "orthant"
    if got["kind"] != want_kind or not got["margin"] >= 1.0:
        return False
    for a in range(k):
        lower, large, _, eq = ans[a, a]
        if not (lower and large and eq):                      # reflexivity
            return False
    for a, b in itertools.product(range(k), repeat=2):
        lower, large, strict, eq = ans[a, b]
        if (strict and not lower) or (lower and not large):   # chain
            return False
        if eq != ans[b, a][3]:                                # equiv symmetry
            return False
    for a, b, c in itertools.product(range(k), repeat=3):
        for r in range(3):                                    # transitivity
            if ans[a, b][r] and ans[b, c][r] and not ans[a, c][r]:
                return False
    return True


def order_law_jobs(instances: list[dict]) -> list[Job]:
    return [Job(f"order-laws-{i}", "main" if inst["class"] == "general" else "side",
                law_job(inst), lambda got, inst=inst: laws_hold(inst, got))
            for i, inst in enumerate(instances)]


def build(workload: str, seed: int) -> list[Job]:
    """Generate the workload's inputs from the seed and wrap them as jobs.

    experiments runs the shipped problems under the CLI's pinned
    configuration, so the seed does not change its inputs.
    """
    if workload == "experiments":
        return experiment_jobs()
    if workload == "solve-grid":
        return solve_grid_jobs(gen.solve_grid_inputs(seed))
    if workload == "order-laws":
        return order_law_jobs(gen.order_law_inputs(seed))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
