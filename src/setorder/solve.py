"""Minimality solvers, level sets, representants, and Hypothesis (H).

All four minimality notions reduce to three pairwise relation matrices
over the grid (one per preorder flavor); the matrices are computed once
per (problem, context) pair, since the context's tolerance enters them,
and cached on the problem, and representants and Hypothesis (H) read
their level sets off them. A level set at an arbitrary target S is one
order.table_rel call between the problem's value table and S, and the
matrices are one order.table_matrices call on the value table. The value
table holds the sets alone, so a problem has one, kept from its
properness check. This module handles tables whole: their layout, and the
block loop over it that builds the matrices, belong to order, and every
comparison in them is the one kernel rule of the pairwise predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._kernels import LARGE, LOWER
from .errors import InternalCheckError
from .order import CornerTable, OrderCtx, corner_table, lower_le, table_matrices, table_rel
from .problem import PieceMap, Problem
from .setrep import PointCloud, SetRep, _refuse_boxes
from .verdict import Verdict, _jsonify

KINDS = ("Strong", "Pareto", "Geoffroy", "Relaxed")


@dataclass(frozen=True)
class EffResult:
    """Minimal-solution index set plus, per excluded point, its excluder."""
    kind: str
    indices: tuple[int, ...]
    witness: dict[int, int]

    def to_json(self, P: Problem) -> dict:
        return _jsonify({"kind": self.kind, "indices": self.indices,
                         "points": P.domain.points[list(self.indices)],
                         "witnesses": self.witness})


@dataclass(frozen=True)
class Representant:
    reps: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    # the source definition says "countable"; a finite grid can only ever
    # produce finitely many classes, so the output is flagged accordingly
    finite_only: bool = True


@dataclass(frozen=True)
class NoFiniteRepresentant:
    overlap: tuple[int, int]
    at_index: int


@dataclass(frozen=True)
class LSetResult:
    indices: tuple[int, ...]
    closedness: Optional[Verdict]


# ------------------------------------------------------- relation matrices

def value_table(P: Problem) -> CornerTable:
    """P's values as one corner table, the one its properness check built;
    a box value under a general cone is refused, as comparing it would be."""
    if P._table is None:
        _refuse_boxes(P.cone)
    return P._table


def _values_below(P: Problem, S: SetRep, ctx: OrderCtx, mode: int) -> np.ndarray:
    """rel(F_i, S) for every grid index i, as one (N,) kernel call."""
    return table_rel(value_table(P), corner_table([S], P.cone), (mode,), ctx.tol)[0]


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def relation_matrices(P: Problem, ctx: OrderCtx):
    """(lower, large, strict) boolean (N, N) matrices; [i, j] = rel(F_i, F_j),
    built by ``order.table_matrices`` from P's value table at the context's
    tolerance, kept per context and checked against the Geoffroy ⊆ Relaxed
    inclusion before they are returned."""
    cache = vars(P).setdefault("_rel_cache", {})
    got = cache.get(ctx)
    if got is None:
        got = cache[ctx] = table_matrices(value_table(P), ctx.tol)
        _assert_geff_in_reff(P, ctx)
    return got


def _assert_geff_in_reff(P: Problem, ctx: OrderCtx) -> None:
    """Raise unless every Geoffroy-minimal index is relaxed-minimal, a
    theorem. Both sets come from ``eff`` on the matrices just cached, and
    stay kept for its later callers."""
    bad = set(eff(P, "Geoffroy", ctx).indices) - set(eff(P, "Relaxed", ctx).indices)
    if bad:
        raise InternalCheckError(
            f"Geoffroy-minimal index {min(bad)} is not "
            f"relaxed-minimal on {P.label}; the inclusion is a theorem, so "
            "the relation matrices are inconsistent")


def _excluders(large, strict, kind, lower=None):
    """[w, i]: grid index w excludes index i from the kind-minimal set."""
    if kind == "Strong":
        return ~lower.T
    if kind == "Pareto":
        return lower & ~lower.T
    if kind == "Geoffroy":
        return large & ~large.T
    if kind == "Relaxed":
        return strict
    raise ValueError(f"unknown minimality kind {kind!r}; expected one of {KINDS}")


# ------------------------------------------------------------ eff solvers

def eff(P: Problem, kind: str, ctx: OrderCtx) -> EffResult:
    """The kind-minimal grid indices, each excluded index's witness its
    lowest excluder; kept per (ctx, kind) beside P's relation matrices,
    so callers share one result and read its witness, never write it."""
    cache = vars(P).setdefault("_eff_cache", {})
    got = cache.get((ctx, kind))
    if got is not None:
        return got
    lower, large, strict = relation_matrices(P, ctx)
    # building the matrices keeps the Geoffroy and Relaxed results
    got = cache.get((ctx, kind))
    if got is not None:
        return got
    excl = _excluders(large, strict, kind, lower)
    mask = ~excl.any(axis=0)
    excluded = np.flatnonzero(~mask)
    witness = dict(zip(excluded.tolist(), excl.argmax(axis=0)[excluded].tolist()))
    got = cache[ctx, kind] = EffResult(kind, _indices(mask), witness)
    return got


def strong_level_set(P: Problem, omega: SetRep, ctx: OrderCtx) -> tuple[int, ...]:
    return _indices(_values_below(P, omega, ctx, LARGE))


def classical_level_set(P: Problem, omega: SetRep, ctx: OrderCtx) -> tuple[int, ...]:
    return _indices(_values_below(P, omega, ctx, LOWER))


# ----------------------------------------------------------- representants

def representants(P: Problem, ctx: OrderCtx) -> Union[Representant, NoFiniteRepresentant]:
    """Greedy level-set decomposition of the Geoffroy-minimal set.

    Each part is the full strong level set at its representant's value.
    Disjointness is re-verified rather than assumed. The parts cover the
    Geoffroy-minimal set, since each lies inside it and holds its
    representant: LARGE is reflexive, and a matrix whose diagonal misses a
    minimal index raises InternalCheckError.
    """
    geff = set(eff(P, "Geoffroy", ctx).indices)
    large = relation_matrices(P, ctx)[1]
    remaining = set(geff)
    reps: list[int] = []
    parts: list[tuple[int, ...]] = []
    while remaining:
        r = min(remaining)
        if not large[r, r]:
            raise InternalCheckError(
                f"LARGE misses the diagonal at minimal index {r} on {P.label}; "
                "the relation is reflexive")
        lev = _indices(large[:, r])
        if not set(lev) <= geff:
            stray = min(set(lev) - geff)
            raise InternalCheckError(
                f"level set of minimal index {r} reaches non-minimal index "
                f"{stray} on {P.label}; contradicts the level-set inclusion theorem")
        reps.append(r)
        parts.append(tuple(sorted(lev)))
        remaining -= set(lev)
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            inter = set(parts[a]) & set(parts[b])
            if inter:
                return NoFiniteRepresentant(overlap=(a, b), at_index=min(inter))
    return Representant(tuple(reps), tuple(parts))


# ----------------------------------------------------------- hypothesis H

def _as_index(P: Problem, xbar) -> int:
    if isinstance(xbar, (int, np.integer)):
        return int(xbar)
    i = P.domain.index_of(np.atleast_1d(xbar))
    if i is None:
        raise ValueError(f"x̄ = {xbar} is not a grid point of {P.label}")
    return i


def hypothesis_h(P: Problem, kind: str, xbar, ctx: OrderCtx) -> Verdict:
    """Is some minimizer reachable inside the classical level set at F(x̄)?"""
    i = _as_index(P, xbar)
    eff_idx = eff(P, kind, ctx).indices
    if not eff_idx:
        return Verdict.inconclusive(
            reason=f"{kind} minimal set is empty; nothing to intersect")
    lev = set(_indices(relation_matrices(P, ctx)[0][:, i]))
    hits = sorted(lev & set(eff_idx))
    if hits:
        return Verdict.holds(
            reason=f"witness index {hits[0]} lies in the level set at index {i} "
                   f"and is {kind}-minimal",
            certificate={"witness": hits[0], "xbar_index": i, "kind": kind})
    return Verdict.fails(
        reason=f"no {kind}-minimal point reaches the level set at index {i}",
        counterexample={"xbar_index": i, "kind": kind,
                        "eff_indices": list(eff_idx), "level_set": sorted(lev)})


# ------------------------------------------------------------- L(y) of §5

def l_set(P: Problem, y, ctx: OrderCtx) -> LSetResult:
    """Grid points whose value sits lower-below the singleton {y}."""
    target = PointCloud(P.cone.dim, np.atleast_2d(np.asarray(y, dtype=float)))
    idx = _indices(_values_below(P, target, ctx, LOWER))
    return LSetResult(idx, _closedness_probe(P, target, idx, ctx))


def _closedness_probe(P: Problem, target: PointCloud, idx: tuple[int, ...],
                      ctx: OrderCtx, iters: int = 1200) -> Optional[Verdict]:
    """Bisect membership boundaries on the continuous line and test the limit.

    Only meaningful for expression-backed maps on a single 1-D window,
    where the map extends off-grid; everything else returns None (skipped).
    The bracket is collapsed to adjacent floats; the out-side endpoint then
    sits within one ulp of the true boundary, and membership there is tested
    with doubled tolerance so that continuous attainment under non-strict
    axes counts as containing the limit, while open flags and genuine value
    jumps do not.
    """
    if not isinstance(P.map, PieceMap):
        return None
    if P.domain.windows is None or len(P.domain.windows) != 1 or P.domain.dim != 1:
        return None
    relaxed = OrderCtx(ctx.cone, tol=2.0 * ctx.tol)

    def member(t: float, c: OrderCtx = ctx) -> bool:
        return lower_le(P.map.value((t,), P.n), target, c)

    inside = set(idx)
    pts = P.domain.points[:, 0]
    boundaries = []
    for i in range(len(pts) - 1):
        if (i in inside) == ((i + 1) in inside):
            continue
        lo, hi = float(pts[i]), float(pts[i + 1])
        m_lo = i in inside
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if member(mid) == m_lo:
                lo = mid
            else:
                hi = mid
        t_out = hi if m_lo else lo
        boundaries.append({
            "between": [float(pts[i]), float(pts[i + 1])],
            "limit": t_out,
            "limit_in_set": bool(member(t_out, relaxed)),
        })
    if not boundaries:
        return Verdict.holds(reason="no membership boundary on the grid",
                             certificate={"boundaries": []}, sampled=True)
    open_sides = [b for b in boundaries if not b["limit_in_set"]]
    if open_sides:
        return Verdict.fails(
            reason="membership boundary does not belong to the set; closedness "
                   "evidence against the level set being closed",
            counterexample={"boundary": open_sides[0]}, sampled=True)
    return Verdict.holds(
        reason=f"all {len(boundaries)} membership boundaries belong to the set",
        certificate={"boundaries": boundaries}, sampled=True)
