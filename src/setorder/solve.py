"""Minimality solvers, level sets, representants, and Hypothesis (H).

All four minimality notions reduce to three pairwise relation matrices
over the grid (one per preorder flavor); the matrices are computed once
per (problem, context) pair, since the context's tolerance enters them,
and cached on the problem, and representants and Hypothesis (H) read
their level sets off them. A level set at an arbitrary target S is one
order.table_rel call between the problem's value table and S; the
matrices use table_rel too. The value table holds the sets alone, so a
problem has one, kept from its properness check. table_rel shares one
kernel rule with the pairwise predicates.
When values have several corners, two exact tests on the sets' per-axis
minima come first: a necessary one (``_candidates``) drops the pairs that
no relation can hold for, and a sufficient one (``_settled``) finds
pairs that all three hold for. Only the pairs between them reach the kernel,
which is asked LARGE first and LOWER and STRICT only where LARGE holds,
since each of them implies it. With one corner per value the necessary
test is LARGE itself, and every pair reaches the kernel. The two tests
read the value table as the kernel does, with the sets last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._kernels import LARGE, LOWER, STRICT
from .errors import InternalCheckError
from .order import CornerTable, OrderCtx, _pair_tol, corner_table, lower_le, table_rel
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

# elements of the largest boolean block one array pass of relation_matrices
# builds; keeps its temporaries O(_BLOCK_ELEMENTS) in memory rather than
# O(N^2). Two budgets share it: a row block's test, (m, rows, N) for the
# candidate test or (1, 1, m, rows, N) for the kernel with one corner slot,
# and one chunk of a block's candidate pairs, (k, m, pairs) for the
# sufficient test and (k, k, m, pairs) for one kernel call
_BLOCK_ELEMENTS = 2 ** 16


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
    """(lower, large, strict) boolean (N, N) matrices; [i, j] = rel(F_i, F_j).

    Row blocks of the value table are tested against the whole table,
    rows * N * m elements at a time. With one corner slot the necessary
    test is LARGE itself, so the block goes to the kernel whole. With more,
    a block's pairs pass three stages, each in chunks of at most
    ``_BLOCK_ELEMENTS // (k * k * m)`` pairs, so no temporary outgrows the
    budget and the kernel's calls follow the pairs it is asked, not the
    dense block:

    * a pair that fails the necessary test of ``_candidates`` is False in
      all three matrices, and one that passes the sufficient test of
      ``_settled`` is True in all three, without a kernel call;
    * the kernel is asked LARGE alone on the candidates left;
    * it is asked LOWER and STRICT only where LARGE holds. Each of them
      implies LARGE, axis by axis: STRICT's b > fl(a + t) >= a gives
      fl(b + t) >= b > a, and LOWER takes STRICT or LARGE per axis. So
      where LARGE fails, they fail too.
    """
    cache = vars(P).setdefault("_rel_cache", {})
    got = cache.get(ctx)
    if got is not None:
        return got

    tab = value_table(P)
    k, m, n = tab.h.shape
    rows = max(1, _BLOCK_ELEMENTS // (n * m))
    pairs = max(1, _BLOCK_ELEMENTS // (k * k * m))
    lower, large, strict = out = tuple(np.zeros((n, n), dtype=bool) for _ in range(3))

    def chunks(ii, jj):
        for c in range(0, len(ii), pairs):
            yield ii[c:c + pairs], jj[c:c + pairs]

    def take(at):
        return (CornerTable(*(x.take(idx, axis=-1) for x in tab)) for idx in at)

    ideal = tab.h.min(axis=0)
    for i in range(0, n, rows):
        blk = slice(i, i + rows)
        if k == 1:
            a = CornerTable(*(x[..., blk, None] for x in tab))
            for mat, ok in zip(out, table_rel(a, tab, (LOWER, LARGE, STRICT), ctx.tol)):
                mat[blk] = ok
            continue
        t = _pair_tol(tab.cloud[blk, None], tab.cloud, ctx.tol)
        cand = _candidates(ideal[:, blk], ideal, t)
        ii, jj = np.nonzero(cand)
        settled = np.empty(len(ii), dtype=bool)
        for c in range(0, len(ii), pairs):
            ia, ja = ii[c:c + pairs], jj[c:c + pairs]
            settled[c:c + pairs] = _settled(tab.h.take(ia + i, axis=-1),
                                            ideal.take(ja, axis=-1),
                                            t[ia, ja] if np.ndim(t) else t)
        # nonzero lists the candidates in row-major order, as cand[cand] does
        cand[cand] = settled
        for mat in out:
            mat[blk] = cand
        left = ~settled
        ii, jj = ii[left] + i, jj[left]
        for at in chunks(ii, jj):
            large[at], = table_rel(*take(at), (LARGE,), ctx.tol)
        held = large[ii, jj]
        for at in chunks(ii[held], jj[held]):
            lower[at], strict[at] = table_rel(*take(at), (LOWER, STRICT), ctx.tol)

    cache[ctx] = out
    _assert_geff_in_reff(P, ctx)
    return out


def _candidates(ideal_a: np.ndarray, ideal_b: np.ndarray, t) -> np.ndarray:
    """[i, j]: whether rel(F_i, F_j) can hold, for any of the three relations.

    ideal_a (m, I) and ideal_b (m, N) are the per-axis minima of the sets'
    H-corners, sets last as in the value table, and t the pairs' tolerances
    (``order._pair_tol``), a scalar or (I, N). All
    three relations need, for each B-corner b, some A-corner a with
    fl(b + t) >= a on every axis: LARGE compares exactly that, STRICT gives
    it by b > fl(a + t) >= a, and LOWER takes STRICT or LARGE per axis.
    Since a >= ideal_a, the B-corner that attains ideal_b on an axis gives
    fl(ideal_b + t) >= ideal_a there, which is this test: exact in floating
    point, not up to rounding. B's +inf padding passes it, and A's never
    lowers the ideal, since every value has a corner. It reads the same
    H-coordinates as the kernel, so it holds under general cones too.
    """
    return np.logical_and.reduce(ideal_b[:, None] + t >= ideal_a[..., None], axis=0)


def _settled(h_a: np.ndarray, ideal_b: np.ndarray, t) -> np.ndarray:
    """[p]: whether pair p is related in all three relations by this test.

    h_a (k, m, P) holds the A-sets' H-corners and ideal_b (m, P) the
    B-sets' per-axis minima, both gathered per pair with the pairs last as
    in the value table, and t the pairs' tolerances, a scalar or (P,). The
    test is that some A-corner a has fl(a + t) < ideal_b on every axis.
    Every B-corner b has b >= ideal_b, so b > fl(a + t) on every axis:
    that one a covers every b for STRICT, which is the kernel's comparison
    itself, exact in floating point. With t >= 0, fl(a + t) >= a and
    fl(b + t) >= b > a, so the same a covers b for LARGE, and LOWER, which
    takes STRICT or LARGE per axis, holds too. B's +inf padding is above
    any finite a + t, and A's padding, fl(inf + t) = inf, never passes.
    """
    below = h_a + t < ideal_b
    return np.logical_or.reduce(np.logical_and.reduce(below, axis=1), axis=0)


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
