"""The lower set-less preorders.

Three relations on nonempty sets, induced by a solid polyhedral cone C:

    lower_le(A, B):  B inside A + C
    large_le(A, B):  B inside cl(A + C)
    strict_lt(A, B): A + eps below B for some eps in int(C)

plus the equivalence large_le both ways. For finite representations
strict_lt is decided pointwise (every B-corner strictly dominated by some
A-corner); the tests check it against the existential-epsilon form along
the ray eps = t*u, u the cone's interior direction.

A relation is asked for one pair of sets (``_rel``, the predicates above)
or over two corner tables of sets (``table_rel``); both use one kernel rule.
A table holds the sets under a cone and nothing of a context: the
tolerance enters at the comparison, where ``table_rel`` gives each pair
its own from the two sets' cloud flags (``_pair_tol``), so one table
serves every context on its cone. ``corner_table(values, cone, shift)``
and problem.tail_table both end in ``table_from_corners``, where a shift
(E, dim) moves each set's lower corners in the table: the only set
arithmetic the package does.

This module owns the table layout, the sets on the trailing axes
(``CornerTable``). Other modules select, gather, split, stack and cut
tables and read their ideal points through ``CornerTable``'s operations,
and never index a table's arrays, so a change of layout stays here and in
the kernel. The relation matrices of a table's sets (``table_matrices``)
are built here too, since their block loop is table work: each of its
tests, the two on ideal points included, is a call of the one kernel rule.

A context is a cone and a tolerance. Universal epsilon quantifiers are
instantiated along that same ray, as shifts e·u with e along one strictly
decreasing schedule, ``converge.EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import LARGE, LOWER, STRICT, covered, rel_corners, shift_bound
from .cone import DEFAULT_TOL, Cone
from .setrep import SetRep, _corner_data, _refuse_boxes


@dataclass(frozen=True, eq=False)
class OrderCtx:
    """The ordering cone and the tolerance of comparisons with a cloud."""
    cone: Cone
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        # NaN compares false both ways, and a NaN tol breaks reflexivity
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")

    @cached_property
    def u(self) -> np.ndarray:
        """Interior ray direction used to instantiate epsilon quantifiers."""
        return self.cone.interior_direction

    @cached_property
    def w(self) -> np.ndarray:
        """u in halfspace coordinates; every entry >= 1 by normalization."""
        return np.ascontiguousarray(self.cone.h_coords(self.u.reshape(1, -1))[0])


def _rel(A: SetRep, B: SetRep, ctx: OrderCtx, mode: int) -> bool:
    ha, oa, a_cloud = _corner_data(A, ctx.cone)
    hb, ob, b_cloud = _corner_data(B, ctx.cone)
    ok, _ = rel_corners(ha, oa, hb, ob, mode, b_cloud,
                        ctx.tol if a_cloud or b_cloud else 0.0)
    return ok


class CornerTable(NamedTuple):
    """Sets along trailing axes L under one cone: h (K, m, *L) lower corners
    in H-coordinates, padded with +inf to the largest corner count K, o
    their uint8 openness flags and cloud (*L) marking point clouds. With
    the sets last, a comparison of two tables runs along their sets and
    reduces its corner and H-axes as leading axes (``_kernels.covered``).
    This module owns that layout: other modules reshape, select and stack
    tables only through the operations below."""
    h: np.ndarray
    o: np.ndarray
    cloud: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The set axes L."""
        return self.cloud.shape

    def sets(self, *key) -> "CornerTable":
        """The sets at ``key``, an index into the set axes; a trailing
        ``(..., None)`` appends a unit set axis, so that each set meets one
        row of another table's sets."""
        at = (slice(None), slice(None), *key)
        return CornerTable(self.h[at], self.o[at], self.cloud[key])

    def take(self, idx) -> "CornerTable":
        """The sets at the indices ``idx`` of the last set axis."""
        return CornerTable(*(x.take(idx, axis=-1) for x in self))

    def split(self, G: int) -> "CornerTable":
        """The last set axis, of G·R sets, as (G, R)."""
        split = (G, self.cloud.shape[-1] // G)
        return CornerTable(*(x.reshape(x.shape[:-1] + split) for x in self))

    def cut(self, k: int) -> "CornerTable":
        """The table cut to its first k corner slots."""
        return CornerTable(self.h[:k], self.o[:k], self.cloud)

    def ideal(self) -> np.ndarray:
        """Each set's ideal point, the per-axis minimum of its H-corners,
        (m, *L); +inf for a set with no corner."""
        return self.h.min(axis=0, initial=np.inf)

    @staticmethod
    def stack(tabs: Sequence["CornerTable"]) -> "CornerTable":
        """Tables of one set shape and H-axes as one, with a new first set
        axis, each padded with +inf to the largest corner count."""
        h = np.full((max(len(t.h) for t in tabs), tabs[0].h.shape[1], len(tabs),
                     *tabs[0].cloud.shape), np.inf)
        o = np.zeros(h.shape, dtype=np.uint8)
        for j, t in enumerate(tabs):
            h[:len(t.h), :, j], o[:len(t.h), :, j] = t.h, t.o
        return CornerTable(h, o, np.array([t.cloud for t in tabs]))


def corner_table(values: Sequence[SetRep], cone: Cone,
                 shift: Optional[np.ndarray] = None) -> CornerTable:
    """A nonempty sequence of sets as one table with set axis (N,), or
    (E, N) with each set moved by each row of ``shift`` (E, dim)."""
    cs, fs, clouds = zip(*(_corner_data(v, cone, h_coords=False) for v in values))
    count = np.array([len(c) for c in cs], dtype=np.intp)
    filled = np.arange(count.max()) < count[:, None]
    corners = np.full(filled.shape + (cone.dim,), np.inf)
    flags = np.zeros(corners.shape, dtype=np.uint8)
    corners[filled], flags[filled] = np.concatenate(cs), np.concatenate(fs)
    cloud = np.array(clouds, dtype=bool)
    return table_from_corners(corners, flags, cloud, count, cone, shift)


def table_from_corners(corners: np.ndarray, flags: np.ndarray, cloud: np.ndarray,
                       count: np.ndarray, cone: Cone,
                       shift: Optional[np.ndarray] = None) -> CornerTable:
    """N sets' lower corners (N, K, dim), padded with +inf, as a table cut
    to the largest corner count; ``flags`` their uint8 lower-openness,
    ``cloud`` and ``count`` (N) each set's representation and corner count.
    With ``shift`` (E, dim) the set axes are (E, N), each set's corners
    moved by each shift vector. Under a general cone the corners go to
    H-coordinates through ``_h_rows``, each set's bit for bit as
    ``_corner_data`` maps it alone, and a box union is refused.
    """
    if not cloud.all():
        _refuse_boxes(cone)
    K = int(count.max(initial=0))
    corners, flags = corners[:, :K], flags[:, :K]
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
        corners = corners[None] + shift[:, None, None, :]
        flags = np.broadcast_to(flags, corners.shape)
        cloud = np.broadcast_to(cloud, corners.shape[:-2])
    if cone.kind == "orthant":
        sets_last = (-2, -1, *range(corners.ndim - 2))
        h, o = (np.ascontiguousarray(x.transpose(sets_last)) for x in (corners, flags))
    else:
        h = _h_rows(cone, corners, count)
        o = np.zeros(h.shape, dtype=np.uint8)
    return CornerTable(h, o, np.array(cloud))


def _h_rows(cone: Cone, corners: np.ndarray, count) -> np.ndarray:
    """Sets' lower corners (*L, K, dim) under a general cone in
    H-coordinates (K, m, *L): each set's first ``count`` corners (count
    broadcast to L) mapped as ``cone.h_coords`` maps them alone, bit for
    bit, the rest +inf.

    A row's bits can depend on how many rows its matmul holds, so one
    product over every set's corners would not do. NumPy's stacked matmul
    runs its per-matrix routine on each (k, dim) slice, so one stacked
    ``h_coords`` call per corner count k does; sets with no corner stay +inf.
    """
    *lead, K, dim = corners.shape
    # the set count, not -1: with no corners (K = 0) it cannot be inferred
    ks = np.broadcast_to(count, lead).ravel()
    c = corners.reshape(len(ks), K, dim)
    m = len(cone.halfspaces)
    h = np.full((K, m, len(ks)), np.inf)
    for k in range(1, K + 1):
        at = np.flatnonzero(ks == k)
        if len(at):
            h[:k, :, at] = cone.h_coords(c[at, :k]).transpose(1, 2, 0)
    return h.reshape(K, m, *lead)


def _pair_tol(a_cloud: np.ndarray, b_cloud: np.ndarray, tol: float):
    """Each pair's tolerance from its two sets' cloud flags (broadcast): tol
    when either set is a cloud, 0 for two box unions. A scalar where one
    value serves every pair: 0 when neither side holds a cloud, which keeps
    box tables on the kernel's exact path, and tol when every set on one
    side is a cloud."""
    if not (a_cloud.any() or b_cloud.any()):
        return 0.0
    if a_cloud.all() or b_cloud.all():
        return tol
    return np.where(a_cloud | b_cloud, tol, 0.0)


def _block(tab: CornerTable, corners: tuple[int, int],
           r: int) -> tuple[np.ndarray, np.ndarray]:
    """A table's h and o as ``corners`` + (m,) + its set axes, with unit
    set axes put before its own, r in all."""
    shape = corners + tab.h.shape[1:2] + (1,) * (r - tab.cloud.ndim) + tab.cloud.shape
    return tab.h.reshape(shape), tab.o.reshape(shape)


def table_rel(a: CornerTable, b: CornerTable, modes: tuple[int, ...],
              tol: float) -> tuple[np.ndarray, ...]:
    """rel(A, B) per mode, over the set axes of two tables of one cone,
    broadcast from the right, each pair at its tolerance under ``tol``
    (``_pair_tol``). Modes that share a result, LOWER and LARGE where no
    A-corner is open, share one array; callers read it, never write it."""
    r = max(a.cloud.ndim, b.cloud.ndim)
    (ha, oa), (hb, ob) = _block(a, (1, len(a.h)), r), _block(b, (len(b.h), 1), r)
    got = covered(ha, hb, _pair_tol(a.cloud, b.cloud, tol), modes, (oa, ob, b.cloud))
    seen = {}
    return tuple([seen[id(ok)] if id(ok) in seen
                  else seen.setdefault(id(ok), np.logical_and.reduce(ok, axis=0)) for ok in got])


# elements of the largest boolean block one array pass of table_matrices
# builds; keeps its temporaries O(_BLOCK_ELEMENTS) in memory rather than
# O(N^2). Two budgets share it: a row block's test, (1, 1, m, rows, N) for
# the candidate test or for the kernel with one corner slot, and one chunk
# of a block's candidate pairs, (1, k, m, pairs) for the sufficient test and
# (k, k, m, pairs) for one table comparison
_BLOCK_ELEMENTS = 2 ** 16


def table_matrices(tab: CornerTable, tol: float) -> tuple[np.ndarray, ...]:
    """(lower, large, strict) boolean (N, N) matrices over a table with set
    axis (N,); [i, j] = rel(set i, set j) at the pair's tolerance.

    Row blocks of the table are tested against the whole table, rows * N
    * m elements at a time. With one corner slot the block goes to the
    kernel whole. With more, a block's pairs pass three stages, each in
    chunks of at most ``_BLOCK_ELEMENTS // (k * k * m)`` pairs, so no
    temporary outgrows the budget and the kernel's calls follow the pairs
    it is asked, not the dense block:

    * two kernel tests against ideal points (``CornerTable.ideal``), each
      exact in floating point, not up to rounding, since each is one of the
      kernel's own comparisons. A pair whose sets' ideal points fail LARGE
      is False in all three matrices: all three relations need, for each
      B-corner b, some A-corner a with fl(b + t) >= a on every axis (LARGE
      compares exactly that, STRICT gives it by b > fl(a + t) >= a, and
      LOWER takes STRICT or LARGE per axis), and since a >= A's ideal, the
      B-corner that attains B's ideal on an axis gives LARGE of the ideals
      there. A pair where A holds STRICT against B's ideal point is True in
      all three: some A-corner a has ideal > fl(a + t) on every axis, so
      b > fl(a + t) for every B-corner b >= ideal, which is STRICT; with
      t >= 0, fl(b + t) >= b > a gives LARGE, and LOWER, which takes
      STRICT or LARGE per axis, holds too. +inf padding changes neither
      test: it never lowers an ideal point, since every set has a corner,
      and an A-corner of padding, fl(inf + t) = inf, is below no ideal
      point. Both read the kernel's H-coordinates, so they hold under
      general cones too;
    * the kernel is asked LARGE alone on the candidates left;
    * it is asked LOWER and STRICT only where LARGE holds. Each of them
      implies LARGE, axis by axis: STRICT's b > fl(a + t) >= a gives
      fl(b + t) >= b > a, and LOWER takes STRICT or LARGE per axis. So
      where LARGE fails, they fail too.
    """
    k, m, n = tab.h.shape
    rows = max(1, _BLOCK_ELEMENTS // (n * m))
    pairs = max(1, _BLOCK_ELEMENTS // (k * k * m))
    lower, large, strict = out = tuple(np.zeros((n, n), dtype=bool) for _ in range(3))

    def chunks(ii, jj):
        for c in range(0, len(ii), pairs):
            yield ii[c:c + pairs], jj[c:c + pairs]

    ideal = tab.ideal()
    for i in range(0, n, rows):
        blk = slice(i, i + rows)
        a = tab.sets(blk, None)
        if k == 1:
            for mat, ok in zip(out, table_rel(a, tab, (LOWER, LARGE, STRICT), tol)):
                mat[blk] = ok
            continue
        t = _pair_tol(a.cloud, tab.cloud, tol)
        cand = covered(ideal[None, None, :, blk, None], ideal[None, None, :, None],
                       t, (LARGE,))[0][0]
        ii, jj = np.nonzero(cand)
        settled = np.empty(len(ii), dtype=bool)
        for c in range(0, len(ii), pairs):
            ia, ja = ii[c:c + pairs], jj[c:c + pairs]
            settled[c:c + pairs] = covered(
                tab.h.take(ia + i, axis=-1)[None], ideal.take(ja, axis=-1)[None, None],
                t[ia, ja] if np.ndim(t) else t, (STRICT,))[0][0]
        # nonzero lists the candidates in row-major order, as cand[cand] does
        cand[cand] = settled
        for mat in out:
            mat[blk] = cand
        left = ~settled
        ii, jj = ii[left] + i, jj[left]
        for at in chunks(ii, jj):
            large[at], = table_rel(*map(tab.take, at), (LARGE,), tol)
        held = large[ii, jj]
        for at in chunks(ii[held], jj[held]):
            lower[at], strict[at] = table_rel(*map(tab.take, at), (LOWER, STRICT), tol)
    return out


def lower_le(A: SetRep, B: SetRep, ctx: OrderCtx) -> bool:
    """A below B: B inside A + C."""
    return _rel(A, B, ctx, LOWER)


def large_le(A: SetRep, B: SetRep, ctx: OrderCtx) -> bool:
    """A largely below B: B inside cl(A + C)."""
    return _rel(A, B, ctx, LARGE)


def strict_lt(A: SetRep, B: SetRep, ctx: OrderCtx) -> bool:
    """A strictly below B: some interior eps with A + eps below B."""
    return _rel(A, B, ctx, STRICT)


def equiv(A: SetRep, B: SetRep, ctx: OrderCtx) -> bool:
    """Closed-upset equality: large_le both ways."""
    return large_le(A, B, ctx) and large_le(B, A, ctx)


def shift_margin(A: SetRep, B: SetRep, ctx: OrderCtx) -> float:
    """Largest s with translate(A, s*u) largely below B, flags aside: the
    one-pair case of ``shift_bound``. Positive s measures slack, negative s
    violation. Exact for point-cloud B; for box B it ignores endpoint flags,
    so consume it only where a strictly positive epsilon of slack is in play.
    """
    ha, _, _ = _corner_data(A, ctx.cone)
    hb, _, _ = _corner_data(B, ctx.cone)
    return float(shift_bound(ha, hb, ctx.w))
