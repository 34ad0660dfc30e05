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
    reduces its corner and H-axes as leading axes (``_kernels.covered``)."""
    h: np.ndarray
    o: np.ndarray
    cloud: np.ndarray


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
    (``_pair_tol``)."""
    r = max(a.cloud.ndim, b.cloud.ndim)
    (ha, oa), (hb, ob) = _block(a, (1, len(a.h)), r), _block(b, (len(b.h), 1), r)
    got = covered(ha, oa, hb, ob, b.cloud, _pair_tol(a.cloud, b.cloud, tol), modes)
    return tuple(np.logical_and.reduce(ok, axis=0) for ok in got)


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
