"""Finite representations of nonempty subsets of R^d.

Two concrete forms: PointCloud (finite point list, any polyhedral cone) and
BoxUnion (finite union of axis boxes with per-axis open/closed lower and
upper ends; exact set arithmetic under the orthant only). The preorders
never need more than A + C, cl(A + C) and A + int(C), all of which reduce
to lower-corner sweeps in halfspace coordinates: ``_corner_data``
supplies the corners, and the order module's relations and corner tables
ask the questions (an eps-shift moves corners in the table). Whether a
point z lies in A + C, or in cl(A + C), is lower_le(A, points([z]), ctx),
or large_le. ``translate`` shifts a set by a vector.

Structural equality between SetReps is intentionally not defined; compare
through the order module's equivalence relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .cone import Cone
from .errors import DimensionMismatch, SetSpecError, Unsupported

_INF = math.inf


@dataclass(frozen=True, eq=False)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    lo_open: tuple[bool, ...]
    hi_open: tuple[bool, ...]

    def __post_init__(self):
        d = len(self.lo)
        if d == 0 or not (len(self.hi) == len(self.lo_open) == len(self.hi_open) == d):
            raise SetSpecError("box endpoint tuples must be nonempty and of equal length")
        for i in range(d):
            lo, hi = self.lo[i], self.hi[i]
            if not math.isfinite(lo):
                raise SetSpecError(f"axis {i}: lower endpoint must be finite, got {lo}")
            if math.isnan(hi):
                raise SetSpecError(f"axis {i}: upper endpoint is NaN")
            if hi == _INF:
                if not self.hi_open[i]:
                    raise SetSpecError(f"axis {i}: an infinite upper end must be open")
                continue
            if lo > hi:
                raise SetSpecError(f"axis {i}: empty interval [{lo}, {hi}]")
            if lo == hi and (self.lo_open[i] or self.hi_open[i]):
                raise SetSpecError(
                    f"axis {i}: degenerate interval at {lo} must be a closed singleton")

    @property
    def dim(self) -> int:
        return len(self.lo)


@dataclass(frozen=True, eq=False)
class BoxUnion:
    dim: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise SetSpecError("a box union needs at least one box")
        for b in self.boxes:
            if b.dim != self.dim:
                raise DimensionMismatch(f"box of dim {b.dim} in a union of dim {self.dim}")

    def lower_corners(self) -> tuple[np.ndarray, np.ndarray]:
        """(corners, lo_open) as (k, d) float64 / uint8 arrays."""
        c = np.array([b.lo for b in self.boxes], dtype=float)
        o = np.array([b.lo_open for b in self.boxes], dtype=np.uint8)
        return c, o


@dataclass(frozen=True, eq=False)
class PointCloud:
    dim: int
    points: np.ndarray  # (k, dim) float64, read-only

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise SetSpecError("a point cloud needs a nonempty (k, d) point array, d >= 1")
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points of dim {pts.shape[1]} in a cloud of dim {self.dim}")
        if not np.all(np.isfinite(pts)):
            raise SetSpecError("point coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


SetRep = Union[BoxUnion, PointCloud]


def box(lo: Sequence[float], hi: Sequence[float],
        lo_open: Sequence[bool] | None = None,
        hi_open: Sequence[bool] | None = None) -> BoxUnion:
    """Single-box convenience constructor (flags default to closed)."""
    d = len(lo)
    lo_open = tuple(bool(v) for v in (lo_open or [False] * d))
    hi_open = tuple(bool(v) for v in (hi_open or [False] * d))
    return BoxUnion(d, (Box(tuple(map(float, lo)), tuple(map(float, hi)), lo_open, hi_open),))


def points(pts: Sequence[Sequence[float]]) -> PointCloud:
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return PointCloud(arr.shape[1], arr)


def _refuse_boxes(C: Cone) -> None:
    if C.kind != "orthant":
        raise Unsupported("box-union sets require the orthant cone; "
                          "sample to a point cloud for general cones")


def _corner_data(A: SetRep, C: Cone, h_coords: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, bool]:
    """(lower corners, lo_open flags, is_cloud) for a set under a cone.

    A cloud's corners are its points, in halfspace coordinates unless
    ``h_coords`` is False, with all-zero flags; a box union's are its boxes'
    lower corners, in halfspace coordinates under the orthant only.
    """
    if A.dim != C.dim:
        raise DimensionMismatch(f"set dim {A.dim} against cone dim {C.dim}")
    if isinstance(A, PointCloud):
        h = np.ascontiguousarray(C.h_coords(A.points)) if h_coords else A.points
        return h, np.zeros(h.shape, dtype=np.uint8), True
    if isinstance(A, BoxUnion):
        if h_coords:
            _refuse_boxes(C)
        c, o = A.lower_corners()
        return np.ascontiguousarray(c), np.ascontiguousarray(o), False
    raise TypeError(f"not a SetRep: {A!r}")


def translate(A: SetRep, v: Sequence[float] | np.ndarray) -> SetRep:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != A.dim:
        raise DimensionMismatch(f"shift of dim {v.shape[0]} against set dim {A.dim}")
    if isinstance(A, PointCloud):
        return PointCloud(A.dim, A.points + v)
    moved = tuple(
        Box(tuple(float(l + s) for l, s in zip(b.lo, v)),
            tuple(float(h + s) if h != _INF else _INF for h, s in zip(b.hi, v)),
            b.lo_open, b.hi_open)
        for b in A.boxes)
    return BoxUnion(A.dim, moved)
