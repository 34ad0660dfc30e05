"""Finite representations of nonempty subsets of R^d.

Two concrete forms: PointCloud (finite point list, any polyhedral cone) and
BoxUnion (finite union of axis boxes with per-axis open/closed lower and
upper ends; exact set arithmetic under the orthant only). The preorders
never need more than A + C, cl(A + C) and A + int(C), all of which reduce
to lower-corner sweeps in halfspace coordinates; ``_corner_data`` supplies
the corners and the order module's relations ask the questions. Whether a
point z lies in A + C, or in cl(A + C), is lower_le(A, points([z]), ctx),
or large_le.

Structural equality between SetReps is intentionally not defined; compare
through the order module's equivalence relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, Union

import numpy as np

from ._kernels import LARGE, rel_corners
from .cone import DEFAULT_TOL, Cone
from .errors import DimensionMismatch, SetSpecError, Unsupported
from .verdict import Verdict

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


def _corner_data(A: SetRep, C: Cone) -> tuple[np.ndarray, np.ndarray, bool]:
    """(h_corners, lo_open flags, is_cloud) for a set under a cone."""
    if A.dim != C.dim:
        raise DimensionMismatch(f"set dim {A.dim} against cone dim {C.dim}")
    if isinstance(A, PointCloud):
        h = np.ascontiguousarray(C.h_coords(A.points))
        return h, np.zeros(h.shape, dtype=np.uint8), True
    if isinstance(A, BoxUnion):
        if C.kind != "orthant":
            raise Unsupported("box-union sets require the orthant cone; "
                              "sample to a point cloud for general cones")
        c, o = A.lower_corners()
        return np.ascontiguousarray(c), np.ascontiguousarray(o), False
    raise TypeError(f"not a SetRep: {A!r}")


def translate(A: SetRep, v: Sequence[float] | np.ndarray) -> SetRep:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != dim_of(A):
        raise DimensionMismatch(f"shift of dim {v.shape[0]} against set dim {dim_of(A)}")
    if isinstance(A, PointCloud):
        return PointCloud(A.dim, A.points + v)
    moved = tuple(
        Box(tuple(float(l + s) for l, s in zip(b.lo, v)),
            tuple(float(h + s) if h != _INF else _INF for h, s in zip(b.hi, v)),
            b.lo_open, b.hi_open)
        for b in A.boxes)
    return BoxUnion(A.dim, moved)


def dim_of(A: SetRep) -> int:
    return A.dim


def min_corner(A: SetRep) -> np.ndarray:
    """Componentwise minimum over points or box lower corners."""
    if isinstance(A, PointCloud):
        return A.points.min(axis=0)
    c, _ = A.lower_corners()
    return c.min(axis=0)


def exterior_point(A: SetRep, C: Cone) -> np.ndarray | None:
    """A point z outside cl(A + C), or None for a box union under a general cone."""
    if dim_of(A) != C.dim:
        raise DimensionMismatch(f"set dim {dim_of(A)} against cone dim {C.dim}")
    if isinstance(A, BoxUnion):
        return min_corner(A) - 1.0 if C.kind == "orthant" else None
    # push far enough along -u that the first halfspace row rules out
    # domination by every point of A
    pmin = A.points.min(axis=0)
    h0 = C.h_coords(A.points)[:, 0]
    t = 1.0 + float(C.h_coords(pmin.reshape(1, -1))[0, 0] - h0.min())
    return pmin - t * C.interior_direction


#: why a value whose exterior point lies in cl(A + C) is refused
EXTERIOR_INSIDE = "constructed exterior point landed inside A + C"


def is_c_proper(A: SetRep, C: Cone) -> Verdict:
    """A + C != R^d, certified by an explicit point outside cl(A + C)."""
    z = exterior_point(A, C)
    if z is None:
        return Verdict.inconclusive("box-union sets under a general cone are unsupported")
    h, o, _ = _corner_data(A, C)
    hz = np.ascontiguousarray(C.h_coords(z.reshape(1, -1)))
    inside, _ = rel_corners(h, o, hz, np.zeros(hz.shape, dtype=np.uint8),
                            LARGE, True, DEFAULT_TOL)
    if inside:  # pragma: no cover - defensive
        return Verdict.fails(EXTERIOR_INSIDE, counterexample={"point": z})
    return Verdict.holds("found a point outside cl(A + C)", certificate={"point": z})


# -- JSON literals -----------------------------------------------------------


def set_from_json(obj: dict[str, Any]) -> SetRep:
    if not isinstance(obj, dict):
        raise SetSpecError(f"bad set literal: {obj!r}")
    if "points" in obj:
        return points(obj["points"])
    if "boxes" in obj:
        parsed = []
        for raw in obj["boxes"]:
            lo = [float(v) for v in raw["lo"]]
            hi = [_INF if v == "inf" else float(v) for v in raw["hi"]]
            d = len(lo)
            lo_open = [bool(v) for v in raw.get("lo_open", [False] * d)]
            hi_open = [bool(v) for v in raw.get("hi_open", [False] * d)]
            parsed.append(Box(tuple(lo), tuple(hi), tuple(lo_open), tuple(hi_open)))
        if not parsed:
            raise SetSpecError("empty box list")
        return BoxUnion(parsed[0].dim, tuple(parsed))
    raise SetSpecError("set literal needs a 'points' or 'boxes' key")


def set_to_json(A: SetRep) -> dict[str, Any]:
    if isinstance(A, PointCloud):
        return {"points": A.points.tolist()}
    return {"boxes": [
        {"lo": list(b.lo),
         "hi": ["inf" if v == _INF else v for v in b.hi],
         "lo_open": list(b.lo_open),
         "hi_open": list(b.hi_open)}
        for b in A.boxes]}


def sample_points(A: SetRep, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw points of A itself (not of A + C); used by property tests.

    Box sampling stays strictly inside open ends and caps unbounded axes.
    """
    if isinstance(A, PointCloud):
        idx = rng.integers(0, A.points.shape[0], size=count)
        return A.points[idx]
    out = np.empty((count, A.dim))
    which = rng.integers(0, len(A.boxes), size=count)
    for i in range(count):
        b = A.boxes[which[i]]
        for j in range(A.dim):
            lo, hi = b.lo[j], b.hi[j]
            if hi == _INF:
                hi = lo + 2.0
            if lo == hi:
                out[i, j] = lo
                continue
            frac = rng.uniform(0.25, 0.75)
            out[i, j] = lo + frac * (hi - lo)
    return out
