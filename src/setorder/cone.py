"""Polyhedral cones in halfspace form.

A cone is C = {z : g_i . z >= 0 for all i} with unit-normalized rows g_i.
Construction fails unless the cone is solid (an interior direction exists);
the found direction u is cached, rescaled so min_i g_i . u >= 1, and reused
by every quantifier instantiation of the form "epsilon = t * u".

The orthant gets a dedicated kind tag: box-union set arithmetic is exact
only there, and detection is by row inspection after normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import (
    ConeSpecError,
    ContainmentNotEstablished,
    DimensionMismatch,
    NotSolid,
)

DEFAULT_TOL = 1e-9

_SEARCH_RESTARTS = 24
_SEARCH_SWEEPS = 40
_TERNARY_STEPS = 72


@dataclass(frozen=True, eq=False)
class Cone:
    dim: int
    halfspaces: np.ndarray      # (m, dim), unit Euclidean rows, read-only
    kind: str                   # "orthant" | "general"
    interior_direction: np.ndarray  # min_i g_i . u >= 1

    @staticmethod
    def orthant(dim: int) -> "Cone":
        if not isinstance(dim, int) or dim < 1:
            raise ConeSpecError(f"orthant dimension must be a positive integer, got {dim!r}")
        rows = np.eye(dim)
        return Cone._build(dim, rows, "orthant", np.ones(dim))

    @staticmethod
    def from_halfspaces(rows: Sequence[Sequence[float]] | np.ndarray) -> "Cone":
        G = np.asarray(rows, dtype=float)
        if G.ndim != 2 or G.shape[0] < 1 or G.shape[1] < 1:
            raise ConeSpecError("halfspaces must be a nonempty matrix of row vectors")
        if not np.all(np.isfinite(G)):
            raise ConeSpecError("halfspace rows must be finite")
        norms = np.linalg.norm(G, axis=1)
        if np.any(norms == 0.0):
            raise ConeSpecError("halfspace rows must be nonzero")
        # normalize to a fixpoint so serialization round-trips exactly
        for _ in range(4):
            scale = norms[:, None]
            if np.all(scale == 1.0):
                break
            G = G / scale
            norms = np.linalg.norm(G, axis=1)
        dim = G.shape[1]
        if _is_orthant_rows(G, dim):
            return Cone.orthant(dim)
        u = _search_interior(G)
        return Cone._build(dim, G, "general", u)

    @staticmethod
    def _build(dim: int, rows: np.ndarray, kind: str, u: np.ndarray) -> "Cone":
        rows = np.ascontiguousarray(rows, dtype=float)
        rows.setflags(write=False)
        u = np.ascontiguousarray(u, dtype=float)
        u.setflags(write=False)
        margins = rows @ u
        if margins.min() < 1.0:
            raise NotSolid("interior direction normalization failed")
        return Cone(dim, rows, kind, u)

    # -- predicates --------------------------------------------------------

    def contains(self, z: Sequence[float] | np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        z = self._vec(z)
        return bool(np.all(self.halfspaces @ z >= -tol))

    def contains_interior(self, z: Sequence[float] | np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        z = self._vec(z)
        return bool(np.all(self.halfspaces @ z > tol))

    def dominates(self, a, b, strict: bool, tol: float = DEFAULT_TOL) -> bool:
        """a <=_C b, i.e. b - a in C (strict: in int(C))."""
        a = self._vec(a)
        b = self._vec(b)
        if strict:
            return self.contains_interior(b - a, tol)
        return self.contains(b - a, tol)

    def h_coords(self, points: np.ndarray) -> np.ndarray:
        """Map points (k, dim) to halfspace coordinates (k, m).

        In these coordinates every cone comparison is a componentwise one;
        for the orthant this is the identity.
        """
        points = np.asarray(points, dtype=float)
        if self.kind == "orthant":
            return points
        return points @ self.halfspaces.T

    def _vec(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape[0] != self.dim:
            raise DimensionMismatch(f"expected a vector of length {self.dim}, got {z.shape[0]}")
        return z

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        if self.kind == "orthant":
            return {"kind": "orthant", "dim": self.dim}
        return {"kind": "halfspaces", "rows": self.halfspaces.tolist()}

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "Cone":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConeSpecError(f"bad cone literal: {obj!r}")
        if obj["kind"] == "orthant":
            return Cone.orthant(int(obj["dim"]))
        if obj["kind"] == "halfspaces":
            return Cone.from_halfspaces(obj["rows"])
        raise ConeSpecError(f"unknown cone kind {obj['kind']!r}")


def _is_orthant_rows(G: np.ndarray, dim: int) -> bool:
    # exactly the d coordinate axes, in any order
    if G.shape[0] != dim:
        return False
    seen = set()
    for row in G:
        hot = np.flatnonzero(row != 0.0)
        if hot.size != 1 or row[hot[0]] != 1.0:
            return False
        seen.add(int(hot[0]))
    return len(seen) == dim


def _search_interior(G: np.ndarray) -> np.ndarray:
    """Maximize min_i g_i . u over the unit box, then rescale to margin >= 1.

    The objective is concave piecewise-linear, so per-coordinate ternary
    search inside a sweep loop converges; random restarts guard against
    flat starts. Deterministic: fixed internal seed.
    """
    m, d = G.shape

    def margin(u: np.ndarray) -> float:
        return float((G @ u).min())

    rng = np.random.default_rng(1729)
    starts = [np.ones(d), np.clip(G.sum(axis=0), -1.0, 1.0)]
    starts += [rng.uniform(-1.0, 1.0, size=d) for _ in range(_SEARCH_RESTARTS)]

    best_u, best_t = None, -math.inf
    for start in starts:
        u = start.copy()
        t = margin(u)
        for _ in range(_SEARCH_SWEEPS):
            improved = False
            for j in range(d):
                lo, hi = -1.0, 1.0
                uj = u.copy()
                for _ in range(_TERNARY_STEPS):
                    m1 = lo + (hi - lo) / 3.0
                    m2 = hi - (hi - lo) / 3.0
                    uj[j] = m1
                    f1 = margin(uj)
                    uj[j] = m2
                    f2 = margin(uj)
                    if f1 < f2:
                        lo = m1
                    else:
                        hi = m2
                uj[j] = 0.5 * (lo + hi)
                t_new = margin(uj)
                if t_new > t + 1e-15:
                    u, t = uj, t_new
                    improved = True
            if not improved:
                break
        if t > best_t:
            best_u, best_t = u, t

    if best_u is None or best_t <= 1e-9:
        raise NotSolid(f"no interior direction found (best margin {best_t:.3e})")

    u = best_u / best_t
    # float rounding can leave min margin a hair under 1
    for _ in range(8):
        if (G @ u).min() >= 1.0:
            break
        u = u * (1.0 + 4e-16)
    if (G @ u).min() < 1.0:
        raise NotSolid("interior direction normalization failed")
    return u


def scale_witness(C: Cone, c, u, tol: float = DEFAULT_TOL) -> int:
    """Smallest N >= 1 with u/2 - c/N in C.

    Existence is guaranteed for c in C, u in int(C); the returned N also
    certifies {c} strictly-below {N*u} in the set order (N*u - c lands in
    int(C) because N*(u/2) does).
    """
    c = C._vec(c)
    u = C._vec(u)
    if not C.contains(c, tol):
        raise ContainmentNotEstablished("c is not in the cone")
    if not C.contains_interior(u, tol):
        raise ContainmentNotEstablished("u is not in the cone interior")

    G = C.halfspaces
    gc = G @ c
    gu = G @ u
    # analytic upper bound: N >= gc_i / (gu_i / 2) whenever gc_i > 0
    with np.errstate(divide="ignore"):
        bound = np.where(gc > 0, gc / (gu / 2.0), 1.0)
    n_cap = int(math.ceil(bound.max())) + 2
    for N in range(1, max(2, n_cap + 1)):
        if C.contains(u / 2.0 - c / N, tol):
            return N
    raise ContainmentNotEstablished("no finite scale witness found")  # pragma: no cover


def cone_subset(C1: Cone, C2: Cone, tol: float = DEFAULT_TOL,
                samples: int = 512) -> tuple[bool, str]:
    """Decide C1 <= C2 where cheap, otherwise sample.

    Returns (ok, method). Raises ContainmentNotEstablished with a witness
    when a point of C1 outside C2 is found.
    """
    if C1.dim != C2.dim:
        raise DimensionMismatch("cones live in different dimensions")
    d = C1.dim
    if C1.kind == "orthant":
        # g . z >= 0 for all z >= 0 iff g >= 0 componentwise
        ok = bool(np.all(C2.halfspaces >= -1e-15))
        if not ok:
            row = int(np.argmin(C2.halfspaces.min(axis=1)))
            axis = int(np.argmin(C2.halfspaces[row]))
            z = np.zeros(d)
            z[axis] = 1.0
            raise ContainmentNotEstablished(f"orthant axis {axis} leaves C2 (row {row})")
        return True, "exact"
    if d == 2:
        # extreme rays of a planar cone: boundary directions of active rows
        rays = []
        for g in C1.halfspaces:
            for r in (np.array([g[1], -g[0]]), np.array([-g[1], g[0]])):
                if np.all(C1.halfspaces @ r >= -1e-12):
                    rays.append(r)
        rays.append(C1.interior_direction)
        for r in rays:
            if not C2.contains(r, tol):
                raise ContainmentNotEstablished(f"ray {r.tolist()} of C1 leaves C2")
        return True, "exact"
    # sampled fallback: random points pushed into C1
    rng = np.random.default_rng(97)
    u1 = C1.interior_direction
    checked = 0
    for _ in range(samples * 4):
        if checked >= samples:
            break
        z = rng.standard_normal(d)
        z = z + u1 * max(0.0, -float((C1.halfspaces @ z).min())) * 1.001
        if not C1.contains(z, 0.0):
            continue
        checked += 1
        if not C2.contains(z, tol):
            raise ContainmentNotEstablished(f"sampled point {z.tolist()} of C1 leaves C2")
    return True, "sampled"


def fineness_witness(C1: Cone, C2: Cone, u2, tol: float = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Constructive witness that the C1 order refines the C2 order.

    Requires C1 <= C2 and u2 in int(C2); returns (N, u) with
    u = u1/N strictly below u2 in the C2 order, u1 the cached interior
    direction of C1.
    """
    u2 = C2._vec(u2)
    if not C2.contains_interior(u2, tol):
        raise ContainmentNotEstablished("u2 must lie in the interior of C2")
    cone_subset(C1, C2, tol)
    u1 = C1.interior_direction
    N = scale_witness(C2, u1, u2, tol)
    u = u1 / N
    if not C2.dominates(u, u2, strict=True, tol=tol):
        raise ContainmentNotEstablished("witness failed the strict domination post-check")  # pragma: no cover
    return N, u
