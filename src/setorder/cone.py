"""Polyhedral cones in halfspace form.

A cone is C = {z : g_i . z >= 0 for all i} with unit-normalized rows g_i.
Construction fails unless the cone is solid (an interior direction exists).
The direction u is the exact optimum of the max-margin linear program
max min_i g_i . u over the unit box, solved by a small dense simplex; it is
cached, rescaled so min_i g_i . u >= 1, and reused by every quantifier
instantiation of the form "epsilon = t * u". Cone containment is decided
exactly by the same simplex.

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

_PIVOT_TOL = 1e-12
_EPS = 2.0 ** -52              # float64 machine epsilon
_NUDGE_STEPS = 40


@dataclass(frozen=True, eq=False)
class Cone:
    dim: int
    halfspaces: np.ndarray      # (m, dim), unit Euclidean rows, read-only
    kind: str                   # "orthant" | "general"
    interior_direction: np.ndarray  # min_i g_i . u >= 1

    @staticmethod
    def orthant(dim: int) -> "Cone":
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
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
        u = _interior_direction(G)
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
        for the orthant this is the identity and the points come back as
        they are. A row's bits can depend on the shape of the call (how
        many rows share one product), so a set's coordinates are those of
        a call on its corners alone; callers that map many sets at once go
        through ``order._h_rows``, which keeps those bits.
        """
        points = np.asarray(points, dtype=float)
        if self.kind == "orthant":
            return points
        return np.matmul(points, self.halfspaces.T)

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
        orthant = obj["kind"] == "orthant"
        if not orthant and obj["kind"] != "halfspaces":
            raise ConeSpecError(f"unknown cone kind {obj['kind']!r}")
        try:
            if not (orthant or json_numbers(obj["rows"])):
                raise ValueError("cone rows must hold JSON numbers")
            arg = obj["dim"] if orthant else np.asarray(obj["rows"], dtype=float)
        except (KeyError, TypeError, ValueError) as err:
            raise ConeSpecError(f"bad cone literal {obj!r}: {err!r}") from None
        return Cone.orthant(arg) if orthant else Cone.from_halfspaces(arg)


def json_numbers(v: Any) -> bool:
    """Whether a JSON value is a number, or nested lists of numbers; a JSON
    boolean or a numeric string is neither."""
    if isinstance(v, list):
        return all(json_numbers(c) for c in v)
    return type(v) in (int, float)


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


def _box_lp(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Maximize c . (u, t) over u in [-1, 1]^d and t >= 0 with G u >= t.

    Returns the optimal u. A dense tableau simplex on x = (u+, u-, t) >= 0,
    u = u+ - u-, started from the slack basis at the origin, which is
    feasible because every cone row has right-hand side 0. That start is
    degenerate, so Bland's rule picks both pivots (lowest-index improving
    column; among tied ratios, lowest-index basic variable) and the simplex
    cannot cycle. The LP is bounded: |g . u| <= sqrt(d) on the box.
    """
    m, d = G.shape
    n = 2 * d + 1
    rows = m + 2 * d
    T = np.zeros((rows + 1, n + rows + 1))
    T[:m, :d], T[:m, d:2 * d], T[:m, 2 * d] = -G, G, 1.0   # t - G u <= 0
    T[m:rows, :2 * d] = np.eye(2 * d)                       # u+, u- <= 1
    T[:rows, n:-1] = np.eye(rows)
    T[m:rows, -1] = 1.0
    T[rows, :n] = -np.r_[c[:d], -c[:d], c[d]]
    basis = np.arange(n, n + rows)
    while True:
        improving = np.flatnonzero(T[rows, :-1] < -_PIVOT_TOL)
        if improving.size == 0:
            break
        j = improving[0]
        cand = np.flatnonzero(T[:rows, j] > _PIVOT_TOL)
        ratios = T[cand, -1] / T[cand, j]
        tied = cand[ratios == ratios.min()]
        i = tied[np.argmin(basis[tied])]
        T[i] /= T[i, j]
        f = T[:, j].copy()
        f[i] = 0.0
        T -= np.outer(f, T[i])
        basis[i] = j
    x = np.zeros(n + rows)
    x[basis] = T[:rows, -1]
    return x[:d] - x[d:2 * d]


def _interior_direction(G: np.ndarray) -> np.ndarray:
    """Maximize min_i g_i . u over the unit box, then rescale to margin >= 1.

    The max-margin problem is a (d+1)-variable LP, solved exactly by _box_lp.
    """
    d = G.shape[1]
    u = _box_lp(G, np.eye(d + 1)[d])
    best_t = float((G @ u).min())
    if best_t <= 1e-9:
        raise NotSolid(f"no interior direction found (best margin {best_t:.3e})")

    u = u / best_t
    # rounding in G @ u can leave the min margin under 1 by about
    # eps * |u| / best_t, far more than one ulp on thin cones: grow the
    # nudge geometrically until it clears
    for k in range(_NUDGE_STEPS):
        if (G @ u).min() >= 1.0:
            break
        u = u * (1.0 + 2.0 ** k * _EPS)
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


def cone_subset(C1: Cone, C2: Cone, tol: float = DEFAULT_TOL) -> tuple[bool, str]:
    """Decide C1 <= C2 exactly.

    Returns (True, "exact"). For each row h of C2, _box_lp minimizes h . z
    over C1 within the unit box; a minimum below -tol refutes containment,
    and ContainmentNotEstablished names the minimizer as the witness.
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
            raise ContainmentNotEstablished(
                f"point {z.tolist()} of C1 (orthant axis {axis}) leaves C2 (row {row})")
        return True, "exact"
    for row, h in enumerate(C2.halfspaces):
        z = _box_lp(C1.halfspaces, np.r_[-h, 0.0])
        if h @ z < -tol:
            raise ContainmentNotEstablished(f"point {z.tolist()} of C1 leaves C2 (row {row})")
    return True, "exact"


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
