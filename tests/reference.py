"""Definitional brute-force oracles for cross-checking the solvers.

Everything here is written straight from the minimality definitions using
only the public pairwise order predicates. No matrices, no caching, no
shared code with setorder.solve beyond the order module itself.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from setorder.cone import Cone
from setorder.order import OrderCtx, large_le, lower_le, strict_lt
from setorder.problem import Domain, Problem, TableMap
from setorder.setrep import BoxUnion, Box, PointCloud, box, points


def brute_eff(P: Problem, kind: str, ctx: OrderCtx) -> tuple[int, ...]:
    vals = list(P.values())
    keep = []
    for i, fi in enumerate(vals):
        if kind == "Strong":
            good = all(lower_le(fi, fj, ctx) for fj in vals)
        elif kind == "Pareto":
            good = all(lower_le(fi, fj, ctx)
                       for fj in vals if lower_le(fj, fi, ctx))
        elif kind == "Geoffroy":
            good = all(large_le(fi, fj, ctx)
                       for fj in vals if large_le(fj, fi, ctx))
        elif kind == "Relaxed":
            good = not any(strict_lt(fj, fi, ctx) for fj in vals)
        else:
            raise ValueError(kind)
        if good:
            keep.append(i)
    return tuple(keep)


def brute_level_set(P: Problem, S, ctx: OrderCtx, rel) -> tuple[int, ...]:
    """Grid indices i with rel(F_i, S), one pairwise predicate call each."""
    return tuple(i for i, fi in enumerate(P.values()) if rel(fi, S, ctx))


def brute_level_set_above(S, P: Problem, ctx: OrderCtx, rel) -> tuple[int, ...]:
    """Grid indices j with rel(S, F_j), one pairwise predicate call each."""
    return tuple(j for j, fj in enumerate(P.values()) if rel(S, fj, ctx))


def validate_witnesses(P: Problem, kind: str, indices, witness, ctx: OrderCtx) -> None:
    """Every excluded index must carry a pair that definitionally excludes it."""
    included = set(indices)
    for i in range(len(P)):
        if i in included:
            assert i not in witness
            continue
        w = witness[i]
        fi, fw = P.value(i), P.value(w)
        if kind == "Strong":
            assert not lower_le(fi, fw, ctx)
        elif kind == "Pareto":
            assert lower_le(fw, fi, ctx) and not lower_le(fi, fw, ctx)
        elif kind == "Geoffroy":
            assert large_le(fw, fi, ctx) and not large_le(fi, fw, ctx)
        else:
            assert strict_lt(fw, fi, ctx)


def _random_value(rng: np.random.Generator, d: int, *, clouds_only: bool,
                  closed_only: bool):
    kind = "cloud" if clouds_only else rng.choice(["box", "box2", "cloud"])
    if kind == "cloud":
        k = int(rng.integers(1, 5))
        return points(rng.uniform(-2.0, 2.0, size=(k, d)))
    def one_box():
        lo = rng.uniform(-2.0, 2.0, size=d)
        width = rng.uniform(0.1, 2.0, size=d)
        hi = lo + width
        if rng.random() < 0.2:
            hi[int(rng.integers(0, d))] = np.inf
        if closed_only:
            lo_open = [False] * d
        else:
            lo_open = [bool(rng.random() < 0.3) for _ in range(d)]
        hi_open = [bool(h == np.inf or rng.random() < 0.3) for h in hi]
        return Box(tuple(map(float, lo)), tuple(map(float, hi)),
                   tuple(lo_open), tuple(hi_open))
    nb = 2 if kind == "box2" else 1
    return BoxUnion(d, tuple(one_box() for _ in range(nb)))


def random_problem(rng: np.random.Generator, *, max_points: int = 50,
                   closed_only: bool = False, orthant_only: bool = False) -> Problem:
    """Seeded random instance with mixed set representations.

    General (non-orthant) cones force point-cloud values, since box upper
    sets are only exact under the orthant.
    """
    d = int(rng.integers(1, 4))
    n = int(rng.integers(3, max_points + 1))
    if orthant_only or rng.random() < 0.7:
        cone = Cone.orthant(d)
        clouds_only = False
    else:
        rows = np.eye(d) + rng.uniform(-0.3, 0.3, size=(d, d))
        try:
            cone = Cone.from_halfspaces(rows)
        except Exception:
            cone = Cone.orthant(d)
        clouds_only = cone.kind != "orthant"
    pts = rng.uniform(-2.0, 2.0, size=(n, d))
    vals = [_random_value(rng, d, clouds_only=clouds_only,
                          closed_only=closed_only) for _ in range(n)]
    table = {tuple(map(float, p)): v for p, v in zip(pts, vals)}
    fn = lambda x: table[tuple(map(float, x))]
    return Problem(f"random[{n}x{d}]", TableMap(fn, d), cone,
                   Domain.from_points(pts))


def pk_cluster_oracle(phase_sets, n0, candidates, N, tol_fn, need):
    """Li/Ls of an eventually periodic set sequence, by phase arithmetic.

    The sequence is A_n = phase_sets[(n - n0) % p] for n >= n0. Membership
    is decided from the per-phase point distances alone: a candidate hits
    index n exactly when its distance to the phase set is within tol_fn(n),
    so counting hits reduces to comparing each phase distance against the
    tolerances of that phase's tail indices.
    """
    p = len(phase_sets)
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim == 1:
        cands = cands[:, None]
    tail = [n for n in range(N) if n >= (N + 1) // 2] if N % 2 else \
        list(range(N // 2, N))
    li, ls = [], []
    for x in cands:
        dists = []
        for ph in range(p):
            s = np.asarray(phase_sets[ph], dtype=float)
            if s.ndim == 1:
                s = s[:, None]
            dists.append(float(np.linalg.norm(s - x, axis=1).min()))
        hits = sum(1 for n in tail
                   if dists[(n - n0) % p] <= tol_fn(n))
        if hits == len(tail):
            li.append(tuple(map(float, x)))
        if hits >= need:
            ls.append(tuple(map(float, x)))
    return tuple(li), tuple(ls)


def max_margin_oracle(G: np.ndarray) -> float:
    """max_{|u|_inf <= 1} min_i g_i . u by enumerating the LP's vertices.

    The LP in (u, t) is max t s.t. G u >= t, -1 <= u <= 1. Its feasible set
    is pointed and t is bounded above, so the optimum sits at a vertex: a
    point where d+1 linearly independent constraints hold with equality.
    Try every (d+1)-subset; exponential, so keep d <= 3 and few rows.
    """
    m, d = G.shape
    # every constraint written as a . (u, t) >= b
    A = np.vstack([np.c_[G, -np.ones(m)],
                   np.c_[np.eye(d), np.zeros(d)],
                   np.c_[-np.eye(d), np.zeros(d)]])
    b = np.r_[np.zeros(m), -np.ones(2 * d)]
    best = -np.inf
    for S in combinations(range(len(A)), d + 1):
        M = A[list(S)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        y = np.linalg.solve(M, b[list(S)])
        if np.all(A @ y >= b - 1e-12):
            best = max(best, float(y[-1]))
    return best
