"""NumPy kernels for corner comparisons.

Every preorder query between two finitely-represented sets reduces to a
"for every B-corner there is an A-corner dominating it" sweep over
halfspace coordinates. ``covered`` states the rule once, for broadcast
blocks of sets (``order.table_rel``); ``rel_corners`` is its one-pair case.

The sweep ends in boolean reductions over short last axes: all over the m
H-axes, any over the A-corners, all over the B-corners. NumPy reduces a
short last axis one outer element at a time, which on a large block costs
far more than one whole-array pass per slice of the axis. ``reduce_last``
makes those passes, in place, once the block has ``_FOLD_OUTER`` outer
elements, and keeps ``op.reduce`` below that, where the passes' fixed cost
is larger: one-pair calls on small sets stay on it.

Conventions of the one-pair kernels:
  * ca/cb: (na, m) / (nb, m) float64 lower corners in halfspace coordinates;
  * oa/ob: matching uint8 openness flags (1 = open lower end); point clouds
    pass all-zero flags;
  * b_cloud: True when B is a point cloud (a cloud counts as closed);
  * tol: the pair's tolerance, the context's when A or B is a point cloud,
    0 for two box unions (box-vs-box corner logic is exact);
  * returns (ok, bad_b) with bad_b the first uncovered B-corner, -1 if ok.
"""

from __future__ import annotations

import numpy as np

#: the kernel implementation, recorded in perfbench's environment record
BACKEND = "pure"

LOWER = 0
LARGE = 1
STRICT = 2

#: outer elements (the size without the last axis) from which
#: ``reduce_last`` folds; on 2 vCPU a (k, 3) boolean block reduces faster
#: below about 64 rows and folds faster above, 11x faster at 37,260 rows
_FOLD_OUTER = 64


def reduce_last(x: np.ndarray, op) -> np.ndarray:
    """``op.reduce(x, axis=-1)`` for a boolean x and op np.logical_and or
    np.logical_or, the same booleans; from ``_FOLD_OUTER`` outer elements on,
    folded one last-axis slice at a time into a copy of the first."""
    n = x.shape[-1]
    if n == 0 or x.size < _FOLD_OUTER * n:
        return op.reduce(x, axis=-1)
    out = x[..., 0].copy()
    for j in range(1, n):
        op(out, x[..., j], out=out)
    return out


def covered(A: np.ndarray, oa: np.ndarray, B: np.ndarray, ob: np.ndarray,
            b_cloud, t, modes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Whether some A-corner covers each B-corner, once per mode in ``modes``.

    A and oa end in (ka, m), B and ob in (kb, 1, m), and their leading axes
    broadcast; each result is that leading shape plus kb. ``b_cloud`` and
    the pair's tolerance ``t`` (tol when A or B is a cloud, 0 for two
    boxes) are scalars, or arrays of B's rank with size 1 on its last three
    axes, so that they vary with the pair of sets only.
    Per axis, LARGE is fl(B + t) >= A and STRICT is B > fl(A + t). So
    strict_lt(A, B) and large_le(B, A) never both hold, even in floating
    point: together they would give b > fl(a + t) >= b' along a strictly
    decreasing chain of B's corners, which a finite set cannot hold.
    LOWER is STRICT where A's end is open and B's closed (a cloud B counts
    as closed whatever its flags), LARGE elsewhere; so where no A-corner is
    open, LOWER is LARGE, and STRICT is then compared only if asked for
    itself.
    Each comparison is made at most once, and only when a requested mode
    reads it. With t = 0 this is exact box logic. A corner of +inf covers
    no finite corner and is covered by any finite one, so ragged corner
    lists are padded with +inf, not masked.
    The all over the m axes and the any over the A-corners go through
    ``reduce_last``: NumPy reduces a short last axis one outer element at
    a time, so a large block folds them slice by slice instead.
    """
    exact = not isinstance(t, np.ndarray) and t == 0
    open_a = LOWER in modes and oa.any()
    large = strict = None
    if LARGE in modes or LOWER in modes:
        large = (B if exact else B + t) >= A
    if STRICT in modes or open_a:
        strict = B > (A if exact else A + t)
    out = []
    for mode in modes:
        if mode == LARGE:
            axes = large
        elif mode == STRICT:
            axes = strict
        elif mode == LOWER:
            axes = (np.where((oa != 0) & ((ob == 0) | b_cloud), strict, large)
                    if open_a else large)
        else:
            raise ValueError(f"unknown relation mode {mode}")
        if axes.size < _FOLD_OUTER * axes.shape[-1]:
            # both reductions below the switch, tested once: the one-pair
            # calls of small sets pay no more than NumPy's reductions
            out.append(np.logical_or.reduce(np.logical_and.reduce(axes, -1), -1))
        else:
            out.append(reduce_last(reduce_last(axes, np.logical_and), np.logical_or))
    return tuple(out)


def rel_corners(ca: np.ndarray, oa: np.ndarray, cb: np.ndarray, ob: np.ndarray,
                mode: int, b_cloud: bool, tol: float) -> tuple[bool, int]:
    ok, = covered(ca, oa, cb[:, None, :], ob[:, None, :], b_cloud, tol, (mode,))
    if ok.all():
        return True, -1
    return False, int(np.flatnonzero(~ok)[0])


def shift_bound(ha: np.ndarray, hb: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Largest s with ha + s*w componentwise-below hb in the forall-exists
    sense, over the broadcast leading axes of ha (..., na, m), hb (..., nb, m).
    Corners padded with +inf are ignored, and so is the NaN of padding
    against padding. Openness flags are deliberately ignored: the bound is
    consumed only where a strict epsilon of slack exists on at least one side."""
    with np.errstate(invalid="ignore"):
        diff = (hb[..., :, None, :] - ha[..., None, :, :]) / w   # (..., nb, na, m)
    per_b = np.fmax.reduce(diff.min(axis=-1), axis=-1, initial=-np.inf)
    return per_b.min(axis=-1, initial=np.inf)
