"""NumPy kernels for corner comparisons.

Every preorder query between two finitely-represented sets reduces to a
"for every B-corner there is an A-corner dominating it" sweep over
halfspace coordinates. ``covered`` states the rule once, for broadcast
blocks of sets (``order.table_rel``) and for the relation matrices' tests
on the sets' ideal points (``order.table_matrices``); ``rel_corners`` is
its one-pair case.

The corner axes come first and the sets last: a block of pairs is
(B-corner, A-corner, H-axis, *sets). Each comparison then runs along the
sets, and the all over the H-axes, the any over the A-corners and the
all over the B-corners are whole-array reductions of leading axes.

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


def covered(A: np.ndarray, B: np.ndarray, t, modes: tuple[int, ...],
            flags=None) -> tuple[np.ndarray, ...]:
    """Whether some A-corner covers each B-corner, once per mode in ``modes``.

    A is (1, ka, m, *L) and B (kb, 1, m, *L), with the sets on the trailing
    axes L, which broadcast; each result is (kb, *L), the all over axis 2
    (the H-axes) and then the any over axis 1 (the A-corners). The pair's
    tolerance ``t`` (tol when A or B is a cloud, 0 for two boxes) is a
    scalar or an array of the set axes, which broadcasts from the right, so
    that it varies with the pair of sets only.
    Per axis, LARGE is fl(B + t) >= A and STRICT is B > fl(A + t). So
    strict_lt(A, B) and large_le(B, A) never both hold, even in floating
    point: together they would give b > fl(a + t) >= b' along a strictly
    decreasing chain of B's corners, which a finite set cannot hold.
    LOWER is STRICT where A's end is open and B's closed, LARGE elsewhere;
    it alone reads ``flags``, (oa, ob, b_cloud): A's and B's uint8
    openness flags, shaped as A and B, and whether B is a cloud, which
    counts as closed whatever its flags. Without flags, or where no
    A-corner is open, LOWER is LARGE: both modes then get one result, and
    STRICT is compared only if asked for itself.
    Each comparison is made and reduced at most once, and only when a
    requested mode reads it. With t = 0 this is exact box logic. A corner
    of +inf covers no finite corner and is covered by any finite one, so
    ragged corner lists are padded with +inf, not masked.
    """
    exact = not isinstance(t, np.ndarray) and t == 0
    open_a = LOWER in modes and flags is not None and flags[0].any()
    large = ((B if exact else B + t) >= A) if LARGE in modes or LOWER in modes else None
    strict = (B > (A if exact else A + t)) if STRICT in modes or open_a else None
    out, got = {}, []
    for mode in modes:
        key = LARGE if mode == LOWER and not open_a else mode
        if key not in out:
            if key == LARGE:
                axes = large
            elif key == STRICT:
                axes = strict
            elif key == LOWER:
                oa, ob, b_cloud = flags
                axes = np.where((oa != 0) & ((ob == 0) | b_cloud), strict, large)
            else:
                raise ValueError(f"unknown relation mode {mode}")
            out[key] = np.logical_or.reduce(np.logical_and.reduce(axes, axis=2), axis=1)
        got.append(out[key])
    return tuple(got)


def rel_corners(ca: np.ndarray, oa: np.ndarray, cb: np.ndarray, ob: np.ndarray,
                mode: int, b_cloud: bool, tol: float) -> tuple[bool, int]:
    ok, = covered(ca[None], cb[:, None], tol, (mode,), (oa[None], ob[:, None], b_cloud))
    if ok.all():
        return True, -1
    return False, int(np.flatnonzero(~ok)[0])


def shift_bound(ha: np.ndarray, hb: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Largest s with ha + s*w componentwise-below hb in the forall-exists
    sense, over the broadcast set axes L of ha (na, m, *L), hb (nb, m, *L).
    Corners padded with +inf are ignored, and so is the NaN of padding
    against padding. Openness flags are deliberately ignored: the bound is
    consumed only where a strict epsilon of slack exists on at least one side."""
    w = w.reshape(w.shape + (1,) * (ha.ndim - 2))
    with np.errstate(invalid="ignore"):
        diff = (hb[:, None] - ha[None]) / w   # (nb, na, m, *L)
    per_b = np.fmax.reduce(diff.min(axis=2), axis=1, initial=-np.inf)
    return per_b.min(axis=0, initial=np.inf)
