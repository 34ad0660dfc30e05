"""Compare the compiled corner kernels against the NumPy reference.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--repeat 5]

Times the two single-pair kernels, rel_corners in each mode and
shift_bound, on random corner data: the calls the order module makes one
pair of sets at a time. solve.relation_matrices runs the batched NumPy
kernel on either backend, so it is not compared here. Both backends are
imported directly, whichever one setorder._kernels picked, and their
answers are cross-checked before timing.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from setorder._kernels import BACKEND, pure

try:
    from setorder._kernels import _fast as fast
except ImportError:
    fast = None

MODES = {"lower": pure.LOWER, "large": pure.LARGE, "strict": pure.STRICT}


def make_pairs(rng: np.random.Generator, count: int, dim: int):
    pairs = []
    for _ in range(count):
        na, nb = rng.integers(1, 5), rng.integers(1, 5)
        pairs.append((
            rng.normal(size=(na, dim)),
            rng.integers(0, 2, size=(na, dim)).astype(np.uint8),
            rng.normal(size=(nb, dim)),
            rng.integers(0, 2, size=(nb, dim)).astype(np.uint8),
            bool(rng.integers(0, 2)),
        ))
    return pairs


def sweep(impl, pairs, mode: int) -> int:
    hits = 0
    for ca, oa, cb, ob, b_cloud in pairs:
        ok, _ = impl.rel_corners(ca, oa, cb, ob, mode, b_cloud, 1e-9)
        hits += ok
    return hits


def time_it(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=4000)
    ap.add_argument("--dim", type=int, default=3)
    args = ap.parse_args()

    print(f"active backend at import time: {BACKEND}")
    if fast is None:
        print("compiled extension unavailable; nothing to compare")
        return

    rng = np.random.default_rng(7)
    pairs = make_pairs(rng, args.pairs, args.dim)

    print(f"\nrel_corners, {args.pairs} random pairs, dim {args.dim}:")
    for name, mode in MODES.items():
        a = sweep(pure, pairs, mode)
        b = sweep(fast, pairs, mode)
        assert a == b, f"backend disagreement in mode {name}: {a} != {b}"
        tp = time_it(lambda: sweep(pure, pairs, mode), args.repeat)
        tf = time_it(lambda: sweep(fast, pairs, mode), args.repeat)
        print(f"  {name:<7} pure {tp * 1e3:8.2f} ms   "
              f"fast {tf * 1e3:8.2f} ms   x{tp / tf:5.1f}")

    w = np.ones(args.dim) / np.sqrt(args.dim)

    def shift_sweep(impl):
        acc = 0.0
        for ca, _, cb, _, _ in pairs:
            s, _ = impl.shift_bound(ca, cb, w)
            acc += s
        return acc

    sa, sb = shift_sweep(pure), shift_sweep(fast)
    assert abs(sa - sb) < 1e-9 * len(pairs)
    tp = time_it(lambda: shift_sweep(pure), args.repeat)
    tf = time_it(lambda: shift_sweep(fast), args.repeat)
    print(f"\nshift_bound, {len(pairs)} corner-set pairs:")
    print(f"  margin  pure {tp * 1e3:8.2f} ms   "
          f"fast {tf * 1e3:8.2f} ms   x{tp / tf:5.1f}")


if __name__ == "__main__":
    main()
