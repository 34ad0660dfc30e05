"""Scale probe: relation matrices of one large solve-grid problem.

Run from the repository root:

    python3 benchmarks/scale.py --side 40 [--cone orthant] [--seed 1]

Builds ``perfbench/gen.py``'s ``solve_grid_problem`` (slot 0, clouds of 2
or 3 points in R^3) on a side x side grid under the given cone class,
loads it, times ``solve.relation_matrices`` and then asks ``eff`` for the
four kinds off the cached matrices. Prints one JSON line: the grid points,
the ``load_dict`` seconds (grid evaluation and properness check), the
``relation_matrices`` seconds, the process's peak RSS in MB, and SHA-256
digests of the three matrices and of all four ``eff`` results (indices
and witnesses), so that two trees can be checked for identical answers by
running this file in each.

The line also says where the pairs went, counted while the matrices are
built by wrapping the solver's helpers, not inside the package:
``rejected`` pairs failed the necessary test (``solve._candidates``),
``settled`` pairs passed the sufficient one (``solve._settled``),
``asked_large`` pairs were asked LARGE of the kernel
(``solve.table_rel``) and ``asked_lower_strict`` pairs LOWER or STRICT.
Of the N^2 pairs, the first two never reach the kernel. The wrappers'
counting passes are inside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import setorder as so  # noqa: E402
from setorder import solve  # noqa: E402
from setorder._kernels import LARGE, LOWER, STRICT  # noqa: E402


def counted(counts: dict) -> dict:
    """Wrappers of the solver's two tests and its kernel call that add the
    pairs each one rejects, settles or is asked to ``counts``."""
    candidates, settled, table_rel = solve._candidates, solve._settled, solve.table_rel

    def count_candidates(*args):
        ok = candidates(*args)
        counts["rejected"] += ok.size - int(np.count_nonzero(ok))
        return ok

    def count_settled(*args):
        ok = settled(*args)
        counts["settled"] += int(np.count_nonzero(ok))
        return ok

    def count_table_rel(a, b, modes, tol):
        got = table_rel(a, b, modes, tol)
        if LARGE in modes:
            counts["asked_large"] += got[0].size
        if LOWER in modes or STRICT in modes:
            counts["asked_lower_strict"] += got[0].size
        return got

    return {"_candidates": count_candidates, "_settled": count_settled,
            "table_rel": count_table_rel}


def probe(side: int, cone_class: str, seed: int) -> dict:
    doc = gen.solve_grid_problem(np.random.default_rng(seed), 0, cone_class, side)
    start = perf_counter()
    P = so.load_dict(doc)
    load_s = perf_counter() - start
    ctx = so.OrderCtx(P.cone)
    counts = dict.fromkeys(("rejected", "settled", "asked_large", "asked_lower_strict"), 0)
    wrappers = counted(counts)
    real = {name: getattr(solve, name) for name in wrappers}
    vars(solve).update(wrappers)
    try:
        start = perf_counter()
        mats = solve.relation_matrices(P, ctx)
        seconds = perf_counter() - start
    finally:
        vars(solve).update(real)
    effs = {kind: so.eff(P, kind, ctx) for kind in so.KINDS}
    eff_doc = {k: [list(r.indices), sorted(r.witness.items())] for k, r in effs.items()}
    return {
        "side": side, "cone": cone_class, "seed": seed, "points": len(P),
        "load_s": round(load_s, 4),
        "relation_matrices_s": round(seconds, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "matrices_sha256": hashlib.sha256(
            b"".join(np.packbits(m).tobytes() for m in mats)).hexdigest(),
        "eff_sha256": hashlib.sha256(
            json.dumps(eff_doc, separators=(",", ":")).encode()).hexdigest(),
        **counts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, required=True, help="grid side; side^2 points")
    ap.add_argument("--cone", choices=("orthant", "general"), default="orthant")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print(json.dumps(probe(args.side, args.cone, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
