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


def probe(side: int, cone_class: str, seed: int) -> dict:
    doc = gen.solve_grid_problem(np.random.default_rng(seed), 0, cone_class, side)
    start = perf_counter()
    P = so.load_dict(doc)
    load_s = perf_counter() - start
    ctx = so.OrderCtx(P.cone)
    start = perf_counter()
    mats = solve.relation_matrices(P, ctx)
    seconds = perf_counter() - start
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
