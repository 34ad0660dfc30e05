"""Fine-grid probe: the stability experiment of sop_sin on a refined grid.

Run from the repository root:

    python3 benchmarks/fine.py --step pi/16384 [--horizon 8]

Loads the shipped ``sop_sin`` document with the grid step of its base
domain and of its moving domains replaced by ``--step`` (``pi/400``
ships: 100 points; ``pi/4096`` gives 1,025 and ``pi/16384`` 4,097), and
runs ``setorder stability --kind Relaxed --direction external`` on it
in-process at the given horizon. At horizon 8 the battery's tail balls
hold many grid points, so the adversarial-worst strategy scores its
candidates on every base point.
The document is written to a temporary directory; no shipped file is
edited. Prints one JSON line: the grid points, the command's seconds,
the number of ``PieceMap.value`` and ``problem.value_rows`` calls, the
process's peak RSS in MB, the exit code and the SHA-256 of the report, so
that two trees can be checked for identical answers by running this file
in each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from setorder import cli, problem  # noqa: E402

SHIPPED = ROOT / "src" / "setorder" / "data" / "problems" / "sop_sin.json"
SHIPPED_STEP = '"step": "pi/400"'


def refined(step: str) -> dict:
    """The shipped sop_sin document with every window step set to ``step``."""
    text = SHIPPED.read_text()
    if text.count(SHIPPED_STEP) != 2:
        raise SystemExit(f"{SHIPPED} no longer has two {SHIPPED_STEP} steps")
    return json.loads(text.replace(SHIPPED_STEP, json.dumps({"step": step})[1:-1]))


def probe(step: str, horizon: int) -> dict:
    doc = refined(step)
    calls = {"value": 0, "value_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # value_rows is called through the problem module's global name
    patches = [(problem.PieceMap, "value"), (problem, "value_rows")]
    real = [getattr(owner, name) for owner, name in patches]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sop_sin_fine.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        for (owner, name), fn in zip(patches, real):
            setattr(owner, name, counted(name, fn))
        try:
            start = perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(["stability", str(path), "--kind", "Relaxed",
                                 "--direction", "external",
                                 "--horizon", str(horizon)])
            seconds = perf_counter() - start
        finally:
            for (owner, name), fn in zip(patches, real):
                setattr(owner, name, fn)
    report = out.getvalue()
    return {
        "step": step, "horizon": horizon,
        "points": json.loads(report)["problem"]["points"],
        "seconds": round(seconds, 3),
        "piecemap_value_calls": calls["value"],
        "value_rows_calls": calls["value_rows"],
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "exit": code,
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--step", required=True, help="grid step expression, e.g. pi/16384")
    ap.add_argument("--horizon", type=int, default=8)
    args = ap.parse_args(argv)
    print(json.dumps(probe(args.step, args.horizon)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
