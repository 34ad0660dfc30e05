"""A/B comparison of two commits on perfbench.

Run from the repository root:

    python3 benchmarks/ab.py --base <rev> --slug <name> [--tree HEAD]
        [--pairs 10] [--seconds 25] [--seed 1]
        [--workloads experiments,solve-grid,order-laws]

Both commits are exported with ``git archive`` into one temporary
directory (local only; nothing is fetched), which is removed afterwards,
also when a run fails. Measuring commits, not the working tree, ties
every number to a SHA, and both sides run from the same kind of
directory. Uncommitted changes are not measured: commit them first. For
each workload the tool runs ``perfbench/run.py --trace 0`` in pairs, once
on the base and once on the tree, alternating which side goes first, and
writes ``BENCH_<slug>.json``: both sides' environment records (with
``git_sha`` set to the exported commit, which an export cannot report
itself), every pair's metrics, per metric the median and quartiles of
each side, and how many pairs the tree won. Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experiments", "solve-grid", "order-laws")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median with the lower and upper quartile (inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's quartiles and the pairs the tree won.

    ``pairs`` holds {"base": metrics, "tree": metrics} with metrics mapping
    a name to a number; ``better`` maps a metric name to "lower" or
    "higher". A pair is a win when the tree is strictly better, a loss
    when the base is; metrics missing on either side of a pair are skipped.
    """
    out = {}
    for name, sense in better.items():
        got = [(p["base"][name], p["tree"][name]) for p in pairs
               if name in p["base"] and name in p["tree"]]
        if not got:
            continue
        sign = 1 if sense == "lower" else -1
        out[name] = {
            "better": sense,
            "base": quartiles([b for b, _ in got]),
            "tree": quartiles([t for _, t in got]),
            "wins": sum(sign * (t - b) < 0 for b, t in got),
            "losses": sum(sign * (t - b) > 0 for b, t in got),
            "pairs": len(got),
        }
    return out


def export(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under dest; returns its full SHA."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment record, {metric: value}) of one untraced perfbench run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench on {tree} ({workload}) exited with "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["correct"] = float(result["correct"])
    return record["record"], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base commit (any git revision)")
    ap.add_argument("--tree", default="HEAD", help="commit to compare against the base")
    ap.add_argument("--slug", required=True, help="names BENCH_<slug>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    workdir = Path(tempfile.mkdtemp(prefix="setorder-ab-"))
    try:
        sides, report = {}, {"seed": args.seed, "seconds": args.seconds,
                             "workloads": {}}
        for side, rev in (("base", args.base), ("tree", args.tree)):
            sides[side] = workdir / side
            report[side] = {"rev": rev, "sha": export(rev, sides[side])}
        for workload in workloads:
            env, pairs = {}, []
            for k in range(args.pairs):
                order = ("base", "tree") if k % 2 == 0 else ("tree", "base")
                pair = {"order": list(order)}
                for side in order:
                    env[side], pair[side] = run_once(sides[side], workload,
                                                     args.seed, args.seconds)
                    env[side]["git_sha"] = report[side]["sha"]
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                          f"run_s {pair[side].get('run_s')}", file=sys.stderr)
                pairs.append(pair)
            report["workloads"][workload] = {
                "env": env, "pairs": pairs, "summary": summarize(pairs, better)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = args.out / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
