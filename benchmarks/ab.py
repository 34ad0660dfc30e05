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
each side, how many pairs the tree won, and whether the gain is resolved
or the metric regressed past its ``BENCHMARK.json`` bound (see
``summarize``). Uses the standard library only.
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


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the pairs the tree won, and two
    verdicts.

    ``pairs`` holds {"base": metrics, "tree": metrics} with metrics mapping
    a name to a number; ``metrics`` maps a metric name to its
    ``BENCHMARK.json`` entry, of which "better" ("lower" or "higher") and
    "bound" are read. A pair is a win when the tree is strictly better, a
    loss when the base is; metrics missing on either side of a pair are
    skipped. The verdicts:

    * ``resolved``: the tree won at least 9 in 10 of the pairs, and its
      median is better than the base's by more than the base's
      interquartile range;
    * ``regressed``: the tree's median is worse than the base's by more
      than ``bound`` times the base's median.
    """
    out = {}
    for name, spec in metrics.items():
        got = [(p["base"][name], p["tree"][name]) for p in pairs
               if name in p["base"] and name in p["tree"]]
        if not got:
            continue
        sign = 1 if spec["better"] == "lower" else -1
        base, tree = quartiles([b for b, _ in got]), quartiles([t for _, t in got])
        wins = sum(sign * (t - b) < 0 for b, t in got)
        gain = sign * (base["median"] - tree["median"])
        out[name] = {
            "better": spec["better"],
            "base": base,
            "tree": tree,
            "wins": wins,
            "losses": sum(sign * (t - b) > 0 for b, t in got),
            "pairs": len(got),
            "resolved": 10 * wins >= 9 * len(got) and gain > base["q3"] - base["q1"],
            "regressed": -gain > spec["bound"] * abs(base["median"]),
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
    metrics = {m["name"]: m for m in
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
                "env": env, "pairs": pairs, "summary": summarize(pairs, metrics)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = args.out / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
