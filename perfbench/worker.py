"""One workload in one fresh process: warm up, time passes, check outputs.

Started by run.py with the thread environment already pinned; prints one
JSON object on its last stdout line. Run directly only for debugging:

    PYTHONPATH=src python3 perfbench/worker.py --workload order-laws \
        --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter, sleep

import numpy as np

import setorder
from setorder._kernels import BACKEND

import spans
import speed
import workloads

MIN_PASSES = 3       # the experiments pass is long; three gives its jobs a median of 3


def tail(samples: list[float]) -> float | None:
    """Highest percentile with at least ten samples above it, if that lies
    above the median (21 samples or more); None otherwise."""
    ordered = sorted(samples)
    return ordered[len(ordered) - 11] if len(ordered) > 20 else None


class Pass:
    """Timings and outputs of one pass over the jobs; with a tracer, also
    the pass's per-layer summary."""

    def __init__(self, jobs, tracer=None, speedo=None):
        self.job_time: list[float] = []   # wall time less probe-handler time
        self.job_span: list[tuple[float, float]] = []
        self.job_ref: list[float] = []    # set by reference_times()
        self.outputs: list[tuple[object, bool]] = []   # (value, raised)
        self.layers: dict[str, float] = {}
        self.diverged = [False] * len(jobs)   # set against a reference pass
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        try:
            for job in jobs:
                handled = speedo.handler_s if speedo else 0.0
                tj = perf_counter()
                try:
                    self.outputs.append((job.run(), False))
                except Exception as err:   # a failed job is counted, not fatal
                    traceback.print_exc()
                    self.outputs.append((repr(err), True))
                t1 = perf_counter()
                if speedo:
                    handled = speedo.handler_s - handled
                self.job_time.append(t1 - tj - handled)
                self.job_span.append((tj, t1))
        finally:
            self.wall = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
                self.layers = tracer.summary()

    def reference_times(self, speedo: speed.Speedometer) -> None:
        """Each job's time at the reference speed (see speed.py); called
        once the probes after the pass's last job have been taken."""
        self.job_ref = [t * speedo.scale(*span)
                        for t, span in zip(self.job_time, self.job_span)]


def run_passes(jobs, seconds: float, min_passes: int = MIN_PASSES, tracer=None,
               first: Pass | None = None, speedo=None) -> list[Pass]:
    """Whole passes until the next one would end past ``seconds``.

    Only the reference pass (``first``, or else the first pass run here)
    keeps its outputs; every other pass records which jobs answered
    differently from it and drops the rest, so memory does not grow with
    the number of passes a run makes.
    """
    passes = []
    t0 = perf_counter()
    while True:
        p = Pass(jobs, tracer, speedo)
        if first is None:
            first = p
        else:
            p.diverged = [got != ref for got, ref in zip(p.outputs, first.outputs)]
            p.outputs = []
        passes.append(p)
        spent = perf_counter() - t0
        if len(passes) >= min_passes and spent + p.wall > seconds:
            return passes


def count_failures(jobs, passes: list[Pass]) -> int:
    """Jobs that raised or failed their check in the reference pass
    (``passes[0]``), plus, in every later pass, jobs that failed there or
    answered differently from it (which also catches traced vs untraced
    differences)."""
    bad = [raised or not job.check(value)
           for job, (value, raised) in zip(jobs, passes[0].outputs)]
    return sum(b or d for p in passes for b, d in zip(bad, p.diverged))


def job_medians(passes) -> list[float]:
    """Each job's median reference time over the passes."""
    return [statistics.median(t) for t in zip(*(p.job_ref for p in passes))]


def role_mean(jobs, times: list[float], role: str) -> float:
    mine = [t for job, t in zip(jobs, times) if job.role == role]
    return sum(mine) / len(mine)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    jobs = workloads.build(workload, seed)
    jobs[0].run()       # warm-up: lazy imports and first-call costs, untimed
    record = {"workload": workload, "seed": seed, "backend": BACKEND,
              "python": platform.python_version(), "numpy": np.__version__,
              "setorder": setorder.__file__}
    if not traced:
        with speed.Speedometer() as speedo:
            passes = run_passes(jobs, seconds, speedo=speedo)
            sleep(speed.WINDOW_S)      # probes after the last job
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for p in passes:
            p.reference_times(speedo)
        per_job = job_medians(passes)
        ref_pass = [sum(p.job_ref) for p in passes]
        metrics = {
            "run_s": (statistics.median(ref_pass), "s"),
            "main_job_s": (role_mean(jobs, per_job, "main"), "s"),
            "side_job_s": (role_mean(jobs, per_job, "side"), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        record.update(pass_tail_s=tail(ref_pass), ref_pass_s=ref_pass,
                      ref_job_s=per_job,
                      wall_pass_median_s=statistics.median(p.wall for p in passes),
                      probes=len(speedo.took),
                      probe_median_s=statistics.median(speedo.took),
                      probe_handler_s=speedo.handler_s)
    else:
        plain = run_passes(jobs, seconds / 2, min_passes=1)
        traced_passes = run_passes(jobs, seconds / 2, min_passes=1,
                                   tracer=spans.Tracer(), first=plain[0])
        metrics = {}
        for key in spans.metric_names():
            value = statistics.fmean(p.layers[key] for p in traced_passes)
            if key.endswith(("_s", ".s")):
                unit = "s"
            elif key.endswith(".hit_ratio"):
                unit = "ratio"
            else:   # counts are the same in every pass
                unit, value = "count", round(value)
            metrics[key] = (value, unit)
        untraced_s = statistics.median(p.wall for p in plain)
        traced_s = statistics.median(p.wall for p in traced_passes)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        record.update(untraced_run_s=untraced_s, traced_run_s=traced_s)
        passes = plain + traced_passes
    attempted = len(jobs) * len(passes)
    failed = count_failures(jobs, passes)
    if not traced:
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac")
    record.update(passes=len(passes), jobs_per_pass=len(jobs),
                  pass_s=[p.wall for p in passes])
    return {"record": record, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
