"""setorder benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the line before it is an environment record. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("experiments", "solve-grid", "order-laws")

SETUP_SAMPLES = 6          # before the worker, and as many again after it
CHILD_TIMEOUT_S = 170
IMPORT_TIMEOUT_S = 60
# one load-generating process; pinned math-library threads keep it on one core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


# the child times its own import with the speed probe running and prints
# the probe-handler seconds and the probe times
IMPORT_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import speed
with speed.Speedometer(speed.SETUP_INTERVAL_S) as speedo:
    import setorder.cli
while len(speedo.took) < 3:
    speedo.sample()
print(speedo.handler_s, *speedo.took)
"""


def time_imports(env: dict[str, str], count: int) -> list[float]:
    """Times for fresh interpreters to finish importing setorder.cli, at
    the reference speed (see speed.py): each child's wall time less its
    probe-handler time, times the mean speed of the probes taken during
    its import.

    A blocking wait, with a timer thread to kill a hung child: waiting
    with a timeout polls in steps of up to 50 ms, which rounded these
    0.2 s samples to a few values.
    """
    cmd = [sys.executable, "-c", IMPORT_CHILD, str(HERE)]
    times = []
    for _ in range(count):
        t0 = perf_counter()
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        killer = threading.Timer(IMPORT_TIMEOUT_S, child.kill)
        killer.start()
        try:
            out, _ = child.communicate()
        finally:
            killer.cancel()
        wall = perf_counter() - t0
        if child.returncode != 0:
            raise subprocess.CalledProcessError(child.returncode, cmd)
        handler_s, *took = map(float, out.split())
        times.append((wall - handler_s) * speed.mean_speed(took))
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "setorder").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="setorder benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "setorder" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no setorder sources under {SRC}; "
                         "run from the repository root\n")
        return 2

    env = child_env()
    # the first import writes the bytecode cache, as an installed copy has it
    time_imports(env, 1)
    setup = [] if args.trace else time_imports(env, SETUP_SAMPLES)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: worker exceeded {CHILD_TIMEOUT_S} s\n")
        return 3
    if done.returncode != 0:
        sys.stderr.write(f"perfbench: worker exited with {done.returncode}\n")
        return 3
    out = json.loads(done.stdout.strip().splitlines()[-1])

    record = out["record"]
    if not Path(record["setorder"]).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"perfbench: worker imported {record['setorder']}, "
                         f"not the sources under {SRC}\n")
        return 3
    record.update(
        nproc=os.cpu_count(), git_sha=git_sha(), source_sha256=source_digest(),
        trace=args.trace, seconds=args.seconds,
        setorder_env={k: v for k, v in os.environ.items()
                      if k.startswith("SETORDER_")},
        # the debug cross-check re-decides strict_lt, changing the work done
        debug_crosscheck=os.environ.get("SETORDER_DEBUG", "").strip() not in ("", "0"))
    metrics = out["metrics"]
    if not args.trace:
        # samples on both sides of the worker span more of the machine's
        # slow and fast spells than one burst would
        setup += time_imports(env, SETUP_SAMPLES)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
