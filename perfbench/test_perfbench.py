"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py

They run small job subsets, so they finish in well under a minute.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import sleep

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import Pass, count_failures, run_passes, tail  # noqa: E402


def _cheap_jobs():
    exp = {j.name: j for j in workloads.experiment_jobs()}
    return ([exp["repro geff-example"], exp["repro gamma-cos"]]
            + workloads.solve_grid_jobs(gen.solve_grid_inputs(5))[:1]
            + workloads.order_law_jobs(gen.order_law_inputs(5))[::6])


def test_inputs_depend_only_on_the_seed():
    assert gen.solve_grid_inputs(3) == gen.solve_grid_inputs(3)
    assert gen.solve_grid_inputs(3) != gen.solve_grid_inputs(4)
    a, b = gen.order_law_inputs(3), gen.order_law_inputs(3)
    assert all(np.array_equal(x["rows"], y["rows"]) for x, y in zip(a, b))
    for inst in a:
        if inst["class"] == "general":
            assert (np.array(inst["rows"]) @ np.ones(inst["dim"]) > 0).all()


def test_traced_and_untraced_passes_agree_and_self_time_fits_the_pass():
    jobs = _cheap_jobs()
    plain = Pass(jobs)
    tracer = spans.Tracer()
    [traced] = run_passes(jobs, 0.0, min_passes=1, tracer=tracer, first=plain)
    assert not any(traced.diverged)
    assert count_failures(jobs, [plain, traced]) == 0
    summary = traced.layers
    self_total = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < self_total <= traced.wall
    for layer in spans.LAYERS:
        assert summary[f"{layer}.self_s"] <= summary[f"{layer}.s"] + 1e-12
    assert summary["cli.main.calls"] == 2
    # wrappers are gone once the pass ends
    assert Pass(jobs).outputs == plain.outputs
    assert tracer.summary() == summary


def test_an_answer_that_changes_between_passes_is_a_failure():
    answers = iter(range(10))
    job = workloads.Job("drifting", "main", lambda: next(answers), lambda got: True)
    passes = run_passes([job], 0.0, min_passes=3)
    assert [p.diverged for p in passes] == [[False], [True], [True]]
    assert count_failures([job], passes) == 2


def test_per_layer_counts_repeat_exactly():
    jobs = _cheap_jobs()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        Pass(jobs, tracer)
        counts.append({k: v for k, v in tracer.summary().items()
                       if not k.endswith((".s", "_s"))})
    assert counts[0] == counts[1]


def _spans_under(tracer, layer: str, ancestor: str) -> int:
    """Spans of ``layer`` with a span of ``ancestor`` somewhere above them."""
    lid, aid = spans.LAYERS.index(layer), spans.LAYERS.index(ancestor)
    hits = 0
    for i, own in enumerate(tracer.layer):
        if own != lid:
            continue
        p = tracer.parent[i]
        while p >= 0 and tracer.layer[p] != aid:
            p = tracer.parent[p]
        hits += p >= 0
    return hits


def test_rel_corners_calls_on_solve_grid():
    docs = gen.solve_grid_inputs(2)
    jobs = workloads.solve_grid_jobs(docs)
    tracer = spans.Tracer()
    p = Pass(jobs, tracer)
    sizes = [got["points"] for got, _ in p.outputs]
    assert sizes == [side * side for _, side in gen.SOLVE_GRID_SLOTS]
    summary = tracer.summary()
    pairs = 3 * sum(n * n for n in sizes)
    # one more call per grid value comes from the properness check in
    # Problem.__init__; the rest are the relation sweep
    assert _spans_under(tracer, "kernels.rel_corners",
                        "solve.relation_matrices") == pairs
    assert summary["kernels.rel_corners.calls"] == pairs + sum(sizes)
    assert summary["solve.relation_matrices.distinct"] == len(docs)
    assert summary["cone.from_halfspaces.calls"] == 2


def test_corrupted_expectations_count_as_failures():
    right = workloads.levelset_expected()
    name = "levelset-conv sop_sin --at 50"
    bad = {name: (right[0], right[1].replace("Holds", "Fails", 1))}
    corrupted = {j.name: j for j in workloads.experiment_jobs(bad)}[name]
    honest = {j.name: j for j in workloads.experiment_jobs()}[name]
    # feed the stored report itself as the output, without running the job
    for job, failures in ((honest, 0), (corrupted, 1)):
        fake = workloads.Job(name, "side", lambda: right, job.check)
        assert count_failures([fake], [Pass([fake])]) == failures

    wrong_golden = {"repro geff-example": (0, "geff-example: OK\n")}
    geff = {j.name: j for j in workloads.experiment_jobs(wrong_golden)}
    assert count_failures([geff["repro geff-example"]],
                          [Pass([geff["repro geff-example"]])]) == 1

    job = workloads.solve_grid_jobs(gen.solve_grid_inputs(5))[0]
    got = job.run()
    assert job.check(got)
    indices, witness = got["eff"]["Relaxed"]
    dropped = dict(got["eff"], Relaxed=(indices[1:], witness))
    assert not job.check(dict(got, eff=dropped))
    i = next(iter(witness))
    moved = dict(got["eff"], Relaxed=(indices, {**witness, i: i}))
    assert not job.check(dict(got, eff=moved))

    law = workloads.order_law_jobs(gen.order_law_inputs(5))[0]
    got = law.run()
    assert law.check(got)
    flipped = dict(got["answers"])
    flipped[0, 0] = (False,) + flipped[0, 0][1:]
    assert not law.check(dict(got, answers=flipped))
    assert not law.check(dict(got, margin=0.5))


def _busy(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def test_reference_times_follow_the_work_and_leave_out_the_probes():
    jobs = [workloads.Job(f"busy-{k}", "main", lambda k=k: _busy(k * 300_000),
                          lambda got: True) for k in (1, 2)]
    with speed.Speedometer() as speedo:
        passes = run_passes(jobs, 0.0, min_passes=3, speedo=speedo)
        sleep(speed.WINDOW_S)
    assert speedo.took and speedo.handler_s > 0
    for p in passes:
        p.reference_times(speedo)
        # probe-handler time is taken out of each job's time
        assert all(t < b - a for t, (a, b) in zip(p.job_time, p.job_span))
    ratios = sorted(p.job_ref[1] / p.job_ref[0] for p in passes)
    assert 1.5 < ratios[1] < 2.7      # median pass: twice the work
    try:
        speedo.scale(-10.0, -9.0)     # long before any probe
    except RuntimeError:
        pass
    else:
        raise AssertionError("a job with no probe near it was scaled")


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert tail([float(i) for i in range(20)]) is None
    samples = [float(i) for i in range(25)]
    assert tail(samples) == 14.0
    assert sum(s > tail(samples) for s in samples) == 10


def test_refuses_a_tree_without_sources():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "order-laws",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_setup_samples_come_back_from_the_child():
    samples = run.time_imports(run.child_env(), 2)
    assert len(samples) == 2 and all(0 < t < 30 for t in samples)
