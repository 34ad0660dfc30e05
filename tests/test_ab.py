"""The A/B tool's aggregation of paired benchmark runs (benchmarks/ab.py)."""

import importlib.util
import json
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("benchmarks_ab", AB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ab = _load_ab()


def _spec(better, bound=0.1):
    return {"name": "m", "unit": "s", "better": better, "bound": bound}


def test_quartiles_inclusive():
    assert ab.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_summarize_counts_wins_by_direction():
    pairs = [{"base": {"run_s": 4.0, "ok_frac": 1.0, "peak_rss_mb": 50.0},
              "tree": {"run_s": 2.0, "ok_frac": 1.0, "peak_rss_mb": 51.0}},
             {"base": {"run_s": 3.8, "ok_frac": 0.5, "peak_rss_mb": 50.0},
              "tree": {"run_s": 3.9, "ok_frac": 1.0, "peak_rss_mb": 50.0}},
             {"base": {"run_s": 4.2, "ok_frac": 1.0},
              "tree": {"run_s": 2.1, "ok_frac": 1.0}}]
    got = ab.summarize(pairs, {"run_s": _spec("lower"), "ok_frac": _spec("higher"),
                               "peak_rss_mb": _spec("lower"), "setup_s": _spec("lower")})
    assert got["run_s"] == {
        "better": "lower", "pairs": 3, "wins": 2, "losses": 1,
        "base": {"median": 4.0, "q1": 3.9, "q3": 4.1},
        "tree": {"median": 2.1, "q1": 2.05, "q3": 3.0},
        "resolved": False, "regressed": False}
    assert (got["ok_frac"]["wins"], got["ok_frac"]["losses"]) == (1, 0)
    # a metric missing from one side of a pair is skipped in that pair
    assert got["peak_rss_mb"]["pairs"] == 2
    assert (got["peak_rss_mb"]["wins"], got["peak_rss_mb"]["losses"]) == (0, 1)
    assert "setup_s" not in got


def _pairs(base, tree, name="run_s"):
    return [{"base": {name: b}, "tree": {name: t}} for b, t in zip(base, tree)]


def _verdicts(base, tree, better="lower", bound=0.1):
    got = ab.summarize(_pairs(base, tree), {"run_s": _spec(better, bound)})["run_s"]
    return got["resolved"], got["regressed"]


def test_resolved_needs_nine_in_ten_wins_and_a_gap_past_the_base_iqr():
    base = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    # base IQR 10.675 - 10.225 = 0.45; a gap of 1.0 with 10 of 10 wins
    assert _verdicts(base, [b - 1.0 for b in base]) == (True, False)
    # 9 of 10 wins still resolves
    assert _verdicts(base, [b - 1.0 for b in base[:9]] + [11.0]) == (True, False)
    # 8 of 10 does not, whatever the gap
    assert _verdicts(base, [b - 3.0 for b in base[:8]] + [11.0, 11.0]) == (False, False)
    # every pair won, but the median gap 0.4 is inside the base IQR
    assert _verdicts(base, [b - 0.4 for b in base]) == (False, False)
    # higher is better: the same gap the other way round
    assert _verdicts(base, [b + 1.0 for b in base], "higher") == (True, False)
    assert _verdicts(base, [b - 1.0 for b in base], "higher") == (False, False)


def test_regressed_is_a_median_worse_than_the_bound_allows():
    base = [10.0] * 10
    # bound 0.1 of the base median 10.0 allows a worse median up to 11.0
    assert _verdicts(base, [11.0] * 10) == (False, False)
    assert _verdicts(base, [11.01] * 10) == (False, True)
    assert _verdicts(base, [8.99] * 10, "higher") == (False, True)
    assert _verdicts(base, [9.0] * 10, "higher") == (False, False)
    assert _verdicts(base, [10.5] * 10, bound=0.01) == (False, True)
    # ok_frac with both sides at 1.0 neither resolves nor regresses
    assert _verdicts([1.0] * 10, [1.0] * 10, "higher", 0.01) == (False, False)


def test_summaries_read_the_bounds_of_benchmark_json():
    spec = {m["name"]: m for m in json.loads(
        (AB.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    pairs = [{"base": {"run_s": 1.0, "ok_frac": 1.0},
              "tree": {"run_s": 1.2, "ok_frac": 1.0}}] * 10
    got = ab.summarize(pairs, spec)
    assert spec["run_s"]["bound"] == 0.24
    assert not got["run_s"]["regressed"] and not got["ok_frac"]["regressed"]
    pairs = [{"base": {"run_s": 1.0}, "tree": {"run_s": 1.25}}] * 10
    assert ab.summarize(pairs, spec)["run_s"]["regressed"]
