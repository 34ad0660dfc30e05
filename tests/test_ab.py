"""The A/B tool's aggregation of paired benchmark runs (benchmarks/ab.py)."""

import importlib.util
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("benchmarks_ab", AB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ab = _load_ab()


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
    got = ab.summarize(pairs, {"run_s": "lower", "ok_frac": "higher",
                               "peak_rss_mb": "lower", "setup_s": "lower"})
    assert got["run_s"] == {
        "better": "lower", "pairs": 3, "wins": 2, "losses": 1,
        "base": {"median": 4.0, "q1": 3.9, "q3": 4.1},
        "tree": {"median": 2.1, "q1": 2.05, "q3": 3.0}}
    assert (got["ok_frac"]["wins"], got["ok_frac"]["losses"]) == (1, 0)
    # a metric missing from one side of a pair is skipped in that pair
    assert got["peak_rss_mb"]["pairs"] == 2
    assert (got["peak_rss_mb"]["wins"], got["peak_rss_mb"]["losses"]) == (0, 1)
    assert "setup_s" not in got
