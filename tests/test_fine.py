"""The fine-grid probe (benchmarks/fine.py)."""

import importlib.util
from pathlib import Path

from setorder import converge

FINE = Path(__file__).resolve().parent.parent / "benchmarks" / "fine.py"


def _load_fine():
    spec = importlib.util.spec_from_file_location("benchmarks_fine", FINE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


fine = _load_fine()


def test_probe_reports_the_shipped_grid(monkeypatch):
    got = fine.probe("pi/400", 8)
    assert set(got) == {"step", "horizon", "points", "seconds",
                        "piecemap_value_calls", "value_rows_calls", "blocks",
                        "peak_rss_mb", "exit", "report_sha256"}
    assert (got["step"], got["horizon"], got["points"]) == ("pi/400", 8, 100)
    # the stability conclusion fails on sop_sin at horizon 8
    assert got["exit"] == 1
    assert got["blocks"] >= 1 and got["value_rows_calls"] >= 1
    assert len(got["report_sha256"]) == 64

    # one-point first blocks: more blocks, the same report
    monkeypatch.setattr(converge, "_BLOCK_ELEMENTS", 1)
    small = fine.probe("pi/400", 8)
    assert small["blocks"] > got["blocks"]
    assert small["report_sha256"] == got["report_sha256"]
    assert small["exit"] == 1
