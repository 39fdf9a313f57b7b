"""``tools/bench_pairs.py``: its summary of paired runs and its refusal of
checkouts at paths of different lengths (no benchmark is run here)."""
import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, work, mem):
    return {"pair": pair, "side": side, "returncode": 0, "provenance": {},
            "result": {"correct": True, "metrics": {
                "work_per_s": {"value": work, "unit": "work/s"},
                "peak_mem_mb": {"value": mem, "unit": "MB"}}}}


def test_pairs_won_follow_each_metric_direction():
    runs = [_run(0, "parent", 10.0, 2.0), _run(0, "change", 15.0, 2.5),
            _run(1, "change", 16.0, 1.5), _run(1, "parent", 12.0, 2.0),
            _run(2, "parent", 11.0, 2.0), _run(2, "change", 9.0, 2.0)]
    got = bench_pairs.summarize(runs, {"work_per_s": "higher", "peak_mem_mb": "lower"})
    work, mem = got["work_per_s"], got["peak_mem_mb"]
    assert work["parent"]["values"] == [10.0, 12.0, 11.0]
    assert work["change"]["values"] == [15.0, 16.0, 9.0]
    assert work["pairs"] == 3 and work["pairs_won"] == 2
    assert work["median_change"] == 15.0 - 11.0
    assert work["parent_spread"] == work["parent"]["q3"] - work["parent"]["q1"]
    assert mem["pairs_won"] == 1            # lower is better; a tie is not a win
    assert mem["unit"] == "MB" and mem["better"] == "lower"


def test_failed_runs_are_left_out_of_the_summary():
    failed = {"pair": 1, "side": "change", "returncode": 1, "result": None,
              "provenance": None}
    runs = [_run(0, "parent", 10.0, 2.0), _run(0, "change", 15.0, 2.5), failed]
    got = bench_pairs.summarize(runs, {"work_per_s": "higher"})
    assert got["work_per_s"]["change"]["values"] == [15.0]


def test_checkouts_at_paths_of_different_lengths_are_refused(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload",
                          "exact-coins", "--pairs", "1", "--label", "x"])
    assert exit_info.value.code == 2
    assert "differ in length" in capsys.readouterr().err
