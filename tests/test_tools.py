"""The scripts under ``tools/``: ``bench_pairs.py``'s summary of paired runs,
its refusal of checkouts at paths of different lengths and the problem lines
it keeps (run on fake checkouts; no benchmark is run here),
``report_diff.py``'s diff of two runs, the runs of
``output_digests.py`` and ``mc_slack_sweep.py`` at a tiny size."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from seqpred import config, presets
from seqpred.bounds import EXACT_TOL, BoundCheckResult
from seqpred.engine import BLOCK_ROWS, exact_evaluate
from seqpred.losses import MatrixLoss
from seqpred.measures import MarkovMeasure
from seqpred.schemes import MajorityVoteScheme


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool("bench_pairs")
mc_slack_sweep = _load_tool("mc_slack_sweep")
output_digests = _load_tool("output_digests")
report_diff = _load_tool("report_diff")


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


def test_a_failed_items_problem_lines_are_kept_and_printed(tmp_path, capsys):
    """A run that reads ``correct: false`` keeps the ``problem`` lines that
    name its failed item in its record, and prints them under its line."""
    problem = "problem (x1): trace covers 0.946 of the traced wall time"
    for side in ("a", "b"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            "import json\n"
            f"print('workload exact-coins')\nprint({problem!r})\nprint('provenance {{}}')\n"
            "print(json.dumps({'correct': False, 'attempted': 2, 'failed': 1, 'metrics': "
            "{'work_per_s': {'value': 1.0, 'unit': 'work/s'}}}))\n")
    (tmp_path / "b" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "work_per_s", "better": "higher"}], "per_layer": []}')
    code = bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload",
                             "exact-coins", "--pairs", "1", "--label", "fake",
                             "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.count(f"  {problem}\n") == 2
    doc = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert [run["problems"] for run in doc["runs"]] == [[problem], [problem]]
    assert doc["runs"][0]["result"]["correct"] is False


def _report_run(bounds, totals, kl_direct, csv):
    fields = {"lhs": 0.5, "rhs": 1.0, "pass": True, "mode": "exact", "location": ""}
    return {"report": {"bounds": [{**fields, "bound_id": b, "tolerance": tol} for b, tol in bounds],
                       "totals": totals, "kl_direct": kl_direct},
            "csv": csv}


def test_diff_run_names_each_changed_bound_total_and_csv_line():
    old = _report_run([("kl", 1e-9), ("old-only", 1e-9)], {"kl": 2.0, "error": 1.0}, 0.5,
                      "t,kl\n1,0.25\n2,0.5\n")
    new = _report_run([("kl", 2e-9), ("new-only", 1e-9)], {"kl": 3.0, "error": 1.0}, 0.5,
                      "t,kl\n1,0.25\n2,0.75\n")
    assert report_diff.diff_run(old, new) == [
        "bound kl tolerance: 1e-09 -> 2e-09  (+1 relative)",
        "bound old-only: only old",
        "bound new-only: only new",
        "total kl: 2.0 -> 3.0  (+0.5 relative)",
        "csv line 3: '2,0.5' -> '2,0.75'",
    ]
    assert report_diff.diff_run(old, old) == []


def test_digest_runs_end_with_a_lone_row_under_wide_matrix_losses():
    runs = dict(output_digests._runs(presets))
    assert list(runs)[-1] == "lone-row"
    cfg = config.parse_config(runs["lone-row"])
    assert (cfg.engine, cfg.horizon, cfg.alphabet_size) == ("exact", 1, 3)
    assert sorted(loss.matrix.shape for loss in cfg.losses.values()
                  if isinstance(loss, MatrixLoss)) == [(3, 4), (3, 5)]


def test_digest_runs_draw_past_a_zero_probability_symbol():
    runs = dict(output_digests._runs(presets))
    cfg = config.parse_config(runs["zero-symbol"])
    assert (cfg.engine, cfg.alphabet_size) == ("monte-carlo", 4)
    truth = cfg.mixture.components[cfg.true_index]
    # symbol 1 never, symbol 3 not from every state: zeros inside and at the end
    assert (truth.transitions[:, 1] == 0.0).all() and truth.initial[1] == 0.0
    assert (truth.transitions[:, 3] == 0.0).any() and (truth.transitions[:, 3] > 0.0).any()


def test_digest_runs_hold_higher_order_chains_on_both_engines():
    # the byte-identity evidence must see a context of two and of three symbols
    found = {}
    for label, raw in output_digests._runs(presets):
        cfg = config.parse_config(raw)
        orders = {c.order for c in cfg.mixture.components if isinstance(c, MarkovMeasure)}
        if (cfg.alphabet_size == 3 and {2, 3} <= orders
                and any(isinstance(s, MajorityVoteScheme) for s in cfg.schemes)):
            found.setdefault(cfg.engine, label)
    assert set(found) == {"exact", "monte-carlo"}


def test_digest_runs_hold_a_level_wider_than_a_block_on_both_engines():
    """``evaluate`` takes ``BLOCK_ROWS`` rows at a time: the digests must see a
    level of ``BLOCK_ROWS`` + 1 nodes under a matrix loss of four outcomes,
    and a Monte Carlo step over more paths than that."""
    runs = dict(output_digests._runs(presets))
    cfg = config.parse_config(runs["wide"])
    assert cfg.engine == "exact"
    assert [loss.n_outcomes for loss in cfg.losses.values()
            if isinstance(loss, MatrixLoss)] == [4]
    widths = []
    exact_evaluate(cfg.mixture, cfg.true_index, cfg.losses, cfg.horizon, schemes=cfg.schemes,
                   observer=lambda step, weights, *rest: widths.append(weights.size))
    assert widths[-1] == BLOCK_ROWS + 1 and max(widths[:-1]) < BLOCK_ROWS
    cfg = config.parse_config(runs["wide monte-carlo"])
    assert cfg.engine == "monte-carlo" and cfg.samples == BLOCK_ROWS + 1


def test_slack_sweep_passes_at_a_tiny_size(capsys):
    argv = ["--seeds", "1", "--horizon", "4", "--samples", "100", "--mc-long-seeds"]
    assert mc_slack_sweep.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): line.split()[2:4] for line in lines[1:-1]}
    # the two checks against an expectation are the only statistical ones
    assert {kind for kind, mode in rows if mode == "statistical"} == {
        "kl-total<=log-inv-weight", "kl-telescoping-identity"}
    assert ("logloss-identity", "exact") in rows and ("loss-plateau", "exact") in rows
    # every preset ran once: a convergence kind counts one check per run
    assert rows["square-total<=kl-total", "exact"] == [str(len(presets.PRESET_NAMES)), "0"]
    assert lines[-1] == "exact-mode kinds with a failed check: none"


def test_slack_sweep_keeps_each_kinds_worst_check():
    results = [("a", [BoundCheckResult("regret-nonneg[error]", 1.0, 1.0),
                      BoundCheckResult("regret-nonneg[log]", 1.0, 0.5)]),
               ("b", [BoundCheckResult("regret-nonneg[error]", 1.0, float("nan")),
                      BoundCheckResult("regret-nonneg[log]", 1.0, 0.0)])]
    kinds = mc_slack_sweep.sweep(results)
    row = kinds["regret-nonneg", "exact"]
    assert (row["checks"], row["fails"]) == (4, 3)
    slack, tol, run = row["worst"]
    assert slack != slack and (tol, run) == (EXACT_TOL, "b")  # a NaN slack is the worst
