import argparse
import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from seqpred import reporting
from seqpred.cli import build_parser, main, run_experiment
from seqpred.config import SCHEMA, ConfigError, load_config, parse_config, validate
from seqpred.engine import exact_evaluate
from seqpred.losses import NAMED_LOSSES, ErrorLoss, LogLoss
from seqpred.measures import BernoulliMeasure
from seqpred.mixture import MixtureModel
from seqpred.presets import PRESET_NAMES, load_preset, load_preset_dict, preset_path
from seqpred.reporting import csv_columns, describe_columns, render_series_csv, report_json
from seqpred.schemes import ConstantScheme


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_collapse_preset_passes(self, in_tmp, capsys):
        code = run_cli("run", str(preset_path("collapse")))
        out = capsys.readouterr().out
        assert code == 0
        assert "bounds PASS" in out
        assert (in_tmp / "collapse-series.csv").exists()
        assert (in_tmp / "collapse-report.json").exists()

    def test_output_paths_resolve_against_the_working_directory(self, tmp_path, monkeypatch):
        cfg = load_preset_dict("collapse")
        cfg["output"] = {"csv": "out/series.csv", "report_json": "report.json"}
        config_dir, work_dir = tmp_path / "configs", tmp_path / "work"
        config_dir.mkdir()
        (work_dir / "out").mkdir(parents=True)
        (config_dir / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(work_dir)
        assert run_cli("run", str(config_dir / "cfg.json")) == 0
        assert (work_dir / "out" / "series.csv").exists()
        assert (work_dir / "report.json").exists()
        assert sorted(p.name for p in config_dir.iterdir()) == ["cfg.json"]

    def test_identical_runs_are_byte_identical(self, in_tmp):
        run_cli("run", str(preset_path("three-bernoulli")))
        first_csv = (in_tmp / "three-bernoulli-series.csv").read_bytes()
        first_json = (in_tmp / "three-bernoulli-report.json").read_bytes()
        run_cli("run", str(preset_path("three-bernoulli")))
        assert (in_tmp / "three-bernoulli-series.csv").read_bytes() == first_csv
        assert (in_tmp / "three-bernoulli-report.json").read_bytes() == first_json

    def test_report_json_is_parseable_and_all_pass(self, in_tmp):
        run_cli("run", str(preset_path("collapse")))
        payload = json.loads((in_tmp / "collapse-report.json").read_text())
        assert payload["all_pass"] is True
        assert payload["engine"] == "exact"
        assert {b["bound_id"] for b in payload["bounds"]} >= {"kl-total<=log-inv-weight"}

    @pytest.mark.parametrize("key, path", [("csv", "missing/series.csv"),
                                           ("report_json", "."),
                                           ("report_text", "missing/report.txt")])
    def test_unwritable_output_exits_1_naming_the_field(self, in_tmp, capsys, key, path):
        cfg = load_preset_dict("collapse")
        cfg["output"] = {key: path}
        (in_tmp / "cfg.json").write_text(json.dumps(cfg))
        code = run_cli("run", "cfg.json")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: output.{key}: cannot write")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_bad_weights_exit_1_with_field_name(self, in_tmp, tmp_path, capsys):
        cfg = load_preset_dict("collapse")
        cfg["mixture"]["weights"] = [0.45, 0.45]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        code = run_cli("run", str(p))
        err = capsys.readouterr().err
        assert code == 1
        assert "mixture.weights" in err

    @pytest.mark.parametrize("component, field", [
        ({"kind": "markov", "transitions": [[math.nan, math.nan], [0.1, 0.9]],
          "initial": [0.5, 0.5]}, "transitions"),
        ({"kind": "markov", "transitions": [[0.7, 0.3], [math.inf, 0.9]],
          "initial": [0.5, 0.5]}, "transitions"),
        ({"kind": "explicit-table", "table": {"": [0.5, 0.5], "0": [math.nan, 1.0],
                                              "1": [0.5, 0.5]}}, "table"),
    ], ids=["markov-nan-row", "markov-inf-row", "table-nan-row"])
    def test_non_finite_probability_exit_1(self, in_tmp, tmp_path, capsys, component, field):
        # json.dumps writes NaN and Infinity, and json.loads reads them back
        cfg = load_preset_dict("markov-binary")
        cfg["mixture"]["components"][0] = component
        cfg["horizon"] = 2
        p = tmp_path / "non-finite.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: mixture.components[0].{field}: ")
        assert "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("component, field", [
        ({"kind": "explicit-table", "table": {"": [0.5, 0.5], "0": [1.0], "1": [0.5, 0.5]}},
         "table"),
        ({"kind": "markov", "transitions": [[0.7, 0.3], [0.1, 0.9]],
          "initial": [0.2, 0.3, 0.5]}, "initial"),
    ], ids=["table-short-row", "markov-long-initial"])
    def test_vector_of_the_wrong_length_exit_1(self, in_tmp, tmp_path, capsys, component,
                                               field):
        cfg = load_preset_dict("markov-binary")
        cfg["mixture"]["components"][0] = component
        cfg["horizon"] = 2
        p = tmp_path / "wrong-length.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: mixture.components[0].{field}: ")
        assert "alphabet has 2 symbols" in err
        assert "Traceback" not in err

    def test_unknown_field_exit_1(self, in_tmp, tmp_path, capsys):
        cfg = load_preset_dict("collapse")
        cfg["horizont"] = 5
        del cfg["horizon"]
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(cfg))
        code = run_cli("run", str(p))
        err = capsys.readouterr().err
        assert code == 1
        assert "horizont" in err

    @pytest.mark.parametrize("label", [[1], {"x": 1}, 5], ids=["list", "object", "int"])
    def test_non_string_loss_label_exit_1(self, in_tmp, tmp_path, capsys, label):
        cfg = load_preset_dict("collapse")
        cfg["losses"][0]["label"] = label
        p = tmp_path / "label.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        assert "losses[0].label" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{}, {"a_count": 2, "grid_points": 5},
                                      {"b_rules": ["1/A+1", 5]}], ids=["empty", "grid", "b-rules"])
    def test_proof_grid_is_an_unknown_field_exit_1(self, in_tmp, tmp_path, capsys, grid):
        # a custom grid runs only through check-inequalities' flags
        cfg = load_preset_dict("collapse")
        cfg["proof_grid"] = grid
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: config: unknown field(s): proof_grid\n"
        assert captured.out == ""

    def test_negative_monte_carlo_seed_exit_1(self, in_tmp, tmp_path, capsys):
        # numpy's generator takes no negative seed: the schema turns it away
        cfg = load_preset_dict("counterexample")
        cfg["engine"]["seed"] = -1
        p = tmp_path / "seed.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: engine.seed: must be >= 0\n"
        assert captured.out == ""

    def test_budget_exhaustion_exit_1_names_fallback(self, in_tmp, tmp_path, capsys):
        cfg = load_preset_dict("three-bernoulli")
        cfg["node_budget"] = 32
        p = tmp_path / "tiny-budget.json"
        p.write_text(json.dumps(cfg))
        code = run_cli("run", str(p))
        err = capsys.readouterr().err
        assert code == 1
        assert "monte_carlo_evaluate" in err

    def test_majority_vote_without_an_action_per_symbol_exit_1(self, in_tmp, tmp_path, capsys):
        # three symbols, two action columns: majority vote can name symbol 2
        cfg = load_preset_dict("three-symbol")
        cfg["losses"] = [{"kind": "matrix", "matrix": [[0, 1], [1, 0], [0.5, 0.5]],
                          "label": "narrow"}]
        cfg["schemes"] = [{"kind": "majority-vote"}]
        cfg["output"] = {}
        p = tmp_path / "narrow.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: schemes[0]: ")
        assert "(loss 'narrow')" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_failed_check_exit_2(self, in_tmp, tmp_path, capsys):
        # horizon 3 leaves a climbing loss series inside the final quarter,
        # so the plateau surrogate legitimately fails
        cfg = load_preset_dict("deterministic-plateau")
        cfg["horizon"] = 3
        cfg["output"] = {}
        p = tmp_path / "short.json"
        p.write_text(json.dumps(cfg))
        code = run_cli("run", str(p))
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out


class TestCheckInequalities:
    def test_every_option_has_help_text(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = [a for a in sub.choices["check-inequalities"]._actions if a.option_strings]
        assert "--edge-margin" in {flag for a in options for flag in a.option_strings}
        assert [a.option_strings for a in options if not a.help] == []

    def test_edge_margin_help_names_its_default_and_range(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("check-inequalities", "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert "margin in (0, 1/2) (default 0.0001)" in text

    def test_default_rules_pass(self, capsys):
        code = run_cli("check-inequalities", "--grid", "31")
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4  # f1 and f2 for both shipped rules

    def test_coarse_smoke_run_is_fast(self, capsys):
        import time
        start = time.perf_counter()
        assert run_cli("check-inequalities", "--grid", "11") == 0
        assert time.perf_counter() - start < 1.0

    def test_subthreshold_b_fails_with_location(self, capsys):
        code = run_cli("check-inequalities", "--b-rule", "fixed", "--b-value", "0.01",
                       "--a-value", "1", "--grid", "101")
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out and "z=0.5" in out

    def test_fixed_rule_requires_value(self, capsys):
        assert run_cli("check-inequalities", "--b-rule", "fixed") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --b-value: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["--a-count", "0"], "--a-min/--a-max/--a-count"),
        (["--edge-margin", "0"], "--edge-margin"),
        (["--grid", "1"], "--grid"),
        (["--b-rule", "fixed", "--b-value", "-5", "--a-value", "1"], "--b-value"),
        (["--b-rule", "fixed", "--b-value", "0", "--a-value", "1"], "--b-value"),
        (["--b-rule", "fixed", "--b-value", "nan", "--a-value", "1"], "--b-value"),
        (["--edge-margin", "1e-17"], "--edge-margin"),  # 1 - 1e-17 rounds to 1
    ])
    def test_invalid_grid_exits_1_naming_the_flag(self, capsys, argv, flag):
        assert run_cli("check-inequalities", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {flag}: ")
        assert captured.out == ""

    # RuntimeWarnings are errors in this suite, so a warning from np.geomspace
    # or from f1/f2 fails these tests before any output is compared.
    @pytest.mark.parametrize("argv, bad", [
        (["--a-min", "-1"], "-1.0"),
        (["--a-max", "inf"], "inf"),
        (["--a-min", "0"], "0.0"),
    ])
    def test_bad_a_end_prints_only_its_config_error(self, capsys, argv, bad):
        assert run_cli("check-inequalities", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: --a-min/--a-max/--a-count: "
                                f"a_values must be positive and finite, got {bad}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_a_count_below_one_prints_only_its_config_error(self, capsys, count):
        assert run_cli("check-inequalities", "--a-count", count) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: --a-min/--a-max/--a-count: "
                                f"a_count must be >= 1, got {count}\n")
        assert captured.out == ""

    def test_inverted_a_range_exits_1_naming_the_a_flags(self, capsys):
        # --a-min 20 with the default --a-max 10 would run the grid from 20 down to 10
        assert run_cli("check-inequalities", "--a-min", "20") == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: --a-min/--a-max/--a-count: a_values need "
                                "a_max >= a_min, got a_min=20.0 and a_max=10.0\n")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, unread", [
        (["--a-value", "1", "--a-count", "-1", "--a-min", "-5"], "--a-min, --a-count"),
        (["--a-value", "1", "--a-max", "20"], "--a-max"),
        (["--a-min", "0.5", "--a-value", "2"], "--a-min"),
    ])
    def test_a_value_with_grid_flags_names_the_unread_flags(self, capsys, argv, unread):
        assert run_cli("check-inequalities", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: --a-value: replaces the A grid, so {unread} "
                                "would go unread\n")
        assert captured.out == ""

    @pytest.mark.parametrize("rule", [None, "both", "1/A+1", "A/4+1/A"])
    def test_b_value_without_fixed_rule_is_a_config_error(self, capsys, rule):
        argv = ["--b-value", "3"] + ([] if rule is None else ["--b-rule", rule])
        assert run_cli("check-inequalities", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: --b-value: read only by --b-rule fixed, "
                                f"got --b-rule {rule or 'both'}\n")
        assert captured.out == ""

    def test_oversized_grid_is_refused_before_any_allocation(self, capsys):
        import time
        start = time.perf_counter()
        assert run_cli("check-inequalities", "--grid", "100001") == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == ("config error: --grid: grid_points must be <= 2048 "
                                "(at most 4194304 (y, z) cells), got 100001\n")
        assert captured.out == ""

    def test_oversized_a_count_is_refused_before_any_allocation(self, capsys, monkeypatch):
        import tracemalloc

        def refuse(*args, **kwargs):
            raise AssertionError("np.geomspace would build the A grid")

        # without the limit this grid would take ~8 GB
        monkeypatch.setattr(np, "geomspace", refuse)
        tracemalloc.start()
        try:
            assert run_cli("check-inequalities", "--a-count", "1000000000") == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        captured = capsys.readouterr()
        assert captured.err == ("config error: --a-min/--a-max/--a-count: a_count must be "
                                "<= 65536, got 1000000000\n")
        assert captured.out == ""

    def test_the_a_limit_holds_for_a_given_a_grid(self):
        from seqpred.bounds import MAX_A_COUNT, ProofGridConfig, grid_verify_proof_inequalities
        assert len(ProofGridConfig(a_count=MAX_A_COUNT).a_values()) == MAX_A_COUNT
        for count in (0, MAX_A_COUNT + 1):
            with pytest.raises(ValueError, match=f"^a_values must hold 1 to {MAX_A_COUNT} "
                                                 f"values, got {count}$"):
                grid_verify_proof_inequalities("1/A+1", a_values=[1.0] * count)

    @pytest.mark.parametrize("argv", [["--a-count", "1", "--a-max", "5"],
                                      ["--a-min", "1", "--a-max", "5", "--a-count", "1"]])
    def test_a_count_of_one_leaves_a_max_unread(self, capsys, argv):
        # np.geomspace(a_min, a_max, 1) is [a_min]
        assert run_cli("check-inequalities", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: --a-count: a grid of 1 point is its --a-min "
                                "alone, so --a-max would go unread\n")
        assert captured.out == ""

    def test_a_count_of_one_runs_its_a_min(self, capsys):
        assert run_cli("check-inequalities", "--a-min", "2", "--a-count", "1",
                       "--b-rule", "1/A+1") == 0
        assert capsys.readouterr().out.count("at A=2 ") == 2

    def test_the_limit_is_the_first_side_past_the_cell_limit(self):
        from seqpred.bounds import MAX_GRID_CELLS, grid_verify_proof_inequalities
        side = math.isqrt(MAX_GRID_CELLS)
        assert side**2 == MAX_GRID_CELLS
        with pytest.raises(ValueError, match=f"grid_points must be <= {side} "):
            grid_verify_proof_inequalities("1/A+1", a_values=[1.0], grid_points=side + 1)

    def test_infinite_b_prints_only_its_nan_fail_lines(self, capsys):
        code = run_cli("check-inequalities", "--b-rule", "fixed", "--b-value", "inf",
                       "--a-count", "3", "--grid", "11")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out == (
            "FAIL  proof-ineq-f1[B=inf]: lhs=0 rhs=nan slack=nan tol=1e-12  "
            "at A=0.1 y=0.0001 z=0.0001 (z<=1/2)\n"
            "FAIL  proof-ineq-f2[B=inf]: lhs=0 rhs=nan slack=nan tol=1e-12  "
            "at A=0.1 y=0.5 z=0.5 (z>=1/2)\n")


class TestDescribeColumns:
    def test_exit_zero(self, capsys):
        assert run_cli("describe-columns") == 0
        assert "E_dt" in capsys.readouterr().out

    def test_every_emitted_column_is_documented(self, in_tmp):
        run_cli("run", str(preset_path("three-bernoulli")))
        header = (in_tmp / "three-bernoulli-series.csv").read_text().splitlines()[0]
        doc = describe_columns()
        documented = set(re.findall(r"^  (\S+)", doc, flags=re.M))
        for col in header.split(","):
            template = re.sub(r"\[[^|\]]+\|[^\]]+\]", "[<scheme>|<loss>]", col)
            template = re.sub(r"\[[^\]<]+\]", "[<loss>]", template)
            assert template in documented, f"column {col} undocumented"


class TestCsvShape:
    def test_rows_and_summary(self, in_tmp):
        run_cli("run", str(preset_path("collapse")))
        lines = (in_tmp / "collapse-series.csv").read_text().splitlines()
        horizon = load_preset_dict("collapse")["horizon"]
        assert len(lines) == 1 + horizon + 1  # header + one per step + summary
        assert lines[-1].startswith("total,")
        # doubles round-trip through the 17-significant-digit format
        header = lines[0].split(",")
        row = lines[1].split(",")
        kl_col = header.index("E_dt")
        assert float(row[kl_col]) == float(format(float(row[kl_col]), ".17g"))

    def test_columns_render_as_cell_by_cell_formatting(self):
        report = exact_evaluate(
            MixtureModel([BernoulliMeasure(0.3), BernoulliMeasure(0.6)], [0.5, 0.5]), 0,
            {"log": LogLoss(), "error": ErrorLoss()}, 5, schemes=[ConstantScheme(0)])
        report.per_step["kl"][1:4] = [-0.0, math.nan, -math.inf]
        report.cumulative["mixture_loss[log]"][2:] = math.inf     # inf - inf is nan
        report.cumulative["informed_loss[log]"][3:] = math.inf
        report.cumulative["absolute"][0] = 1e-300

        def fmt(v):
            return ("inf" if v > 0 else "-inf") if math.isinf(v) else format(v, ".17g")

        def row(t, summary):
            per, cum = report.per_step, report.cumulative
            cells = ["total" if summary else str(t + 1)]
            cells += ["" if summary else fmt(float(per[key][t]))
                      for key in ("absolute", "square", "hellinger", "kl", "abs_divergence")]
            cells += [fmt(float(cum[key][t]))
                      for key in ("kl", "absolute", "square", "hellinger", "abs_divergence")]
            for label in report.loss_labels:
                lx = float(cum[f"mixture_loss[{label}]"][t])
                lm = float(cum[f"informed_loss[{label}]"][t])
                cells += [fmt(lx), fmt(lm), fmt(lx - lm)]
                cells += [fmt(float(cum[f"scheme_loss[{s}|{label}]"][t]))
                          for s in report.scheme_labels]
            return ",".join(cells)

        want = [",".join(csv_columns(report)), *(row(t, False) for t in range(5)), row(4, True)]
        got = render_series_csv(report)
        assert got == "\n".join(want) + "\n"
        lines = [line.split(",") for line in got.splitlines()]
        assert [cells[lines[0].index("E_dt")] for cells in lines[2:5]] == ["-0", "nan", "-inf"]
        assert lines[-1][lines[0].index("gap[log]")] == "nan"

    def test_summary_matches_final_cumulative(self, in_tmp):
        run_cli("run", str(preset_path("collapse")))
        lines = (in_tmp / "collapse-series.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = lines[-2].split(",")
        total = lines[-1].split(",")
        d_cum = header.index("D_cum")
        assert total[d_cum] == last[d_cum]


def json_values(hypothesis):
    """Nested dicts and lists of ints (past 2**63 too), floats (inf and NaN
    among them), bools, None and strings with quotes, backslashes, line
    breaks, braces, commas and non-ASCII; lists of records (non-empty dicts
    of scalars) at every depth, and empty containers."""
    st = hypothesis.strategies
    text = st.text(st.sampled_from('ab"\\\n\r\t {},:é☃\U0001f600\x00'), max_size=8)
    scalars = (st.none() | st.booleans() | text
               | st.integers(-2**70, 2**70) | st.sampled_from([2**63, -2**63 - 1, 10**30])
               | st.floats() | st.sampled_from([-0.0, 5e-324, 1e300, 0.1]))
    records = st.lists(st.dictionaries(text, scalars, min_size=1, max_size=4), max_size=4)
    return st.recursive(scalars | records, lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=5)
        | records), max_leaves=24)


class TestReportJson:
    """``reporting._dumps`` writes the bytes of ``json.dumps(value, indent=2,
    sort_keys=True, allow_nan=False)`` through json's C encoder."""

    def test_writes_the_bytes_of_indented_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.example([{"a": 1, "b": "},\n      {"}, {"c": None}])
        @hypothesis.example({"bounds": [{"lhs": 0.5}, {"lhs": 1.0}], "all_pass": True, "x": {}})
        @hypothesis.given(json_values(hypothesis))
        def check(value):
            try:
                want = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            except ValueError:                 # inf or NaN: raised as json.dumps raises it
                with pytest.raises(ValueError):
                    reporting._dumps(value)
            else:
                assert reporting._dumps(value) == want

        check()

    @pytest.mark.parametrize("value", [math.inf, [1, -math.inf], {"a": {"b": math.nan}},
                                       [{"x": 1.0}, {"x": math.inf}], {"a": [], "b": math.nan}])
    def test_inf_and_nan_raise_value_error(self, value):
        with pytest.raises(ValueError):
            reporting._dumps(value)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_parse(self, name):
        cfg = load_preset(name)
        assert cfg.horizon >= 1
        assert cfg.mixture.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_satisfy_the_json_schema(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((preset_path(name).parent / "config.schema.json").read_text())
        jsonschema.validate(load_preset_dict(name), schema)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset_path("nope")


class TestConfigValidation:
    def base(self):
        return load_preset_dict("collapse")

    def test_true_index_range(self):
        cfg = self.base()
        cfg["mixture"]["true_component_index"] = 5
        with pytest.raises(ConfigError, match="true_component_index"):
            parse_config(cfg)

    def test_weight_count_names_the_weights(self):
        cfg = self.base()
        cfg["mixture"]["weights"] = cfg["mixture"]["weights"] + [0.25]
        with pytest.raises(ConfigError, match="one weight per component") as exc:
            parse_config(cfg)
        assert exc.value.field_path == "mixture.weights"

    def test_weight_sum_prints_a_plain_float(self):
        # not ``np.float64(1.5)``, which numpy 2 prints as the sum's repr
        cfg = load_preset_dict("three-bernoulli")
        cfg["mixture"]["weights"] = [0.5, 0.5, 0.5]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert str(exc.value) == ("mixture.weights: prior weights must sum to 1 within 1e-12, "
                                  "got 1.5")

    def test_engine_kind(self):
        cfg = self.base()
        cfg["engine"] = {"kind": "quantum"}
        with pytest.raises(ConfigError, match="engine.kind"):
            parse_config(cfg)

    def test_monte_carlo_needs_samples_and_seed(self):
        cfg = self.base()
        cfg["engine"] = {"kind": "monte-carlo"}
        with pytest.raises(ConfigError, match="samples"):
            parse_config(cfg)

    def test_instant_bounds_require_exact_engine(self):
        cfg = self.base()
        cfg["engine"] = {"kind": "monte-carlo", "samples": 500, "seed": 1}
        cfg["checks"] = ["instant-bounds"]
        with pytest.raises(ConfigError, match="exact"):
            parse_config(cfg)

    def test_named_loss_requires_binary_alphabet(self):
        cfg = load_preset_dict("three-symbol")
        cfg["losses"].append({"kind": "quadratic"})
        with pytest.raises(ConfigError, match="alphabet_size 2"):
            parse_config(cfg)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"alphabet_size": 2,,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    def test_fractional_constant_action_with_matrix_loss(self):
        cfg = load_preset_dict("three-symbol")
        cfg["schemes"] = [{"kind": "majority-vote"}, {"kind": "constant", "action": 1.5}]
        with pytest.raises(ConfigError, match=re.escape("schemes[1].action")):
            parse_config(cfg)
        cfg["schemes"][1]["action"] = 1.0
        parsed = parse_config(cfg)
        loss = next(iter(parsed.losses.values()))
        action = loss.action(parsed.schemes[1].action)
        assert action == 1 and isinstance(action, int)

    def test_unknown_check_name(self):
        cfg = self.base()
        cfg["checks"] = ["convergence", "vibes"]
        with pytest.raises(ConfigError, match="vibes"):
            parse_config(cfg)

    def test_explicit_table_component_roundtrip(self):
        cfg = self.base()
        cfg["horizon"] = 2
        cfg["mixture"]["components"][0] = {
            "kind": "explicit-table",
            "table": {"": [0.5, 0.5], "0": [0.2, 0.8], "1": [0.9, 0.1]},
        }
        parsed = parse_config(cfg)
        assert parsed.mixture.components[0].horizon == 2

    def test_explicit_table_horizon_must_cover_run(self):
        cfg = self.base()
        cfg["mixture"]["components"][0] = {
            "kind": "explicit-table",
            "table": {"": [0.5, 0.5], "0": [0.2, 0.8], "1": [0.9, 0.1]},
        }
        with pytest.raises(ConfigError, match="table horizon"):
            parse_config(cfg)  # run horizon 12 > table horizon 2


def edited_preset(name, where, value):
    """Preset ``name`` with the field at key path ``where`` set to ``value``."""
    cfg = load_preset_dict(name)
    parent = cfg
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return cfg


class TestConfigNarrowings:
    """Configs outside the schema that the hand-written parser used to accept
    (or crash on); each now exits 1 naming its field."""

    @pytest.mark.parametrize("preset, where, value, field", [
        ("deterministic-plateau", ("mixture", "components", 0, "pattern"), [5],
         "mixture.components[0].pattern"),
        ("deterministic-plateau", ("mixture", "components", 0, "pattern"), [1.5],
         "mixture.components[0].pattern[0]"),
        ("deterministic-plateau", ("mixture", "components", 0, "pattern"), ["1"],
         "mixture.components[0].pattern[0]"),
        ("collapse", ("schemes",), 5, "schemes"),
        ("collapse", ("schemes",), {}, "schemes"),
        ("collapse", ("schemes",), "", "schemes"),
        ("collapse", ("checks",), None, "checks"),
        ("markov-binary", ("mixture", "components", 0, "initial"), [True, False],
         "mixture.components[0].initial[0]"),
        ("three-symbol", ("losses", 0, "matrix"), [[False, True, True], [1, 0, 1], [1, 1, 0]],
         "losses[0].matrix[0][0]"),
    ], ids=["pattern-out-of-alphabet", "pattern-float", "pattern-string", "schemes-int",
            "schemes-object", "schemes-string", "checks-null", "initial-bool", "matrix-bool"])
    def test_exit_1_naming_the_field(self, in_tmp, tmp_path, capsys, preset, where, value, field):
        cfg = edited_preset(preset, where, value)
        cfg["output"] = {}
        p = tmp_path / "narrowed.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")


HANDLED_KEYWORDS = {"type", "properties", "required", "additionalProperties", "const", "enum",
                    "minimum", "maximum", "exclusiveMinimum", "minLength", "minItems", "items",
                    "$ref", "oneOf"}
ANNOTATIONS = {"$schema", "title", "description", "$defs"}


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
              *schema.get("oneOf", ())]
    if "items" in schema:
        nested.append(schema["items"])
    for sub in nested:
        yield from subschemas(sub)


class TestSchema:
    def test_is_a_valid_draft_2020_12_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_every_keyword_is_validated_or_an_annotation(self):
        for schema in subschemas(SCHEMA):
            assert set(schema) <= HANDLED_KEYWORDS | ANNOTATIONS, schema
            # the forms validate() reads: closed objects, oneOf chosen by kind
            assert schema.get("additionalProperties", False) is False
            for branch in schema.get("oneOf", ()):
                assert "kind" in branch["required"]
                assert {"const", "enum"} & set(branch["properties"]["kind"])

    @pytest.mark.parametrize("preset, where, value, field", [
        ("collapse", ("alphabet_size",), 2.0, "alphabet_size"),
        ("collapse", ("mixture", "components", 0, "theta"), math.nan,
         "mixture.components[0].theta"),
        ("collapse", ("mixture", "weights", 0), math.inf, "mixture.weights[0]"),
        ("collapse", ("mixture", "weights", 0), 10**400, "mixture.weights[0]"),
    ], ids=["integral-float", "nan", "inf", "int-beyond-float"])
    def test_stricter_than_json_schema_only_on_ints_and_finiteness(self, preset, where, value,
                                                                   field):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = edited_preset(preset, where, value)
        assert jsonschema.Draft202012Validator(SCHEMA).is_valid(cfg)
        with pytest.raises(ConfigError) as exc:
            validate(cfg)
        assert exc.value.field_path == field

    @pytest.mark.parametrize("where, value, field", [
        (("deviation_epsilon",), 1e-10, "deviation_epsilon"),
        (("output", "csv"), "", "output.csv"),
    ], ids=["deviation-epsilon", "empty-output"])
    def test_schema_states_the_parsers_ranges(self, where, value, field):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = edited_preset("collapse", where, value)
        assert not jsonschema.Draft202012Validator(SCHEMA).is_valid(cfg)
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field_path == field

    def test_names_match_the_code(self):
        named = [b["properties"]["kind"]["enum"] for b in SCHEMA["$defs"]["loss"]["oneOf"]
                 if "enum" in b["properties"]["kind"]]
        assert named == [list(NAMED_LOSSES)]


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"
FUZZ_CONFIGS = ([load_preset_dict(name) for name in PRESET_NAMES]
                + [json.loads(p.read_text()) for p in sorted(BENCH_CONFIGS.glob("*.json"))])
ADDED_KEYS = ("extra", "kind", "label", "order", "seed", "samples", "schemes", "checks",
              "a_max", "csv")
VALUES = (None, True, False, -1, 0, 1, 2, 3, 0.0, 0.5, 1.0, 2.0, 1.5, -0.5, 1e-13, "", "x",
          "exact", "error", "1", [], [0], [0.5, 0.5], ["x"], {}, {"kind": "exact"})


def nodes(value, path="config"):
    """(dotted path, value) of ``value`` and of everything nested in it."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, key if path == "config" else f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, f"{path}[{i}]")


def mutations(hypothesis):
    """A shipped config with one field deleted, added or retyped, and the
    paths a ConfigError may name: every node of the result, plus the parent
    of a deleted field."""
    st = hypothesis.strategies

    @st.composite
    def mutated(draw):
        cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_CONFIGS)))
        containers = [(path, node) for path, node in nodes(cfg)
                      if isinstance(node, (dict, list)) and node]
        path, node = draw(st.sampled_from(containers))
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        op = draw(st.sampled_from(["delete", "add", "retype"]))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        if op == "delete":
            del node[key]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(ADDED_KEYS))] = value
        elif op == "add":
            node.append(value)
        else:
            node[key] = value
        return cfg, {p for p, _ in nodes(cfg)} | {path}

    return mutated()


class TestMutationFuzz:
    def test_parse_raises_only_config_errors_naming_a_field(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(mutations(hypothesis))
        def check(case):
            cfg, paths = case
            try:
                parse_config(cfg)
            except ConfigError as exc:
                assert exc.field_path in paths, str(exc)

        check()

    def test_validate_agrees_with_jsonschema(self):
        hypothesis = pytest.importorskip("hypothesis")
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(SCHEMA)

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(mutations(hypothesis))
        def check(case):
            cfg, _ = case
            try:
                validate(cfg)
            except ConfigError as exc:
                if reference.is_valid(cfg):
                    # only the two stricter rules: integers are ints, numbers finite
                    node = dict(nodes(cfg))[exc.field_path]
                    assert isinstance(node, float), str(exc)
                    assert node.is_integer() or not math.isfinite(node), str(exc)
            else:
                assert reference.is_valid(cfg), next(reference.iter_errors(cfg)).message

        check()


TINY = {
    "alphabet_size": 2,
    "horizon": 3,
    "mixture": {"components": [{"kind": "bernoulli", "theta": 0.2}, {"kind": "bernoulli", "theta": 0.7}],
                "weights": [0.5, 0.5], "true_component_index": 0},
    "losses": [{"kind": "error"}, {"kind": "log"}],
    "schemes": [{"kind": "majority-vote"}],
    "engine": {"kind": "exact"},
}
CHECK_NAMES = SCHEMA["properties"]["checks"]["items"]["enum"]
BOUND_FIELDS = {"bound_id", "lhs", "rhs", "slack", "tolerance", "pass", "mode", "location"}


class TestChecks:
    @pytest.mark.parametrize("engine, defaults", [
        ({"kind": "exact"}, ["convergence", "loss-bounds", "logloss-identity", "instant-bounds"]),
        ({"kind": "monte-carlo", "samples": 100, "seed": 1},
         ["convergence", "loss-bounds", "logloss-identity"]),
    ])
    def test_defaults_per_engine(self, engine, defaults):
        # proof-inequalities runs only when a config lists it
        assert parse_config({**TINY, "engine": engine}).checks == defaults

    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_every_schema_name_makes_results(self, check):
        # a name the schema admits but the run skips would certify nothing
        _, results = run_experiment(parse_config({**TINY, "checks": [check]}))
        assert results

    def test_a_run_certifies_the_default_check_inequalities_grid(self, capsys):
        # one default grid: the config has no grid of its own
        _, results = run_experiment(parse_config({**TINY, "checks": ["proof-inequalities"]}))
        assert run_cli("check-inequalities") == 0
        assert [r.line() for r in results] == capsys.readouterr().out.splitlines()

    def test_report_bounds_carry_exactly_the_result_fields(self):
        report, results = run_experiment(parse_config({**TINY, "checks": CHECK_NAMES}))
        doc = report_json(report, results)
        assert doc == json.dumps(json.loads(doc), indent=2, sort_keys=True) + "\n"
        bounds = json.loads(doc)["bounds"]
        assert len(bounds) == len(results)
        for bound in bounds:
            assert set(bound) == BOUND_FIELDS, bound["bound_id"]
            assert isinstance(bound["pass"], bool), bound["bound_id"]

    def test_an_underflowed_mixture_reports_its_failures_without_warnings(self, recwarn):
        # xi(1|0) underflows to 0 while the truth gives it 1e-320: KL is inf
        markov = lambda first_row: {"kind": "markov", "initial": [0.5, 0.5],
                                    "transitions": [first_row, [0.5, 0.5]]}
        raw = {**TINY, "mixture": {"components": [markov([1 - 1e-320, 1e-320]), markov([1.0, 0.0])],
                                   "weights": [1e-4, 1 - 1e-4], "true_component_index": 0}}
        report, results = run_experiment(parse_config(raw))
        doc = report_json(report, results)
        assert doc == json.dumps(json.loads(doc), indent=2, sort_keys=True) + "\n"
        bounds = {b["bound_id"]: b for b in json.loads(doc)["bounds"]}
        assert bounds["regret-bound-form-chain[error]"]["lhs"] == "inf"
        assert bounds["regret-bound-form-chain[error]"]["slack"] == "nan"
        assert not bounds["instant-absdiv-minus-kl<=abs"]["pass"]
        assert not recwarn.list
