import json
import re

import pytest

from seqpred.cli import main
from seqpred.config import ConfigError, load_config, parse_config
from seqpred.presets import PRESET_NAMES, load_preset, load_preset_dict, preset_path
from seqpred.reporting import describe_columns


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

    def test_bad_weights_exit_1_with_field_name(self, in_tmp, tmp_path, capsys):
        cfg = load_preset_dict("collapse")
        cfg["mixture"]["weights"] = [0.45, 0.45]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        code = run_cli("run", str(p))
        err = capsys.readouterr().err
        assert code == 1
        assert "mixture.weights" in err

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

    @pytest.mark.parametrize("rule", [[1], {"x": 1}, 5], ids=["list", "object", "int"])
    def test_non_string_b_rule_exit_1(self, in_tmp, tmp_path, capsys, rule):
        cfg = load_preset_dict("collapse")
        cfg["proof_grid"] = {"b_rules": ["1/A+1", rule]}
        p = tmp_path / "rule.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 1
        assert "proof_grid.b_rules[1]" in capsys.readouterr().err

    def test_budget_exhaustion_exit_1_names_fallback(self, in_tmp, tmp_path, capsys):
        cfg = load_preset_dict("three-bernoulli")
        cfg["node_budget"] = 32
        p = tmp_path / "tiny-budget.json"
        p.write_text(json.dumps(cfg))
        code = run_cli("run", str(p))
        err = capsys.readouterr().err
        assert code == 1
        assert "monte_carlo_evaluate" in err

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

    @pytest.mark.parametrize("argv, flag", [
        (["--a-count", "0"], "--a-min/--a-max/--a-count"),
        (["--edge-margin", "0"], "--edge-margin"),
        (["--grid", "1"], "--grid"),
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

    def test_summary_matches_final_cumulative(self, in_tmp):
        run_cli("run", str(preset_path("collapse")))
        lines = (in_tmp / "collapse-series.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = lines[-2].split(",")
        total = lines[-1].split(",")
        d_cum = header.index("D_cum")
        assert total[d_cum] == last[d_cum]


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
        assert parsed.schemes[1].action_for(loss) == 1

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
