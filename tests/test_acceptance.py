"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single `ACCEPTANCE <k> PASS|FAIL` line (visible with
pytest -s and in the captured output of failures).
"""
import math
import time

import numpy as np
import pytest

from seqpred.bounds import (
    InstantChecks,
    check_convergence_bounds,
    check_instant_bounds,
    check_logloss_identity,
    check_loss_bounds,
    grid_verify_proof_inequalities,
)
from seqpred.cli import run_experiment
from seqpred.distances import distances_batch, ratio_term_batch
from seqpred.engine import exact_evaluate, monte_carlo_evaluate, ratio_trace
from seqpred.losses import (
    AbsoluteLoss,
    AlphaLoss,
    ErrorLoss,
    HellingerLoss,
    LogLoss,
    QuadraticLoss,
    grid_bayes_action,
)
from seqpred.presets import load_preset
from seqpred.reporting import render_series_csv, report_json

EXACT_PRESETS = ("collapse", "three-bernoulli", "markov-binary",
                 "three-symbol", "four-symbol", "deterministic-plateau")
SHORT_PRESETS = ("collapse", "three-bernoulli", "markov-binary",
                 "three-symbol", "four-symbol")  # the n <= 12 bound-check set
BINARY_RECORD_PRESETS = ("collapse", "three-bernoulli", "markov-binary",
                         "deterministic-plateau")


@pytest.fixture(scope="module")
def preset_runs():
    """One exact run (report + check results) per shipped exact preset."""
    runs = {}
    for name in EXACT_PRESETS:
        config = load_preset(name)
        runs[name] = (config, *run_experiment(config))
    return runs


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_entropy_bound_and_telescoping(preset_runs):
    config = load_preset("three-bernoulli")
    assert config.horizon == 12 and 2**config.horizon == 4096
    start = time.perf_counter()
    report = exact_evaluate(config.mixture, config.true_index, config.losses,
                            config.horizon, schemes=config.schemes)
    elapsed = time.perf_counter() - start
    kl = report.total("kl")
    cap = report.log_inv_true_weight
    slack = cap - kl
    telescoping = abs(kl - report.kl_direct)
    ok = (abs(cap - math.log(3)) < 1e-12 and slack > 0
          and telescoping <= 1e-9 and elapsed < 1.0)
    _report(1, ok, f"D_12={kl:.9f} <= ln3 (slack {slack:.4f} > 0), "
                   f"|sum E[d_t] - E[log-ratio]| = {telescoping:.2e} <= 1e-9, "
                   f"runtime {elapsed * 1000:.0f} ms < 1 s")


def test_criterion_02_collapse_tightness(preset_runs):
    _, report, _ = preset_runs["collapse"]
    worst = max(abs(float(v) - math.log(2)) for v in report.cumulative["kl"])
    ok = worst <= 1e-12 and report.horizon >= 12
    _report(2, ok, f"collapse preset: max_n |D_n - ln 2| = {worst:.2e} <= 1e-12 "
                   f"for n = 1..{report.horizon}")


def test_criterion_03_distance_bound_totals(preset_runs):
    worst = math.inf
    sizes = set()
    for name in SHORT_PRESETS:
        _, report, _ = preset_runs[name]
        sizes.add(report.alphabet_size)
        assert report.horizon <= 12
        results = check_convergence_bounds(report)
        wanted = ("square-total<=kl-total", "kl-total<=log-inv-weight",
                  "ratio-sum<=hellinger-total", "hellinger-total<=kl-total",
                  "absdiv-minus-kl<=abs-total", "abs-total<=sqrt-2nkl")
        for r in results:
            if r.bound_id in wanted:
                worst = min(worst, r.slack)
    ok = worst >= -1e-9 and sizes == {2, 3, 4}
    _report(3, ok, f"distance-bound totals on {len(SHORT_PRESETS)} presets "
                   f"(alphabets {sorted(sizes)}): min slack {worst:.3e} >= -1e-9")


def test_criterion_04_regret_bounds_all_bounded_losses(preset_runs):
    worst = math.inf
    named_seen = set()
    checked = 0
    for name in EXACT_PRESETS:
        _, report, _ = preset_runs[name]
        for label, loss in report.losses.items():
            if not loss.bounded:
                continue
            named_seen.add(loss.kind)
            for r in check_loss_bounds(report, label):
                if r.bound_id.startswith(("regret-", "merhav", "informed-optimality",
                                          "no-scheme-much-better")):
                    worst = min(worst, r.slack)
                    checked += 1
    ok = worst >= -1e-9 and {"error", "absolute", "quadratic", "hellinger"} <= named_seen
    _report(4, ok, f"regret bound chains + expectation-form bound: {checked} inequalities "
                   f"over losses {sorted(named_seen)}: min slack {worst:.3e} >= -1e-9")


def test_criterion_05_logloss_identity(preset_runs):
    worst = 0.0
    n_presets = 0
    for name in EXACT_PRESETS:
        _, report, _ = preset_runs[name]
        for label, loss in report.losses.items():
            if loss.bounded:
                continue
            n_presets += 1
            worst = max(worst, check_logloss_identity(report, label).lhs)
    ok = worst <= 1e-9 and n_presets >= 4
    _report(5, ok, f"log-score regret == cumulative KL on {n_presets} presets: "
                   f"max |gap - D_n| = {worst:.2e} <= 1e-9")


def test_criterion_06_instantaneous_chains(preset_runs):
    worst = math.inf
    total_histories = 0
    for name in BINARY_RECORD_PRESETS:
        config, report, _ = preset_runs[name]
        assert report.records is not None and len(report.records) == report.horizon
        # the same walk again, with an observer that also counts the
        # histories each level's nodes stand for
        checks = InstantChecks(report.records.labels)
        steps = []

        def observer(step, weights, multiplicity, values, history):
            steps.append((step, multiplicity.sum()))
            checks(step, weights, multiplicity, values, history)

        exact_evaluate(config.mixture, config.true_index, config.losses, config.horizon,
                       schemes=config.schemes, node_budget=config.node_budget, observer=observer)
        assert [step for step, _ in steps] == list(range(1, report.horizon + 1))
        histories = int(sum(count for _, count in steps))
        if name == "three-bernoulli":
            # full binary tree: 2^(t-1) histories at step t, merged into nodes
            for step, count in steps:
                assert count == 2**(step - 1)
            assert histories == 2**report.horizon - 1
        total_histories += histories
        for label, loss in report.losses.items():
            if not loss.bounded:
                continue
            results = check_instant_bounds(report.records, report, label)
            assert results == check_instant_bounds(checks, report, label)
            for r in results:
                worst = min(worst, r.slack)
    ok = worst >= -1e-9
    _report(6, ok, f"per-history regret chains + aggregated squared-regret budget over "
                   f"{total_histories} histories x losses: min slack {worst:.3e} >= -1e-9")


def test_criterion_07_finite_loss_plateau(preset_runs):
    _, report, _ = preset_runs["deterministic-plateau"]
    cap = 2 * report.log_inv_true_weight
    cum = report.cumulative["mixture_loss[asym]"]
    tail = math.ceil(report.horizon / 4)
    increment = float(cum[-1] - cum[-tail - 1])
    ok = bool((cum <= cap + 1e-9).all()) and increment < 1e-12
    _report(7, ok, f"deterministic truth: L_n <= 2 ln(1/w) = {cap:.4f} for all n <= "
                   f"{report.horizon}, final-quarter increment {increment:.2e} < 1e-12")


def test_criterion_08_counterexample_ratio_growth():
    config = load_preset("counterexample")
    start = time.perf_counter()
    trace = ratio_trace(config.mixture, config.true_index, [0] * 1000, symbol=1)
    elapsed = time.perf_counter() - start
    slope = (math.log(trace[999]) - math.log(trace[99])) / (math.log(1000) - math.log(100))
    ok = 0.95 <= slope <= 1.05 and elapsed < 1.0
    _report(8, ok, f"off-symbol conditional ratio on 0^n: log-log slope {slope:.4f} "
                   f"in [0.95, 1.05], runtime {elapsed * 1000:.0f} ms < 1 s")


def test_criterion_09_proof_inequality_grids():
    start = time.perf_counter()
    results = []
    for rule in ("1/A+1", "A/4+1/A"):
        results += grid_verify_proof_inequalities(rule)  # 41 x 201 x 201 defaults
    minima = [r.rhs for r in results]
    both_pass = all(r.passed and r.rhs >= -1e-12 for r in results)
    fail = grid_verify_proof_inequalities(0.01, a_values=[1.0], grid_points=201)[0]
    elapsed = time.perf_counter() - start
    ok = both_pass and (not fail.passed) and fail.rhs < -0.3 and "z=0.5" in fail.location \
        and elapsed < 30.0
    _report(9, ok, f"grid minima {['%.2e' % m for m in minima]} >= -1e-12 for both B rules; "
                   f"B=0.01 fails at {fail.location} (min {fail.rhs:.4f}); "
                   f"runtime {elapsed:.1f} s < 30 s")


def test_criterion_10_monte_carlo_cross_validation():
    config = load_preset("three-bernoulli")
    exact = exact_evaluate(config.mixture, config.true_index, config.losses,
                           config.horizon, schemes=config.schemes)
    mc = monte_carlo_evaluate(config.mixture, config.true_index, config.losses,
                              config.horizon, samples=100_000, seed=31337,
                              schemes=config.schemes)
    points = agreeing = 0
    for key in mc.per_step:
        se = mc.se_per_step[key]
        if not np.isfinite(exact.per_step[key]).all():
            continue  # unbounded-loss series under a constant scheme
        for t in range(config.horizon):
            points += 1
            agreeing += abs(mc.per_step[key][t] - exact.per_step[key][t]) <= 3 * se[t] + 1e-12
    frac = agreeing / points
    ok = frac >= 0.95
    _report(10, ok, f"monte carlo (10^5 paths) vs exact: {agreeing}/{points} series points "
                    f"within 3 standard errors ({100 * frac:.1f}% >= 95%)")


def test_criterion_11_property_suite():
    # (a) distance inequality chain on 10^4 random vector pairs, N in 2..6
    rng = np.random.default_rng(2024)
    worst = math.inf
    for n in (2, 3, 4, 5, 6):
        y = rng.random((2000, n)) + 1e-6
        z = rng.random((2000, n)) + 1e-6
        y /= y.sum(axis=1, keepdims=True)
        z /= z.sum(axis=1, keepdims=True)
        d = distances_batch(y, z)
        r = ratio_term_batch(y, z)
        worst = min(worst,
                    float((d["kl"] - d["square"]).min()),
                    float((d["kl"] - d["hellinger"]).min()),
                    float((d["absolute"] - (d["abs_divergence"] - d["kl"])).min()),
                    float((np.sqrt(2 * np.maximum(d["kl"], 0)) - d["absolute"]).min()),
                    float((d["hellinger"] - r).min()))
    chain_ok = worst >= -1e-12

    # (b) closed-form Bayes actions against grid minimization
    losses = [ErrorLoss(), AbsoluteLoss(), QuadraticLoss(), HellingerLoss(),
              LogLoss(), AlphaLoss(0.5), AlphaLoss(3.0)]
    action_gap = 0.0
    for loss in losses:
        for rho1 in np.linspace(0.03, 0.97, 21):
            posterior = [1 - rho1, rho1]
            action_gap = max(action_gap, abs(loss.bayes_action(posterior)
                                             - grid_bayes_action(loss, posterior)))
    grid_ok = action_gap <= 2e-5

    # (c) determinism: identical config + seed -> identical bytes
    config = load_preset("three-bernoulli")
    r1, b1 = run_experiment(config)
    r2, b2 = run_experiment(config)
    det_ok = (render_series_csv(r1) == render_series_csv(r2)
              and report_json(r1, b1) == report_json(r2, b2))
    mc1 = monte_carlo_evaluate(config.mixture, 0, config.losses, 6, samples=500, seed=5)
    mc2 = monte_carlo_evaluate(config.mixture, 0, config.losses, 6, samples=500, seed=5)
    det_ok = det_ok and render_series_csv(mc1) == render_series_csv(mc2)

    ok = chain_ok and grid_ok and det_ok
    _report(11, ok, f"inequality chain on 10^4 pairs (min slack {worst:.2e} >= -1e-12); "
                    f"closed-form vs grid actions (max gap {action_gap:.2e} <= 2e-5); "
                    f"byte-identical reruns ({det_ok})")
