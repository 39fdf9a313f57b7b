"""Command-line experiment runner.

    seqpred run <config.json>        run an experiment, write CSV + reports
    seqpred check-inequalities ...   grid-verify the proof inequalities
    seqpred describe-columns         document the series CSV columns

Exit codes: 0 all requested checks pass, 2 at least one check fails,
1 configuration or resource error.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bound_checks
from .bounds import B_RULES, BoundCheckResult, grid_verify_proof_inequalities
from .config import ConfigError, ExperimentConfig, load_config
from .engine import BudgetExceededError, TotalsReport, exact_evaluate, monte_carlo_evaluate
from .reporting import describe_columns, report_json, report_text, write_series_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2


def run_experiment(config: ExperimentConfig) -> tuple[TotalsReport, list[BoundCheckResult]]:
    """Execute the configured engine and checks; no file output."""
    instant = None
    if "instant-bounds" in config.checks:
        instant = bound_checks.InstantChecks(
            [label for label, loss in config.losses.items() if loss.bounded])
    if config.engine == "exact":
        report = exact_evaluate(config.mixture, config.true_index, config.losses,
                                config.horizon, schemes=config.schemes,
                                node_budget=config.node_budget, observer=instant)
        report.records = instant
    else:
        report = monte_carlo_evaluate(config.mixture, config.true_index, config.losses,
                                      config.horizon, samples=config.samples,
                                      seed=config.seed, schemes=config.schemes)

    results: list[BoundCheckResult] = []
    if "convergence" in config.checks:
        results += bound_checks.check_convergence_bounds(
            report, deviation_epsilon=config.deviation_epsilon)
    for label, loss in config.losses.items():
        if "loss-bounds" in config.checks and loss.bounded:
            results += bound_checks.check_loss_bounds(report, label)
        if "logloss-identity" in config.checks and not loss.bounded:
            results.append(bound_checks.check_logloss_identity(report, label))
        if "instant-bounds" in config.checks and loss.bounded:
            results += bound_checks.check_instant_bounds(report.records, report, label)
    if "instant-bounds" in config.checks:
        results += bound_checks.check_instant_distance_bounds(report.records)
    if "proof-inequalities" in config.checks:
        g = config.proof_grid
        for rule in g.b_rules:
            results += grid_verify_proof_inequalities(
                rule, a_values=g.a_values(), grid_points=g.grid_points,
                edge_margin=g.edge_margin)
    return report, results


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report, results = run_experiment(config)
    except BudgetExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = report_text(report, results)
    sys.stdout.write(text)
    if "csv" in config.outputs:
        write_series_csv(report, config.outputs["csv"])
    if "report_json" in config.outputs:
        Path(config.outputs["report_json"]).write_text(report_json(report, results))
    if "report_text" in config.outputs:
        Path(config.outputs["report_text"]).write_text(text)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _a_values(args) -> np.ndarray:
    """The A grid of ``check-inequalities``.  The ends are checked before
    ``np.geomspace`` sees them, which warns on a negative or infinite end."""
    if args.a_value is not None:
        return np.array([float(args.a_value)])
    for end in (args.a_min, args.a_max):
        if not 0.0 < end < math.inf:
            raise ValueError(f"a_values must be positive and finite, got {end}")
    return np.geomspace(args.a_min, args.a_max, args.a_count)


def _cmd_check_inequalities(args) -> int:
    if args.b_rule == "fixed":
        if args.b_value is None:
            print("--b-rule fixed requires --b-value", file=sys.stderr)
            return EXIT_CONFIG
        rules = [float(args.b_value)]
    elif args.b_rule == "both":
        rules = list(B_RULES)
    else:
        rules = [args.b_rule]
    a_flag = "--a-value" if args.a_value is not None else "--a-min/--a-max/--a-count"
    flags = {"a_values": a_flag, "grid_points": "--grid", "edge_margin": "--edge-margin"}
    results: list[BoundCheckResult] = []
    try:
        a_values = _a_values(args)
        for rule in rules:
            results += grid_verify_proof_inequalities(
                rule, a_values=a_values, grid_points=args.grid, edge_margin=args.edge_margin)
    except ValueError as exc:
        # grid_verify_proof_inequalities and _a_values name the keyword first;
        # np.geomspace (a negative count) names none, and only A flags reach it
        flag = flags.get(str(exc).split(" ", 1)[0], a_flag)
        print(f"config error: {flag}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seqpred", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON-configured experiment")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.set_defaults(func=_cmd_run)

    p_chk = sub.add_parser("check-inequalities", help="grid-verify the proof inequalities")
    p_chk.add_argument("--b-rule", default="both", choices=["both", *B_RULES, "fixed"],
                       help="B(A) rule; 'fixed' uses --b-value as a constant")
    p_chk.add_argument("--b-value", type=float, default=None, help="constant B for --b-rule fixed")
    p_chk.add_argument("--a-value", type=float, default=None, help="check a single A instead of the A grid")
    p_chk.add_argument("--a-min", type=float, default=0.1)
    p_chk.add_argument("--a-max", type=float, default=10.0)
    p_chk.add_argument("--a-count", type=int, default=41)
    p_chk.add_argument("--grid", type=int, default=201, help="points per axis of the (y, z) grid")
    p_chk.add_argument("--edge-margin", type=float, default=1e-4)
    p_chk.set_defaults(func=_cmd_check_inequalities)

    p_desc = sub.add_parser("describe-columns", help="document the series CSV columns")
    p_desc.set_defaults(func=lambda args: (print(describe_columns()), EXIT_OK)[1])

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
