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
from .bounds import (B_RULES, DEFAULT_A_VALUES, BoundCheckResult, ProofGridConfig,
                     grid_verify_proof_inequalities)
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
        for rule in B_RULES:
            results += grid_verify_proof_inequalities(
                rule, a_values=DEFAULT_A_VALUES, grid_points=ProofGridConfig.grid_points,
                edge_margin=ProofGridConfig.edge_margin)
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
    writers = {"csv": lambda path: write_series_csv(report, path),
               "report_json": lambda path: Path(path).write_text(report_json(report, results)),
               "report_text": lambda path: Path(path).write_text(text)}
    for key, write in writers.items():
        if key in config.outputs:
            try:
                write(config.outputs[key])
            except OSError as exc:
                print(f"config error: output.{key}: cannot write {config.outputs[key]!r}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return EXIT_CONFIG
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# the A-grid flags: each one's ProofGridConfig field
A_GRID_FLAGS = {"--a-min": "a_min", "--a-max": "a_max", "--a-count": "a_count"}


def _flag_error(args) -> str | None:
    """The config error of flags that do not go together, or None: a flag
    the others leave unread, or ``--b-rule fixed`` without its value."""
    grid_flags = [flag for flag, field in A_GRID_FLAGS.items()
                  if getattr(args, field) is not None]
    if args.a_value is not None and grid_flags:
        return f"--a-value: replaces the A grid, so {', '.join(grid_flags)} would go unread"
    if args.a_count == 1 and args.a_max is not None:
        return "--a-count: a grid of 1 point is its --a-min alone, so --a-max would go unread"
    if args.b_rule == "fixed" and args.b_value is None:
        return "--b-value: required by --b-rule fixed"
    if args.b_rule != "fixed" and args.b_value is not None:
        return f"--b-value: read only by --b-rule fixed, got --b-rule {args.b_rule}"
    return None


def _a_values(args) -> np.ndarray:
    """The A grid of ``check-inequalities``: ``--a-value`` alone, or the
    ``ProofGridConfig`` grid of ``--a-min``, ``--a-max`` and ``--a-count``."""
    if args.a_value is not None:
        return np.array([float(args.a_value)])
    return ProofGridConfig(**{field: getattr(args, field) for field in A_GRID_FLAGS.values()
                              if getattr(args, field) is not None}).a_values()


def _cmd_check_inequalities(args) -> int:
    error = _flag_error(args)
    if error is not None:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    if args.b_rule == "fixed":
        rules = [float(args.b_value)]
    elif args.b_rule == "both":
        rules = list(B_RULES)
    else:
        rules = [args.b_rule]
    a_flag = "--a-value" if args.a_value is not None else "/".join(A_GRID_FLAGS)
    flags = {"a_values": a_flag, "a_count": a_flag, "b_rule": "--b-value",
             "grid_points": "--grid", "edge_margin": "--edge-margin"}
    results: list[BoundCheckResult] = []
    try:
        a_values = _a_values(args)
        for rule in rules:
            results += grid_verify_proof_inequalities(
                rule, a_values=a_values, grid_points=args.grid, edge_margin=args.edge_margin)
    except ValueError as exc:
        # grid_verify_proof_inequalities and _a_values name the keyword first
        flag = flags[str(exc).split(" ", 1)[0]]
        print(f"config error: {flag}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
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
    p_chk.add_argument("--a-min", type=float, default=None,
                       help=f"smallest A of the grid (default {ProofGridConfig.a_min})")
    p_chk.add_argument("--a-max", type=float, default=None,
                       help=f"largest A of the grid (default {ProofGridConfig.a_max})")
    p_chk.add_argument("--a-count", type=int, default=None,
                       help=f"points of the A grid (default {ProofGridConfig.a_count}), "
                            f"at most {bound_checks.MAX_A_COUNT}")
    p_chk.add_argument("--grid", type=int, default=ProofGridConfig.grid_points,
                       help="points per axis of the (y, z) grid, at most "
                            f"{math.isqrt(bound_checks.MAX_GRID_CELLS)}")
    p_chk.add_argument("--edge-margin", type=float, default=ProofGridConfig.edge_margin,
                       help="the (y, z) grid spans [margin, 1 - margin], margin in (0, 1/2) "
                            f"(default {ProofGridConfig.edge_margin})")
    p_chk.set_defaults(func=_cmd_check_inequalities)

    p_desc = sub.add_parser("describe-columns", help="document the series CSV columns")
    p_desc.set_defaults(func=lambda args: (print(describe_columns()), EXIT_OK)[1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
