"""The benchmark's workloads: configs, work units and reference totals.

Each workload is a committed seqpred config under ``configs/``.  The exact
workloads are seed-free; the benchmark seed reaches only ``mc-long``'s
``engine.seed``.  ``tiny`` shrinks every workload to horizon 6 and 100 paths
for the smoke test.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCES = HERE / "reference"

NAMES = ("exact-coins", "exact-records", "mc-long")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2026
TINY = {"horizon": 6, "samples": 100}

# Same value as seqpred.bounds.EXACT_TOL at the commit that recorded the
# references; kept here so a change to the program cannot loosen the gate.
EXACT_TOL = 1e-9
MC_SE_FACTOR = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    raw: dict          # the config object, seed applied, before validation
    work: int          # work units of one certification
    work_unit: str
    tiny: bool

    def reference_path(self) -> Path:
        return REFERENCES / f"{self.name}{'-tiny' if self.tiny else ''}.json"


def work_units(raw: dict) -> tuple[int, str]:
    """Work fixed by the problem, not by the engine that solves it.

    Exact: positive-probability history nodes at levels 0..n.  Every
    conditional of these configs is positive, so that is the full N-ary
    tree.  Monte Carlo: sampled paths times horizon.
    """
    n, size = raw["horizon"], raw["alphabet_size"]
    if raw["engine"]["kind"] == "exact":
        return sum(size**k for k in range(n + 1)), "history nodes"
    return raw["engine"]["samples"] * n, "path-steps"


def load(name: str, seed: int, *, tiny: bool = False) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    if tiny:
        raw["horizon"] = TINY["horizon"]
    if raw["engine"]["kind"] == "monte-carlo":
        raw["engine"]["seed"] = seed
        if tiny:
            raw["engine"]["samples"] = TINY["samples"]
    work, unit = work_units(raw)
    return Workload(name, raw, work, unit, tiny)


def report_totals(report) -> dict:
    """Final cumulative totals plus the direct KL, with standard errors."""
    totals = {k: report.total(k) for k in sorted(report.cumulative)}
    totals["kl_direct"] = report.kl_direct
    se = None
    if report.is_statistical:
        se = {k: report.total_se(k) for k in sorted(report.cumulative)}
        se["kl_direct"] = report.kl_direct_se
    return {"totals": totals, "se": se}


def compare_totals(got: dict, reference: dict) -> list[str]:
    """Names of totals outside tolerance of the reference (missing counts too).

    Exact: within EXACT_TOL absolute.  Monte Carlo: within EXACT_TOL plus
    MC_SE_FACTOR combined standard errors of the run and the reference.
    """
    bad = []
    for key, ref in reference["totals"].items():
        value = got["totals"].get(key)
        if value is not None and value == ref:     # also an infinite total, e.g. log loss
            continue
        if value is None or not math.isfinite(value):
            bad.append(key)
            continue
        tol = EXACT_TOL
        if reference["se"] is not None:
            se_run = got["se"][key] if got["se"] else math.inf
            tol += MC_SE_FACTOR * math.hypot(se_run, reference["se"][key])
        if not abs(value - ref) <= tol:
            bad.append(key)
    return bad
