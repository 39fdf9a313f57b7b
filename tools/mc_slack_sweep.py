"""Print each bound check kind's smallest slack over a sweep of Monte Carlo runs.

    python3 tools/mc_slack_sweep.py [--seeds N] [--horizon H] [--samples S]
                                    [--mc-long-seeds [SEED ...]]

The sweep runs every shipped preset on the Monte Carlo engine at seeds 100,
101, ... (N of them, default 20), with its horizon capped at H (default 60)
and S paths (default 200).  Then it runs ``bench/configs/mc-long.json`` at
full size once per mc-long seed (default 1, 2026 and 123; give the flag no
seed to skip it).  A preset's ``instant-bounds`` check is dropped: it needs
the exact engine.  The runs use this checkout's ``src``.

A check kind is a bound id without its ``[loss|scheme]`` suffix.  One line
per kind gives the tolerance rule that applied (``mode``), the number of
checks and of failures, the smallest slack, that check's tolerance and the
run it came from.  The exit status is 1 when a check whose mode is
``exact`` fails, that is when its slack is below minus its tolerance, and 0
otherwise.  A ``statistical`` check's failures are counted in the table but
do not set the exit status.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MC_LONG = ROOT / "bench" / "configs" / "mc-long.json"
FIRST_SEED = 100


def runs(presets, seeds: int, horizon: int, samples: int, mc_long_seeds):
    """(label, raw config) of every run of the sweep."""
    for name in presets.PRESET_NAMES:
        raw = presets.load_preset_dict(name)
        raw["horizon"] = min(raw["horizon"], horizon)
        if "checks" in raw:
            raw["checks"] = [c for c in raw["checks"] if c != "instant-bounds"]
        for seed in range(FIRST_SEED, FIRST_SEED + seeds):
            engine = {"kind": "monte-carlo", "samples": samples, "seed": seed}
            yield f"{name} seed={seed}", {**raw, "engine": engine}
    raw = json.loads(MC_LONG.read_text())
    for seed in mc_long_seeds:
        yield f"mc-long seed={seed}", {**raw, "engine": {**raw["engine"], "seed": seed}}


def sweep(labelled_results) -> dict[tuple[str, str], dict]:
    """Per (check kind, mode): checks, fails, and the (slack, tolerance, run)
    of its smallest slack; a NaN slack counts as the smallest."""
    kinds: dict[tuple[str, str], dict] = {}
    for label, results in labelled_results:
        for r in results:
            row = kinds.setdefault((r.bound_id.split("[", 1)[0], r.mode),
                                   {"checks": 0, "fails": 0, "worst": None})
            row["checks"] += 1
            row["fails"] += not r.passed
            worst = row["worst"]
            if (worst is None or r.slack < worst[0]
                    or (math.isnan(r.slack) and not math.isnan(worst[0]))):
                row["worst"] = (r.slack, r.tolerance, label)
    return kinds


def table(kinds: dict[tuple[str, str], dict]) -> list[str]:
    lines = [f"{'kind':30s} {'mode':11s} {'checks':>6s} {'fails':>5s} "
             f"{'min slack':>13s} {'tolerance':>10s}  run"]
    for (kind, mode), row in kinds.items():
        slack, tol, label = row["worst"]
        lines.append(f"{kind:30s} {mode:11s} {row['checks']:6d} {row['fails']:5d} "
                     f"{slack:13.6g} {tol:10.3g}  {label}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=20, help="seeds per preset, from 100")
    parser.add_argument("--horizon", type=int, default=60, help="cap on a preset's horizon")
    parser.add_argument("--samples", type=int, default=200, help="paths per preset run")
    parser.add_argument("--mc-long-seeds", type=int, nargs="*", default=[1, 2026, 123])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from seqpred import config, presets
    from seqpred.cli import run_experiment

    labelled = ((label, run_experiment(config.parse_config(raw))[1])
                for label, raw in runs(presets, args.seeds, args.horizon, args.samples,
                                       args.mc_long_seeds))
    kinds = sweep(labelled)
    print("\n".join(table(kinds)))
    failed = [kind for (kind, mode), row in kinds.items() if mode == "exact" and row["fails"]]
    print(f"exact-mode kinds with a failed check: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
