"""Print one sha256 per deterministic output of a seqpred source tree.

    python3 tools/output_digests.py [SRC_DIR]

SRC_DIR is the directory that holds the ``seqpred`` package (default: this
checkout's ``src``).  Each line is ``<digest>  <run>``: the sha256 of
``render_series_csv`` followed by ``report_json`` for every shipped preset
(the Monte Carlo ``counterexample`` at three seeds) and every benchmark
config under ``bench/configs`` (``mc-long`` at two seeds), then the sha256
of the default ``seqpred check-inequalities`` stdout.  Two trees whose
lines match give byte-identical reports; ``diff`` the output of two runs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the Monte Carlo configs, run once per seed; the exact ones are seed-free
SEEDS = {"counterexample": (20250808, 1, 2026), "mc-long": (1, 2026)}


def _runs(presets):
    """(label, raw config) of every run, presets first."""
    configs = [(name, presets.load_preset_dict(name)) for name in presets.PRESET_NAMES]
    configs += [(path.stem, json.loads(path.read_text()))
                for path in sorted((ROOT / "bench" / "configs").glob("*.json"))]
    for name, raw in configs:
        if name not in SEEDS:
            yield name, raw
        for seed in SEEDS.get(name, ()):
            yield f"{name} seed={seed}", {**raw, "engine": {**raw["engine"], "seed": seed}}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    from seqpred import config, presets, reporting
    from seqpred.cli import main as cli_main, run_experiment

    for label, raw in _runs(presets):
        report, results = run_experiment(config.parse_config(raw))
        blob = reporting.render_series_csv(report) + reporting.report_json(report, results)
        print(f"{hashlib.sha256(blob.encode()).hexdigest()}  {label}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["check-inequalities"])
    print(f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  check-inequalities")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
