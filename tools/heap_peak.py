"""Print the traced heap peak of one certification of each benchmark config.

    python3 tools/heap_peak.py [SRC_DIR]

SRC_DIR is the directory that holds the ``seqpred`` package (default: this
checkout's ``src``).  For each config under ``bench/configs``, one line
``<config>  <MB>``: the ``tracemalloc`` peak, in 10^6 bytes, of one
certification (``run_experiment``, then the series CSV and the report JSON
rendered in memory) of a config parsed before the window opens, after one
untraced warm-up certification of the same config.  ``tracemalloc`` counts
Python objects and numpy array buffers and nothing else, so unlike the
benchmark's ``peak_mem_mb`` (peak RSS growth) it does not move with the code
pages a certification faults in, or with where the allocator places a
buffer.  The lines are deterministic for one tree.
"""
from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    from seqpred import config, reporting
    from seqpred.cli import run_experiment

    def certify(parsed):
        report, results = run_experiment(parsed)
        reporting.render_series_csv(report)
        reporting.report_json(report, results)

    for path in sorted((ROOT / "bench" / "configs").glob("*.json")):
        raw = json.loads(path.read_text())
        certify(config.parse_config(raw))
        parsed = config.parse_config(raw)
        tracemalloc.start()
        certify(parsed)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{path.stem}  {peak / 1e6:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
