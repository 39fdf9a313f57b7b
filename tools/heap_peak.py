"""Print the traced heap peak and the page faults of one certification of
each benchmark config.

    python3 tools/heap_peak.py [SRC_DIR] [--config PATH]

SRC_DIR is the directory that holds the ``seqpred`` package (default: this
checkout's ``src``).  For each config under ``bench/configs`` (or only
PATH), one line ``<config>  <MB>  <faults> minor faults``.  Each config runs
in a process of its own, so that no config inherits the heap another left
behind.  Both numbers are read from one certification (``run_experiment``,
then the series CSV and the report JSON rendered in memory) of a config
parsed before the window opens, after one untraced warm-up certification of
the same config:

* the ``tracemalloc`` peak, in 10^6 bytes, of a traced certification.
  ``tracemalloc`` counts Python objects and numpy array buffers and nothing
  else, so unlike the benchmark's ``peak_mem_mb`` (peak RSS growth) it does
  not move with the code pages a certification faults in, or with where the
  allocator places a buffer.  It is deterministic for one tree.
* the minor page faults (``ru_minflt``) of an untraced certification: pages
  the process touched anew, as when the allocator gives freed heap back to
  the system and faults it in again for the next block.  It moves by a few
  faults from run to run.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(path: Path) -> str:
    """The line of one config, measured in this process."""
    from seqpred import config, reporting
    from seqpred.cli import run_experiment

    def certify(parsed):
        report, results = run_experiment(parsed)
        reporting.render_series_csv(report)
        reporting.report_json(report, results)

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    raw = json.loads(path.read_text())
    certify(config.parse_config(raw))
    parsed = config.parse_config(raw)
    before = minor_faults()
    certify(parsed)
    faults = minor_faults() - before
    parsed = config.parse_config(raw)
    tracemalloc.start()
    certify(parsed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return f"{path.stem}  {peak / 1e6:.3f}  {faults} minor faults"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    parser.add_argument("--config", type=Path)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.config is not None:
        sys.path.insert(0, str(src))
        print(measure(args.config))
        return 0
    for path in sorted((ROOT / "bench" / "configs").glob("*.json")):
        subprocess.run([sys.executable, __file__, str(src), "--config", str(path)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
