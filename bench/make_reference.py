"""Record the reference totals the benchmark checks every run against.

    python3 bench/make_reference.py

Exact workloads: the totals of one certification.  ``mc-long``: the mean of
CHUNKS independent runs of the workload (seeds 1000000, 1000001, ...,
disjoint from benchmark seeds), with the standard error of that mean.
Writes ``reference/<workload>.json`` and ``reference/<workload>-tiny.json``.
Run it only at a commit whose outputs are known to be right.
"""
from __future__ import annotations

import copy
import json
import math

import workloads
from run import import_program, provenance

CHUNK_SEED_BASE = 1_000_000
CHUNKS = 40             # 40 runs of 500 paths: a 20,000-path reference


def certify_totals(seqpred, raw: dict) -> dict:
    config = seqpred.config.parse_config(copy.deepcopy(raw))
    report, results = seqpred.cli.run_experiment(config)
    failed = [r.line() for r in results if not r.passed]
    if failed:
        raise SystemExit("refusing to record a reference with failing bounds:\n" + "\n".join(failed))
    return workloads.report_totals(report)


def record(seqpred, name: str, tiny: bool) -> dict:
    workload = workloads.load(name, CHUNK_SEED_BASE, tiny=tiny)
    if workload.raw["engine"]["kind"] == "exact":
        return {**certify_totals(seqpred, workload.raw), "paths": None, "chunk_seeds": None}
    seeds = [CHUNK_SEED_BASE + i for i in range(CHUNKS)]
    runs = [certify_totals(seqpred, workloads.load(name, s, tiny=tiny).raw) for s in seeds]
    keys = runs[0]["totals"]
    return {
        "totals": {k: sum(r["totals"][k] for r in runs) / CHUNKS for k in keys},
        "se": {k: math.sqrt(sum(r["se"][k] ** 2 for r in runs)) / CHUNKS for k in keys},
        "paths": CHUNKS * workload.raw["engine"]["samples"],
        "chunk_seeds": [seeds[0], seeds[-1]],
    }


def main() -> None:
    seqpred, numpy = import_program()
    prov = provenance(numpy)
    workloads.REFERENCES.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for tiny in (True, False):
            ref = record(seqpred, name, tiny)
            ref["recorded_with"] = prov
            workload = workloads.load(name, 0, tiny=tiny)
            workload.reference_path().write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
            print(f"wrote {workload.reference_path().name}", flush=True)


if __name__ == "__main__":
    main()
