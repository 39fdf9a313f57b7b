"""Each benchmark workload, cut to its tiny form, certifies and matches its
recorded reference totals, and the benchmark's tracing shims still find
every callable they wrap.  Reads ``bench/`` and writes nothing there."""
import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import seqpred
import seqpred.cli
import seqpred.reporting
from seqpred.cli import run_experiment
from seqpred.config import parse_config
from seqpred.reporting import render_series_csv, report_json


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)   # no __pycache__ under bench/
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


workloads = _load_bench_module("workloads")
tracing = _load_bench_module("tracing")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_certifies_against_its_reference(name):
    workload = workloads.load(name, 1, tiny=True)
    runs = []
    for _ in range(2):
        report, results = run_experiment(parse_config(copy.deepcopy(workload.raw)))
        runs.append((render_series_csv(report), report_json(report, results)))
    assert results and all(r.passed for r in results), [r.line() for r in results if not r.passed]
    reference = json.loads(workload.reference_path().read_text())
    assert workloads.compare_totals(workloads.report_totals(report), reference) == []
    assert runs[0] == runs[1]


def test_traced_exact_records_counts_one_record_per_level():
    # the traced benchmark wraps the engine and the checks by name and counts
    # len(records) per instant-check call: a renamed target or a records
    # field without one entry per level breaks it
    workload = workloads.load("exact-records", 1, tiny=True)
    config = parse_config(copy.deepcopy(workload.raw))
    tracer = tracing.Tracer()
    tracer.instrument(config)
    with tracer.installed(seqpred):
        report, results = run_experiment(config)
        render_series_csv(report)
        report_json(report, results)
    assert results and all(r.passed for r in results), [r.line() for r in results if not r.passed]
    calls = [tracer.names[name_id] for name_id, *_ in tracer.spans]
    instant_calls = calls.count("bounds.check_instant_bounds") + \
        calls.count("bounds.check_instant_distance_bounds")
    bounded = sum(loss.bounded for loss in config.losses.values())
    assert instant_calls == bounded + 1
    assert len(report.records) == config.horizon
    assert tracer.counts["bounds.history_rows"] == instant_calls * config.horizon
    assert calls.count("engine.exact_evaluate") == 1
