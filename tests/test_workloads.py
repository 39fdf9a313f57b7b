"""Each benchmark workload, cut to its tiny form, certifies and matches its
recorded reference totals.  Reads ``bench/`` and writes nothing there."""
import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from seqpred.cli import run_experiment
from seqpred.config import parse_config
from seqpred.reporting import render_series_csv, report_json

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    _spec.loader.exec_module(workloads)   # no __pycache__ under bench/
finally:
    sys.dont_write_bytecode = _write_bytecode


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
