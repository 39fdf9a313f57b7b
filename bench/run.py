"""seqpred benchmark: certify a workload end to end, or trace it layer by layer.

    python3 bench/run.py --workload exact-coins --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it reports the per-layer metrics of a traced
run that alternates traced and untraced certifications.  Every certification
is checked: each certified bound must pass, every total must match the
committed reference, and every repetition must reproduce the first
repetition's CSV and report bytes.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

One certification is what ``seqpred run`` does after loading its config:
``cli.run_experiment`` (engine, then every configured check), then the
series CSV and the report JSON rendered in memory.
"""
from __future__ import annotations

import os

# one thread everywhere: set before numpy loads, inherited by every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYER_OF_SPAN, ROOT, TOTALS_CHECKS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
OUT = BENCH / "out"
CHILDREN = BENCH / "children.py"

END_TO_END = {
    "work_per_s": "work/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "pass_frac": "ratio",
    "max_exact_horizon": "levels",
}
PER_LAYER = {
    "config.load_s": "s",
    "measures.step_matrix_s": "s",
    "measures.step_matrix_rows": "count",
    "logdomain.lse_s": "s",
    "logdomain.lse_cells": "count",
    "distances.batch_s": "s",
    "losses.actions_s": "s",
    "losses.expected_s": "s",
    "losses.rows": "count",
    "schemes.actions_s": "s",
    "schemes.cells_scanned": "count",
    "engine.self_s": "s",
    "engine.level_width_max": "count",
    "engine.history_bytes": "bytes",
    "engine.records": "count",
    "bounds.totals_s": "s",
    "bounds.checks_s": "s",
    "bounds.checks": "count",
    "bounds.failed": "count",
    "bounds.history_rows": "count",
    "bounds.grid_cells": "count",
    "reporting.render_s": "s",
    "reporting.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

MIN_REPS = 3            # timed certifications per run, however short --seconds is
SETUP_PROBES = 7        # fresh interpreters timed for setup_s

# setup_s and work_per_s are scaled to a machine on which a fresh
# `python3 -c "import numpy"` takes REFERENCE_S: each set-up probe is divided
# by a reference probe taken right after it, each certification by the mean
# of the reference probes taken before and after it.  Other tenants of
# a shared virtual machine slow it down in phases of seconds to minutes, and
# the reference probe slows down with it, so the ratio cancels the phase.  On
# a shared 2-CPU virtual machine, over ten runs, run medians of the raw set-up
# probe spread 10% (quartiles over median), those of the ratio 6%; the median
# exact-records certification spread 26%, its ratio 7%.
REFERENCE_PROBE = (sys.executable, "-c", "import numpy")
REFERENCE_S = 0.150
CONFIG_LOADS = 7        # in-process config loads timed for config.load_s
MIN_COVERAGE = 0.95     # traced layer self times must cover this share of wall time

# max_exact_horizon: the exact-coins config climbs this ladder until a rung
# misses a budget.  Each budget sits halfway, on a log scale, between a
# passing and a failing rung of the seed.  Memory varies by under 1%: h=20
# peaks at ~0.81 GB of address space, h=21 would need ~1.6 GB.  Time drifts
# with the load of a shared 2-CPU virtual machine: over 120 ladders h=20 took
# 2.2-3.9 s (median 3.2 s), and h=22 takes ~4.3x that, so the time budget
# sits between h=20 and h=22, and the rungs there are two levels apart.
LADDER = (8, 12, 16, 18, 20, 22, 24, 28, 32, 48, 64, 96, 128, 256, 512, 1024, 2048, 4096)
TINY_LADDER = (4, 6, 8)
LADDER_TIME_BUDGET_S = 6.6
LADDER_MEM_BUDGET_MB = 1150
CHILD_TIMEOUT_S = 150


def import_program():
    """Import seqpred from this checkout's src/, or exit without a result."""
    if not (SRC / "seqpred" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'seqpred'}; run from the root of a seqpred checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import seqpred
    import seqpred.cli
    import seqpred.config
    import seqpred.reporting
    if Path(seqpred.__file__).resolve().parent != (SRC / "seqpred").resolve():
        sys.exit(f"bench: imported seqpred from {seqpred.__file__}, not from {SRC}")
    return seqpred, numpy


def provenance(numpy) -> dict:
    commit = dirty = None
    if (CHECKOUT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, check=True,
                                    capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=CHECKOUT, check=True, capture_output=True,
                                        text=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": commit, "dirty": dirty,
            "src_sha256": digest.hexdigest(), "blas_threads": 1}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Certifier:
    """Runs certifications of one workload and checks every output."""

    def __init__(self, seqpred, workload: workloads.Workload):
        self.seqpred = seqpred
        self.workload = workload
        self.reference = json.loads(workload.reference_path().read_text())
        self.first_bytes: tuple[bytes, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}   # failure description -> occurrences
        self.worst_pass = 1.0                # lowest pass share of one certification

    def certify(self, tracer: Tracer | None = None):
        """One timed certification; returns (seconds, report, results, csv, report json)."""
        sp = self.seqpred
        config = sp.config.parse_config(copy.deepcopy(self.workload.raw))
        if tracer is not None:
            tracer.instrument(config)
        root = tracer.span(ROOT) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        with root:
            report, results = sp.cli.run_experiment(config)
            csv = sp.reporting.render_series_csv(report)
            report_doc = sp.reporting.report_json(report, results)
        seconds = time.perf_counter() - t0
        self._check(report, results, csv.encode(), report_doc.encode())
        return seconds, report, results, csv, report_doc

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        self.problems[what] = self.problems.get(what, 0) + 1

    def _check(self, report, results, csv: bytes, report_doc: bytes) -> None:
        attempted, failed = self.attempted, self.failed
        self.attempted += len(results)
        for r in results:
            if not r.passed:
                self._fail(1, f"bound failed: {r.line()}")
        self.attempted += len(self.reference["totals"])
        bad = workloads.compare_totals(workloads.report_totals(report), self.reference)
        if bad:
            self._fail(len(bad), f"totals off the reference: {', '.join(bad)}")
        self.attempted += 2
        if self.first_bytes is None:
            self.first_bytes = (csv, report_doc)
        else:
            for name, got, first in (("CSV", csv, self.first_bytes[0]),
                                     ("report JSON", report_doc, self.first_bytes[1])):
                if got != first:
                    self._fail(1, f"{name} bytes differ from the first repetition")
        share = 1.0 - (self.failed - failed) / (self.attempted - attempted)
        self.worst_pass = min(self.worst_pass, share)

    def check_item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(1, what)


def write_config(workload: workloads.Workload, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"config-{workload.name}-seed{seed}{'-tiny' if workload.tiny else ''}.json"
    path.write_text(json.dumps(workload.raw, indent=2) + "\n")
    return path


def wall_time(cmd) -> float:
    """Wall time of one child process; no timeout, because with one,
    subprocess polls the child in sleeps of up to 50 ms."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def setup_probe(config_path: Path) -> tuple[float, float]:
    """One fresh interpreter that imports the CLI and loads the config, and
    the reference probe right after it: (set-up seconds, reference seconds)."""
    setup = wall_time([sys.executable, str(CHILDREN), "setup", str(SRC), str(config_path)])
    return setup, wall_time(REFERENCE_PROBE)


def measure_peak(config_path: Path) -> int:
    cmd = [sys.executable, str(CHILDREN), "peak", str(SRC), str(config_path)]
    proc = subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    return int(proc.stdout.split()[-1])


def measure_ladder(tiny: bool) -> tuple[int, list[dict]]:
    rungs = TINY_LADDER if tiny else LADDER
    cmd = [sys.executable, str(CHILDREN), "ladder", str(SRC),
           str(workloads.CONFIGS / "exact-coins.json"), str(LADDER_TIME_BUDGET_S),
           str(LADDER_MEM_BUDGET_MB), *map(str, rungs)]
    proc = subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    steps = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    reached = 0
    for step, horizon in zip(steps, rungs):
        if step["horizon"] != horizon or step["status"] != "ok":
            break
        reached = horizon
    return reached, steps


def timed_loop(seconds: float, step) -> None:
    """Call ``step()`` until ``seconds`` have passed and it ran MIN_REPS times."""
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        step()
        reps += 1


def end_to_end(seqpred, workload, certifier, seed, seconds, tiny, lines):
    config_path = write_config(workload, seed)
    max_horizon, ladder = measure_ladder(tiny)
    peak_mb = measure_peak(config_path) / 1e6   # also warms the bytecode cache
    probes = 2 if tiny else SETUP_PROBES

    # timed certifications with a reference probe before each and after the
    # last, and the set-up probes spread evenly over the run
    times: list[float] = []
    refs = [wall_time(REFERENCE_PROBE)]
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()

    def step():
        times.append(certifier.certify()[0])
        refs.append(wall_time(REFERENCE_PROBE))
        due = min(probes, int((time.perf_counter() - start) / seconds * probes) + 1)
        while len(setup) < due:
            setup.append(setup_probe(config_path))

    timed_loop(seconds, step)
    while len(setup) < probes:
        setup.append(setup_probe(config_path))

    q1, med, q3 = quartiles([t / (before + after) * 2 * REFERENCE_S
                             for t, before, after in zip(times, refs, refs[1:])])
    work_per_s = workload.work / med
    setup_s = statistics.median(t / ref for t, ref in setup) * REFERENCE_S
    raw_setup = statistics.median(t for t, _ in setup)
    # the worst certification, so that one failed check moves pass_frac by
    # 1/(checks per certification), however many certifications a run makes
    pass_frac = certifier.worst_pass
    ladder_text = " ".join(f"{s['horizon']}:{s['status']}({s['seconds']:.2f}s)" for s in ladder)
    lines += [
        f"work_per_s        {work_per_s:.6g} work/s  {workload.work} {workload.work_unit} / "
        f"{med:.4f} s, median of {len(times)} certifications, each scaled by {REFERENCE_S} s / "
        f"the mean reference probe around it (q1 {q1:.4f} s, q3 {q3:.4f} s; raw median "
        f"{statistics.median(times):.4f} s, fastest {min(times):.4f} s)",
        f"setup_s           {setup_s:.4f} s  median of {len(setup)} fresh interpreters, scaled "
        f"by {REFERENCE_S} s / the reference probe after each (raw median {raw_setup:.4f} s)",
        f"peak_mem_mb       {peak_mb:.1f} MB  1 sample: peak-RSS growth over one "
        f"certification in a fresh process",
        f"pass_frac         {pass_frac:.6f} ratio  worst of {len(times)} certifications; "
        f"fail_frac {certifier.failed / certifier.attempted:.6f} = "
        f"{certifier.failed}/{certifier.attempted} checks over all of them",
        f"max_exact_horizon {max_horizon} levels  1 ladder (budgets {LADDER_TIME_BUDGET_S} s, "
        f"{LADDER_MEM_BUDGET_MB} MB): {ladder_text}",
    ]
    return {"work_per_s": work_per_s, "setup_s": setup_s,
            "peak_mem_mb": peak_mb, "pass_frac": pass_frac, "max_exact_horizon": max_horizon}


def layer_values(tracer: Tracer, first: int) -> tuple[dict[str, float], dict[str, float]]:
    """Layer metrics and self seconds per span of the traced certification
    whose root span is spans[first]."""
    self_s = tracer.self_times(first)
    out = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s" and name != "config.load_s"}
    for span, seconds in self_s.items():
        if span in LAYER_OF_SPAN:
            out[LAYER_OF_SPAN[span]] += seconds
    out["bounds.totals_s"] = sum(self_s.get(f"bounds.{c}", 0.0) for c in TOTALS_CHECKS)
    _, start, end, _ = tracer.spans[first]
    wall = (end - start) / 1e9
    out["trace.coverage"] = 1.0 - self_s[ROOT] / wall
    return out, self_s


def traced(seqpred, workload, certifier, seed, seconds, lines):
    tracer = Tracer()
    config_path = write_config(workload, seed)
    load_s = []
    for _ in range(CONFIG_LOADS):
        first = len(tracer.spans)
        with tracer.span("config.load_config"):
            seqpred.cli.load_config(config_path)
        load_s.append(tracer.self_times(first)["config.load_config"])

    plain: list[float] = []
    traced_s: list[float] = []
    traced_reps: list[dict] = []
    spans_by_name: list[dict] = []
    counts: dict = {}

    def pair():
        plain.append(certifier.certify()[0])
        first = len(tracer.spans)
        tracer.counts.clear()
        with tracer.installed(seqpred):
            seconds, report, results, csv, report_doc = certifier.certify(tracer)
        traced_s.append(seconds)
        values, self_s = layer_values(tracer, first)
        traced_reps.append(values)
        spans_by_name.append(self_s)
        counts.clear()
        counts.update(tracer.counts)
        counts["engine.records"] = len(report.records or ())
        counts["bounds.checks"] = len(results)
        counts["bounds.failed"] = sum(not r.passed for r in results)
        counts["reporting.bytes"] = len(csv.encode()) + len(report_doc.encode())

    timed_loop(seconds, pair)

    metrics = {"config.load_s": statistics.median(load_s)}
    for name in traced_reps[0]:
        metrics[name] = statistics.median(rep[name] for rep in traced_reps)
    for name, unit in PER_LAYER.items():
        if unit != "s" and name not in metrics:
            metrics[name] = counts.get(name, 0)
    # traced work_per_s over untraced work_per_s, both from the median certification
    metrics["trace.overhead"] = statistics.median(plain) / statistics.median(traced_s)
    for rep in traced_reps:
        certifier.check_item(rep["trace.coverage"] >= MIN_COVERAGE,
                             f"trace covers {rep['trace.coverage']:.3f} of the traced wall time")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}{'-tiny' if workload.tiny else ''}.json"
    trace_path.write_text(json.dumps(tracer.dump()))
    span_medians = {name: statistics.median(rep.get(name, 0.0) for rep in spans_by_name)
                    for name in spans_by_name[-1]}
    lines.append(f"traced run: {len(traced_reps)} traced and {len(plain)} untraced "
                 f"certifications, alternating; spans in {trace_path.relative_to(CHECKOUT)}")
    lines.append("self seconds per span (median over traced certifications):")
    lines += [f"  {name:40s} {sec:.6f}" for name, sec in
              sorted(span_medians.items(), key=lambda kv: -kv[1])]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; held-out "
                             f"{workloads.HELD_OUT_SEED}); reaches only mc-long's engine.seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep repeating timed certifications")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="horizon 6 and 100 paths, for the smoke test")
    args = parser.parse_args(argv)

    seqpred, numpy = import_program()
    workload = workloads.load(args.workload, args.seed, tiny=args.tiny)
    certifier = Certifier(seqpred, workload)
    prov = provenance(numpy)
    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace} "
             f"seconds {args.seconds:g}{' tiny' if args.tiny else ''}"]
    if args.trace:
        values = traced(seqpred, workload, certifier, args.seed, args.seconds, lines)
        units = PER_LAYER
    else:
        values = end_to_end(seqpred, workload, certifier, args.seed, args.seconds,
                            args.tiny, lines)
        units = END_TO_END
    lines += [f"problem (x{n}): {what}" for what, n in certifier.problems.items()]
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))
    result = {"correct": certifier.failed == 0, "attempted": certifier.attempted,
              "failed": certifier.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
