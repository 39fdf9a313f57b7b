"""Child processes the benchmark starts; ``run.py`` runs them, one at a time.

    children.py setup <src> <config>
        A fresh interpreter imports the CLI module and loads and validates
        one config: the set-up every ``seqpred run`` pays.
    children.py peak <src> <config>
        Certifies the config once and prints how far the certification raised
        this process's peak resident set size above its resident set size
        before it, in bytes.
    children.py ladder <src> <config> <time budget s> <memory budget MB> <horizon>...
        Certifies the config at each horizon in turn, in this process, under
        a wall-time budget per horizon (SIGALRM) and an address-space budget
        above this process's size after import (RLIMIT_AS).  Prints one JSON
        line per horizon and stops at the first that does not complete.

Only the ``sys`` import sits at module level, so the set-up child pays for
nothing the program itself would not import.
"""
import sys

LADDER_TOTAL_S = 60.0   # stop climbing once the ladder has run this long


def setup(src: str, config_path: str) -> None:
    sys.path.insert(0, src)
    import seqpred.cli
    seqpred.cli.load_config(config_path)


def _status_kib(field: str) -> int:
    """One memory field of /proc/self/status, in KiB.  Unlike getrusage's
    ru_maxrss, VmHWM starts afresh at exec, so the parent's peak, which a
    vforked child inherits, does not enter."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def peak(src: str, config_path: str) -> None:
    sys.path.insert(0, src)
    from seqpred import cli, reporting
    config = cli.load_config(config_path)
    before = _status_kib("VmRSS")
    report, results = cli.run_experiment(config)
    reporting.render_series_csv(report)
    reporting.report_json(report, results)
    print((_status_kib("VmHWM") - before) * 1024)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def ladder(src: str, config_path: str, time_budget_s: float, mem_budget_mb: float,
           horizons: list[int]) -> None:
    import copy
    import json
    import os
    import resource
    import signal
    import time
    sys.path.insert(0, src)
    from seqpred import cli, reporting
    from seqpred.config import parse_config

    with open(config_path) as f:
        raw = json.load(f)
    with open("/proc/self/statm") as f:
        size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + int(mem_budget_mb * 2**20)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    start = time.perf_counter()
    for horizon in horizons:
        if time.perf_counter() - start > LADDER_TOTAL_S:
            break
        rung = copy.deepcopy(raw)
        rung["horizon"] = horizon
        rung["node_budget"] = 2**62      # only the benchmark's budgets bind
        config = parse_config(rung)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, time_budget_s)
            try:
                report, results = cli.run_experiment(config)
                reporting.render_series_csv(report)
                reporting.report_json(report, results)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = "ok" if all(r.passed for r in results) else "bound-failed"
        except _Timeout:
            status = "time"
        except MemoryError:
            status = "memory"
        report = results = None
        print(json.dumps({"horizon": horizon, "status": status,
                          "seconds": time.perf_counter() - t0}), flush=True)
        if status != "ok":
            break


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1:2] == ["peak"] and len(sys.argv) == 4:
        peak(sys.argv[2], sys.argv[3])
    elif sys.argv[1:2] == ["ladder"] and len(sys.argv) >= 7:
        ladder(sys.argv[2], sys.argv[3], float(sys.argv[4]), float(sys.argv[5]),
               [int(h) for h in sys.argv[6:]])
    else:
        sys.exit(__doc__)
