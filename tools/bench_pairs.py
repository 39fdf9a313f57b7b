"""Paired benchmark runs of two checkouts, written to ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --label L
        [--seconds S] [--trace 0|1] [--seed K] [--tiny] [--out DIR]

PARENT and CHANGE are roots of two seqpred checkouts.  Each pair runs each
checkout's own ``bench/run.py`` once, from that checkout, with the same
arguments; the first pair runs PARENT first, the next CHANGE first, and so
on, so that a slow phase of a shared host falls on both sides alike.  The
two checkouts' absolute paths must have the same length: ``peak_mem_mb``
follows heap layout, which moves with the length of the path a checkout
sits at.

``BENCH_<label>.json`` (in DIR, default the working directory) holds every
run's last-line JSON, provenance line and ``problem (xN): ...`` lines (each
failed item's description and how many certifications it failed in), in run
order, and per metric and
side the median and quartiles, the pairs in which CHANGE beat PARENT (by
the metric's ``better`` direction in CHANGE's ``BENCHMARK.json``), and the
change of the median against the spread (q3 - q1) of PARENT's runs.  A run
that reports ``correct: false`` has its problem lines printed under its
line.  The script exits 1 when any run exits non-zero or reports ``correct:
false``; the file is written either way.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``bench/run.py`` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_state(checkout: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"path_length": len(str(checkout)), "commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def run_once(checkout: Path, bench_args: list[str]) -> dict:
    """One ``bench/run.py`` run from ``checkout``: its exit code, last-line
    JSON, provenance line and problem lines."""
    proc = subprocess.run([sys.executable, "bench/run.py", *bench_args], cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"returncode": proc.returncode, "result": None, "provenance": None,
           "problems": [line for line in lines if line.startswith("problem ")]}
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
        run["provenance"] = next((json.loads(line[len("provenance "):]) for line in lines
                                  if line.startswith("provenance ")), None)
    else:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's values, median and quartiles, the pairs
    CHANGE won, and the change of the median against PARENT's spread."""
    ok = [r for r in runs if r["result"] is not None]
    names = list(ok[0]["result"]["metrics"]) if ok else []
    out = {}
    for name in names:
        values = {side: [r["result"]["metrics"][name]["value"] for r in ok if r["side"] == side]
                  for side in SIDES}
        entry = {"unit": ok[0]["result"]["metrics"][name]["unit"],
                 "better": better.get(name)}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            entry[side] = {"values": values[side], "median": med, "q1": q1, "q3": q3}
        pairs = list(zip(values["parent"], values["change"]))
        sign = {"higher": 1, "lower": -1}.get(entry["better"], 0)
        entry["pairs"] = len(pairs)
        entry["pairs_won"] = sum(sign * (c - p) > 0 for p, c in pairs)
        entry["median_change"] = entry["change"]["median"] - entry["parent"]["median"]
        entry["parent_spread"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(f"checkout paths differ in length ({checkouts['parent']}, "
                     f"{checkouts['change']}): peak_mem_mb follows heap layout, which moves "
                     "with the path; put both at paths of equal length")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    bench_args += ["--tiny"] if args.tiny else []
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = {"pair": pair, "side": side, **run_once(checkouts[side], bench_args)}
            runs.append(run)
            result = run["result"]
            metric = next(iter(result["metrics"].items())) if result else None
            print(f"pair {pair} {side:6s} exit {run['returncode']}"
                  + (f" correct {result['correct']} {metric[0]} {metric[1]['value']:.6g}"
                     if result else ""), flush=True)
            if result and not result["correct"]:
                print("".join(f"  {line}\n" for line in run["problems"]), end="", flush=True)

    doc = {"label": args.label, "workload": args.workload, "bench_args": bench_args,
           "pairs": args.pairs, "started_utc": started,
           "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
               timespec="seconds"),
           "checkouts": {side: git_state(path) for side, path in checkouts.items()},
           "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
           "metrics": summarize(runs, better), "runs": runs}
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    bad = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
