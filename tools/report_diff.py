"""Print every value that differs between the reports of two seqpred source trees.

    python3 tools/report_diff.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are directories that hold the ``seqpred`` package
(NEW_SRC defaults to this checkout's ``src``).  Each tree runs every run of
``output_digests.py`` in its own subprocess, so the two packages never meet
in one interpreter.  For each run the script prints each bound field
(``lhs``, ``rhs``, ``tolerance``, ``pass``, ``mode``, ``location``), each
total and each series CSV line that differs, with the old value, the new
value and, for numbers, the relative change (new - old) / |old|.  A bound or
total found in one tree only is printed with ``-`` for the other.  The last
line counts the differences; it reads ``0 differences`` when the two trees
give the same reports field for field.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
FIELDS = ("lhs", "rhs", "tolerance", "pass", "mode", "location")
MISSING = "-"


def dump(src: str) -> None:
    """Write ``{run: {"report": report JSON, "csv": series CSV}}`` of ``src`` to stdout."""
    sys.path.insert(0, str(Path(src).resolve()))
    from output_digests import _runs
    from seqpred import config, presets, reporting
    from seqpred.cli import run_experiment

    out = {}
    for label, raw in _runs(presets):
        report, results = run_experiment(config.parse_config(raw))
        out[label] = {"report": json.loads(reporting.report_json(report, results)),
                      "csv": reporting.render_series_csv(report)}
    json.dump(out, sys.stdout)


def _load(src: str) -> dict:
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import report_diff; report_diff.dump({src!r})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _change(old, new) -> str:
    line = f"{old!r} -> {new!r}"
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers and old != 0:
        line += f"  ({(new - old) / abs(old):+.3g} relative)"
    return line


def _diff_keyed(old: dict, new: dict):
    """(key, old, new) for every key whose value differs or is in one dict only."""
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key, MISSING), new.get(key, MISSING)
        if a != b:
            yield key, a, b


def diff_run(old: dict, new: dict) -> list[str]:
    lines = []
    old_bounds = {b["bound_id"]: b for b in old["report"]["bounds"]}
    new_bounds = {b["bound_id"]: b for b in new["report"]["bounds"]}
    for bound_id, a, b in _diff_keyed(old_bounds, new_bounds):
        if MISSING in (a, b):
            lines.append(f"bound {bound_id}: {'only old' if b == MISSING else 'only new'}")
            continue
        lines += [f"bound {bound_id} {f}: {_change(a[f], b[f])}" for f in FIELDS if a[f] != b[f]]
    totals = lambda run: {**run["report"]["totals"], "kl_direct": run["report"]["kl_direct"]}
    lines += [f"total {key}: {_change(a, b)}" for key, a, b in _diff_keyed(totals(old), totals(new))]
    csv = lambda run: dict(enumerate(run["csv"].splitlines(), 1))
    lines += [f"csv line {n}: {a!r} -> {b!r}" for n, a, b in _diff_keyed(csv(old), csv(new))]
    return lines


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old = _load(argv[0])
    new = _load(argv[1] if len(argv) == 2 else str(TOOLS.parent / "src"))
    count = 0
    for label, a, b in _diff_keyed(old, new):
        lines = [f"run only in {'old' if b == MISSING else 'new'}"] if MISSING in (a, b) else diff_run(a, b)
        print("\n".join(f"{label}: {line}" for line in lines))
        count += len(lines)
    print(f"{count} difference{'s' * (count != 1)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
