"""Series CSV and certification-report emission.

The CSV contract: a header row, one row per step, and one summary row
(t = "total") carrying the final cumulative values.  Decimals are written
with 17 significant digits so doubles round-trip exactly; identical runs
produce byte-identical files.

The report JSON's bytes are ``json.dumps(payload, indent=2, sort_keys=True,
allow_nan=False) + "\n"``, and a non-finite float in the payload is written
as the string of its ``repr``.  ``json.dumps`` writes any ``indent`` through
CPython's pure-Python encoder, which on a small exact run costs more than
writing the CSV; json's C encoder runs only when ``indent`` is None.  So
``_dumps`` writes those bytes with the C encoder: each container of scalars
is one ``encode`` call whose item separator is a line break and the next
depth's indent, and a list of such dicts (the report's bound records) is one
call whose record boundaries are then re-indented.  An encoded string never
holds a raw line break, so the separators and boundaries it finds are the
encoder's own.  Only the nesting is written in Python.
"""
from __future__ import annotations

import functools
import json
import math
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BoundCheckResult
from .engine import TotalsReport

# (name, series, description) of every column, in order.  An ``E_`` column
# holds a per-step series, every later one a cumulative series; ``<loss>``
# and ``<scheme>`` expand per config, and gap, with no series, is the
# difference of the two columns before it.
_COLUMNS = [
    ("t", None, "1-based step index; the summary row uses 'total'"),
    ("E_at", "absolute", "expected absolute distance between true and mixture posteriors at step t"),
    ("E_st", "square", "expected square distance at step t"),
    ("E_ht", "hellinger", "expected Hellinger distance at step t"),
    ("E_dt", "kl", "expected relative entropy (KL) at step t"),
    ("E_bt", "abs_divergence", "expected absolute divergence at step t"),
    ("D_cum", "kl", "cumulative sum of E_dt through step t"),
    ("A_cum", "absolute", "cumulative sum of E_at"),
    ("S_cum", "square", "cumulative sum of E_st"),
    ("H_cum", "hellinger", "cumulative sum of E_ht"),
    ("B_cum", "abs_divergence", "cumulative sum of E_bt"),
    ("L_xi_cum[<loss>]", "mixture_loss[<loss>]",
     "cumulative expected loss of the mixture predictor under <loss>"),
    ("L_mu_cum[<loss>]", "informed_loss[<loss>]",
     "cumulative expected loss of the informed predictor under <loss>"),
    ("gap[<loss>]", None, "L_xi_cum minus L_mu_cum at step t"),
    ("L_alt_cum[<scheme>|<loss>]", "scheme_loss[<scheme>|<loss>]",
     "cumulative expected loss of alternative scheme <scheme> under <loss>"),
]


def _columns(report: TotalsReport) -> list[tuple[str, np.ndarray]]:
    """Every column after ``t`` as (name, values), in CSV order: the base
    columns, then per loss its own and, per scheme, the scheme's."""
    per, cum = report.per_step, report.cumulative
    columns = [(name, (per if name.startswith("E_") else cum)[series])
               for name, series, _ in _COLUMNS[1:] if "<" not in name]
    per_loss = [column for column in _COLUMNS if "<loss>" in column[0]]
    for label, (name, series, _) in product(report.loss_labels, per_loss):
        for scheme in report.scheme_labels if "<scheme>" in name else ("",):
            fill = lambda text: text.replace("<loss>", label).replace("<scheme>", scheme)
            with np.errstate(invalid="ignore"):     # inf - inf is nan, as for floats
                values = cum[fill(series)] if series else columns[-2][1] - columns[-1][1]
            columns.append((fill(name), values))
    return columns


def csv_columns(report: TotalsReport) -> list[str]:
    return ["t", *(name for name, _ in _columns(report))]


def render_series_csv(report: TotalsReport) -> str:
    names, values = zip(*_columns(report))
    steps = sum(name.startswith("E_") for name in names)
    # one row of floats per step, converted by one ``tolist`` per row and
    # written by one format string with 17 significant digits (``%.17g``
    # writes inf, -inf, nan and -0 as such); the rows are formatted one at a
    # time, so no string outlives its line
    table = np.column_stack(values)[:report.horizon]
    row_format = ",".join(["%d", *["%.17g"] * len(names)])
    lines = [",".join(["t", *names])]
    for t, row in enumerate(table, 1):
        lines.append(row_format % (t, *row.tolist()))
    total_format = ",".join(["total", *[""] * steps, *["%.17g"] * (len(names) - steps)])
    lines.append(total_format % tuple(table[-1, steps:].tolist()))
    return "\n".join(lines) + "\n"


def write_series_csv(report: TotalsReport, path: str | Path) -> None:
    Path(path).write_text(render_series_csv(report))


def describe_columns() -> str:
    lines = ["Series CSV columns (fixed order; <loss>/<scheme> expand per config):"]
    for name, _, doc in _COLUMNS:
        lines.append(f"  {name:28s} {doc}")
    lines.append("Values are decimals with 17 significant digits (exact double round-trip);")
    lines.append("the summary row repeats the final cumulative values with t='total'.")
    return "\n".join(lines)


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # 'inf', '-inf', 'nan'
    return v


def _json_safe_record(record: dict) -> dict:
    """A ``BoundCheckResult.to_dict`` with its non-finite floats as strings;
    only its sides, tolerance and slack are floats."""
    for key in ("lhs", "rhs", "tolerance", "slack"):
        if not math.isfinite(record[key]):
            record[key] = repr(record[key])
    return record


_INDENT = "  "


@functools.cache
def _encoder(depth: int):
    """``encode`` of json's C encoder (``indent`` None) whose item separator
    breaks the line and indents to ``depth``."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + _INDENT * depth, ": ")).encode


# the types of the scalars a container of scalars holds; a value of any other
# type, a subclass too, sends its container down the general path
_SCALARS = frozenset([str, int, float, bool, type(None)])


def _nests(value) -> bool:
    return isinstance(value, (dict, list, tuple))


def _scalars(values) -> bool:
    return _SCALARS.issuperset(map(type, values))


def _dumps(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` at
    nesting ``depth``, for dicts with str keys (see the module docstring)."""
    if not _nests(value) or not value:
        return _encoder(depth)(value)                    # a scalar, {} or []
    brackets = "{}" if isinstance(value, dict) else "[]"
    inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
    items = value.values() if isinstance(value, dict) else value
    if _scalars(items):                                 # scalars: one call
        body = _encoder(depth + 1)(value)[1:-1]
    elif isinstance(value, dict):
        # the scalars in one call, split at its separators, and between
        # them, in key order, each nested value written on its own
        scalars = {k: v for k, v in value.items() if not _nests(v)}
        written = iter(_encoder(depth + 1)(scalars)[1:-1].split("," + inner) if scalars else ())
        body = ("," + inner).join([f"{_encoder(0)(k)}: {_dumps(v, depth + 1)}" if _nests(v)
                                   else next(written) for k, v in sorted(value.items())])
    elif all(type(v) is dict and v and _scalars(v.values()) for v in value):
        # records: one call, whose keys sit at depth + 2; each boundary
        # '},' + line break + '{' is re-indented to stand records one a level
        fields = "\n" + _INDENT * (depth + 2)
        records = _encoder(depth + 2)(value)[2:-2]
        records = records.replace("}," + fields + "{", inner + "}," + inner + "{" + fields)
        body = "{" + fields + records + inner + "}"
    else:
        body = ("," + inner).join([_dumps(v, depth + 1) for v in value])
    return brackets[0] + inner + body + outer + brackets[1]


def report_json(report: TotalsReport, results: Sequence[BoundCheckResult]) -> str:
    payload = {
        "schema": "seqpred-report-v1",
        "engine": report.engine,
        "horizon": report.horizon,
        "alphabet_size": report.alphabet_size,
        "true_component_index": report.true_index,
        "true_weight": report.true_weight,
        "log_inv_true_weight": report.log_inv_true_weight,
        "samples": report.samples,
        "seed": report.seed,
        "node_visits": report.node_visits,
        "kl_direct": _json_safe(report.kl_direct),
        "totals": {k: _json_safe(report.total(k)) for k in sorted(report.cumulative)},
        "bounds": [_json_safe_record(r.to_dict()) for r in results],
        "all_pass": all(r.passed for r in results),
    }
    return _dumps(payload) + "\n"


def report_text(report: TotalsReport, results: Sequence[BoundCheckResult]) -> str:
    head = (f"engine={report.engine} horizon={report.horizon} "
            f"alphabet={report.alphabet_size} true_weight={report.true_weight:.17g}")
    if report.is_statistical:
        head += f" samples={report.samples} seed={report.seed}"
    lines = [head]
    lines += [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} bounds PASS" +
                 (f", {n_fail} FAIL" if n_fail else ""))
    return "\n".join(lines) + "\n"
