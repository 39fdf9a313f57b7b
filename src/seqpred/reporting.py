"""Series CSV and certification-report emission.

The CSV contract: a header row, one row per step, and one summary row
(t = "total") carrying the final cumulative values.  Decimals are written
with 17 significant digits so doubles round-trip exactly; identical runs
produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BoundCheckResult
from .engine import TotalsReport

_BASE_COLUMNS = [
    ("t", "1-based step index; the summary row uses 'total'"),
    ("E_at", "expected absolute distance between true and mixture posteriors at step t"),
    ("E_st", "expected square distance at step t"),
    ("E_ht", "expected Hellinger distance at step t"),
    ("E_dt", "expected relative entropy (KL) at step t"),
    ("E_bt", "expected absolute divergence at step t"),
    ("D_cum", "cumulative sum of E_dt through step t"),
    ("A_cum", "cumulative sum of E_at"),
    ("S_cum", "cumulative sum of E_st"),
    ("H_cum", "cumulative sum of E_ht"),
    ("B_cum", "cumulative sum of E_bt"),
]
_PER_LOSS_COLUMNS = [
    ("L_xi_cum[<loss>]", "cumulative expected loss of the mixture predictor under <loss>"),
    ("L_mu_cum[<loss>]", "cumulative expected loss of the informed predictor under <loss>"),
    ("gap[<loss>]", "L_xi_cum minus L_mu_cum at step t"),
]
_PER_SCHEME_COLUMNS = [
    ("L_alt_cum[<scheme>|<loss>]", "cumulative expected loss of alternative scheme <scheme> under <loss>"),
]

_SERIES_FOR_COLUMN = {
    "E_at": "absolute", "E_st": "square", "E_ht": "hellinger",
    "E_dt": "kl", "E_bt": "abs_divergence",
    "D_cum": "kl", "A_cum": "absolute", "S_cum": "square",
    "H_cum": "hellinger", "B_cum": "abs_divergence",
}


def csv_columns(report: TotalsReport) -> list[str]:
    cols = [name for name, _ in _BASE_COLUMNS]
    for label in report.loss_labels:
        cols += [f"L_xi_cum[{label}]", f"L_mu_cum[{label}]", f"gap[{label}]"]
        for scheme in report.scheme_labels:
            cols.append(f"L_alt_cum[{scheme}|{label}]")
    return cols


def _csv_series(report: TotalsReport) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The CSV's per-step columns and its cumulative columns, in column order."""
    per, cum = report.per_step, report.cumulative
    steps = [per[_SERIES_FOR_COLUMN[c]] for c in ("E_at", "E_st", "E_ht", "E_dt", "E_bt")]
    totals = [cum[_SERIES_FOR_COLUMN[c]] for c in ("D_cum", "A_cum", "S_cum", "H_cum", "B_cum")]
    for label in report.loss_labels:
        lx, lm = cum[f"mixture_loss[{label}]"], cum[f"informed_loss[{label}]"]
        with np.errstate(invalid="ignore"):     # inf - inf is nan, as for floats
            totals += [lx, lm, lx - lm]
        totals += [cum[f"scheme_loss[{scheme}|{label}]"] for scheme in report.scheme_labels]
    return steps, totals


def render_series_csv(report: TotalsReport) -> str:
    steps, totals = _csv_series(report)
    # one row of floats per step, converted by one ``tolist`` per row and
    # written with 17 significant digits (``format`` writes inf, -inf, nan
    # and -0 as such); the rows are formatted one at a time, so no string
    # outlives its line
    table = np.column_stack(steps + totals)[:report.horizon]
    lines = [",".join(csv_columns(report))]
    for t, row in enumerate(table, 1):
        lines.append(",".join([str(t), *map(format, row.tolist(), repeat(".17g"))]))
    last = map(format, table[-1, len(steps):].tolist(), repeat(".17g"))
    lines.append(",".join(["total", *[""] * len(steps), *last]))
    return "\n".join(lines) + "\n"


def write_series_csv(report: TotalsReport, path: str | Path) -> None:
    Path(path).write_text(render_series_csv(report))


def describe_columns() -> str:
    lines = ["Series CSV columns (fixed order; <loss>/<scheme> expand per config):"]
    for name, doc in _BASE_COLUMNS + _PER_LOSS_COLUMNS + _PER_SCHEME_COLUMNS:
        lines.append(f"  {name:28s} {doc}")
    lines.append("Values are decimals with 17 significant digits (exact double round-trip);")
    lines.append("the summary row repeats the final cumulative values with t='total'.")
    return "\n".join(lines)


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # 'inf', '-inf', 'nan'
    return v


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
        "bounds": [{k: _json_safe(v) for k, v in r.to_dict().items()} for r in results],
        "all_pass": all(r.passed for r in results),
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
