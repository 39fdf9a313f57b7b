"""Series CSV and certification-report emission.

The CSV contract: a header row, one row per step, and one summary row
(t = "total") carrying the final cumulative values.  Decimals are written
with 17 significant digits so doubles round-trip exactly; identical runs
produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from itertools import product, repeat
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
    # written with 17 significant digits (``format`` writes inf, -inf, nan
    # and -0 as such); the rows are formatted one at a time, so no string
    # outlives its line
    table = np.column_stack(values)[:report.horizon]
    lines = [",".join(["t", *names])]
    for t, row in enumerate(table, 1):
        lines.append(",".join([str(t), *map(format, row.tolist(), repeat(".17g"))]))
    last = map(format, table[-1, steps:].tolist(), repeat(".17g"))
    lines.append(",".join(["total", *[""] * steps, *last]))
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
