"""Outside-in layer tracing for the benchmark's traced run.

Timing shims wrap the cross-module callables the engine and the CLI use, so
no file of the program changes.  Each call records a span (name, start, end,
parent); spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct children.

Shims are installed for the lifetime of a ``Tracer.installed()`` block and
removed when it ends; instance shims go onto each freshly parsed config.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# span name -> per-layer self-time metric.  Spans not listed (the root
# "certify" span) are the uncovered remainder of the traced wall time.
LAYER_OF_SPAN = {
    "measures._step_matrix": "measures.step_matrix_s",
    "logdomain.log_sum_exp_over_axis": "logdomain.lse_s",
    "logdomain.log_or_neg_inf": "logdomain.lse_s",
    "distances.distances_batch": "distances.batch_s",
    "distances.ratio_term_batch": "distances.batch_s",
    "losses.bayes_actions": "losses.actions_s",
    "losses.expected_losses": "losses.expected_s",
    "schemes.actions": "schemes.actions_s",
    "engine.exact_evaluate": "engine.self_s",
    "engine.monte_carlo_evaluate": "engine.self_s",
    "reporting.render_series_csv": "reporting.render_s",
    "reporting.report_json": "reporting.render_s",
}
TOTALS_CHECKS = ("check_convergence_bounds", "check_loss_bounds", "check_logloss_identity")
ALL_CHECKS = TOTALS_CHECKS + ("check_instant_bounds", "check_instant_distance_bounds",
                              "grid_verify_proof_inequalities")
for _check in ALL_CHECKS:
    LAYER_OF_SPAN[f"bounds.{_check}"] = "bounds.checks_s"
ROOT = "certify"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []   # [name id, start ns, end ns, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._name_id(name), time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` may add to counters."""
        def shim(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result)
            return result
        shim.__wrapped__ = fn
        return shim

    # -- installing the shims ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, seqpred):
        """Wrap the module-level callables; restore them on exit."""
        patches = [(seqpred.engine, "distances_batch", "distances.distances_batch", None),
                   (seqpred.engine, "ratio_term_batch", "distances.ratio_term_batch", None),
                   (seqpred.engine, "log_sum_exp_over_axis", "logdomain.log_sum_exp_over_axis",
                    self._count_lse),
                   (seqpred.engine, "log_or_neg_inf", "logdomain.log_or_neg_inf", None),
                   (seqpred.cli, "exact_evaluate", "engine.exact_evaluate", None),
                   (seqpred.cli, "monte_carlo_evaluate", "engine.monte_carlo_evaluate", None),
                   (seqpred.cli, "grid_verify_proof_inequalities",
                    "bounds.grid_verify_proof_inequalities", self._count_grid),
                   (seqpred.reporting, "render_series_csv", "reporting.render_series_csv", None),
                   (seqpred.reporting, "report_json", "reporting.report_json", None)]
        for check in ALL_CHECKS[:-1]:
            count = self._count_history_rows if "instant" in check else None
            patches.append((seqpred.bounds, check, f"bounds.{check}", count))
        saved = []
        try:
            for module, attr, name, count in patches:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def instrument(self, config) -> None:
        """Wrap the per-instance callables of one parsed config."""
        for i, component in enumerate(config.mixture.components):
            count = self._count_first_component if i == 0 else self._count_rows
            component._step_matrix = self.wrap("measures._step_matrix",
                                               component._step_matrix, count)
        for loss in config.losses.values():
            loss.bayes_actions = self.wrap("losses.bayes_actions", loss.bayes_actions,
                                           self._count_loss_rows)
            loss.expected_losses = self.wrap("losses.expected_losses", loss.expected_losses,
                                             self._count_loss_rows)
        for scheme in config.schemes:
            scheme.actions = self.wrap("schemes.actions", scheme.actions,
                                       self._count_scheme_cells)

    # -- counters ------------------------------------------------------------------

    def _count_rows(self, args, kwargs, result):
        self.counts["measures.step_matrix_rows"] += result.shape[0]

    def _count_first_component(self, args, kwargs, result):
        # one call per level: the history matrix the engine walked
        histories = args[0]
        self._count_rows(args, kwargs, result)
        self.counts["engine.level_width_max"] = max(self.counts["engine.level_width_max"],
                                                    histories.shape[0])
        self.counts["engine.history_bytes"] += histories.shape[0] * histories.shape[1] * 8

    def _count_lse(self, args, kwargs, result):
        self.counts["logdomain.lse_cells"] += args[0].size

    def _count_loss_rows(self, args, kwargs, result):
        self.counts["losses.rows"] += args[0].shape[0]

    def _count_scheme_cells(self, args, kwargs, result):
        self.counts["schemes.cells_scanned"] += args[0].size

    def _count_history_rows(self, args, kwargs, result):
        self.counts["bounds.history_rows"] += len(args[0])

    def _count_grid(self, args, kwargs, result):
        # (A, y, z) points evaluated: a_values and grid_points arrive as keywords
        self.counts["bounds.grid_cells"] += len(kwargs["a_values"]) * kwargs["grid_points"] ** 2

    # -- analysis --------------------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self seconds per span name over spans[first:] (whole trees only)."""
        child_ns = defaultdict(int)
        for name_id, start, end, parent in self.spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index in range(first, len(self.spans)):
            name_id, start, end, _ = self.spans[index]
            out[self.names[name_id]] += (end - start - child_ns[index]) / 1e9
        return dict(out)

    def dump(self) -> dict:
        return {"names": self.names,
                "columns": ["name", "start_ns", "end_ns", "parent"],
                "spans": self.spans}
