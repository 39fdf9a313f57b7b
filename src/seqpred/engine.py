"""Exact and Monte Carlo evaluation of expected per-step quantities.

Both engines walk histories level by level.  At each visited history they
hold the true measure's conditional vector and the mixture's conditional
vector (a marginal ratio, formed from per-component log-marginals carried
along the path -- the same log-domain sum a from-scratch evaluation would
produce), and from those compute the five instantaneous distances, the
ratio term, and per-loss expected instantaneous losses of the mixture,
informed, and any alternative prediction schemes.

* ``exact_evaluate`` enumerates every history with positive true-measure
  probability (zero-probability branches are pruned; they carry no
  expectation mass), merging histories whose state is bitwise identical.
  Expectations are exact weighted sums; the work budget counts visited
  (merged) nodes.
* ``monte_carlo_evaluate`` samples paths from the true measure and averages.
  Per-step conditionals along each path are computed exactly, so randomness
  enters only through path selection; standard errors come from the sample
  variance across paths (per step, and of per-path cumulative sums for the
  cumulative series).

The state of a history is the int64 bit pattern of its per-component
log-marginals together with the ``state_key`` of every component and every
scheme.  Every per-node value and every later state is a function of it, so
after each tree extension the exact engine keeps one node per distinct
state, in order of first occurrence, with an integer-valued multiplicity;
merged nodes give bit-identical values and only the order of the weighted
sum changes.  The key is bitwise and not count-based: log-marginals summed
along different orderings of the same counts may round differently, and on
threshold losses a one-ulp difference can flip the Bayes action of a
posterior sitting on the threshold, so merging by counts would move the
totals by far more than rounding.

Everything is vectorized across the nodes of a level / across sample
paths, in fixed construction order, so outputs are reproducible bit for bit
from (config, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distances import StepDistances, distances_batch, ratio_term_batch
from .logdomain import log_or_neg_inf, log_sum_exp_over_axis
from .losses import LossSpec
from .measures import as_symbols, draw_symbols
from .mixture import MixtureModel
from .schemes import PredictionScheme

DEFAULT_NODE_BUDGET = 2**24

DISTANCE_KEYS = ("absolute", "square", "hellinger", "kl", "abs_divergence", "ratio_term")


class BudgetExceededError(RuntimeError):
    """Exact enumeration ran past its node-visit budget."""

    def __init__(self, visits: int, budget: int, suggested_samples: int):
        self.suggested_samples = suggested_samples
        super().__init__(
            f"exact enumeration exceeded the work budget ({visits} node visits > {budget}); "
            f"fall back to monte_carlo_evaluate with samples >= {suggested_samples}"
        )


@dataclass(frozen=True)
class HistoryRecord:
    """Per-node quantities at one step (exact engine only).

    A node stands for ``multiplicity`` histories with one bitwise-identical
    state, hence identical per-history values; ``history`` is the first of
    them in enumeration order.
    """

    step: int                    # 1-based
    history: tuple[int, ...]
    weight: float                # true-measure probability of all its histories
    distances: StepDistances
    ratio_term: float
    losses: dict[str, tuple[float, float]]  # label -> (mixture loss, informed loss)
    multiplicity: int = 1

    @property
    def loss_gap(self) -> dict[str, float]:
        return {k: v[0] - v[1] for k, v in self.losses.items()}


@dataclass
class TotalsReport:
    """Per-step expectations and their cumulative totals over the horizon.

    ``per_step`` and ``cumulative`` map series names to length-n arrays.
    Distance series use the DISTANCE_KEYS names; loss series are
    ``mixture_loss[<label>]``, ``informed_loss[<label>]`` and
    ``scheme_loss[<scheme>|<label>]``.  ``kl_direct`` is the expectation of
    the full-string log-ratio log(true/mixture), which must telescope to the
    cumulative kl series (exact engine).
    """

    horizon: int
    alphabet_size: int
    engine: str
    true_index: int
    true_weight: float
    mu_is_deterministic: bool
    loss_labels: tuple[str, ...]
    scheme_labels: tuple[str, ...]
    losses: dict[str, LossSpec]
    per_step: dict[str, np.ndarray]
    cumulative: dict[str, np.ndarray]
    kl_direct: float
    node_visits: int = 0
    samples: int | None = None
    seed: int | None = None
    se_per_step: dict[str, np.ndarray] | None = None
    se_cumulative: dict[str, np.ndarray] | None = None
    kl_direct_se: float | None = None
    records: list[HistoryRecord] | None = field(default=None, repr=False)

    @property
    def log_inv_true_weight(self) -> float:
        return -math.log(self.true_weight)

    @property
    def is_statistical(self) -> bool:
        return self.engine == "monte-carlo"

    def total(self, key: str) -> float:
        return float(self.cumulative[key][-1])

    def total_se(self, key: str) -> float:
        if self.se_cumulative is None:
            return 0.0
        return float(self.se_cumulative[key][-1])

    def series_names(self) -> list[str]:
        return list(self.per_step)


def _loss_series_keys(loss_labels, scheme_labels):
    keys = []
    for lab in loss_labels:
        keys.append(f"mixture_loss[{lab}]")
        keys.append(f"informed_loss[{lab}]")
        for sch in scheme_labels:
            keys.append(f"scheme_loss[{sch}|{lab}]")
    return keys


class _StepEvaluator:
    """Shared per-level computation for both engines."""

    def __init__(self, mixture: MixtureModel, true_index: int,
                 losses: dict[str, LossSpec], schemes: Sequence[PredictionScheme]):
        if not 0 <= true_index < len(mixture.components):
            raise ValueError(f"true component index {true_index} out of range")
        self.mixture = mixture
        self.true_index = true_index
        self.losses = losses
        self.schemes = tuple(schemes)
        self.components = mixture.components
        self.log_weights = mixture.log_weights

    def step(self, histories: np.ndarray, t: int, comp_logm: np.ndarray):
        """Conditional matrices and per-history values at one level.

        Returns (true_cond, log_cond_stack, mix_cond, values) where values
        maps series names to per-history arrays.
        """
        mats = [c._step_matrix(histories, t) for c in self.components]
        true_cond = mats[self.true_index]
        log_cond = np.stack([log_or_neg_inf(m) for m in mats], axis=1)  # (K, M, N)
        prior_terms = self.log_weights[None, :] + comp_logm              # (K, M)
        log_mix_h = log_sum_exp_over_axis(prior_terms, axis=1)           # (K,)
        log_mix_hx = log_sum_exp_over_axis(prior_terms[:, :, None] + log_cond, axis=1)  # (K, N)
        mix_cond = np.exp(log_mix_hx - log_mix_h[:, None])

        values = distances_batch(true_cond, mix_cond)
        values["ratio_term"] = ratio_term_batch(true_cond, mix_cond)
        for label, loss in self.losses.items():
            acts_mix = loss.bayes_actions(mix_cond)
            acts_inf = loss.bayes_actions(true_cond)
            values[f"mixture_loss[{label}]"] = loss.expected_losses(true_cond, acts_mix)
            values[f"informed_loss[{label}]"] = loss.expected_losses(true_cond, acts_inf)
            for scheme in self.schemes:
                acts = scheme.actions(histories, loss)
                values[f"scheme_loss[{scheme.label}|{label}]"] = loss.expected_losses(true_cond, acts)
        return true_cond, log_cond, mix_cond, values

    def state_keys(self, histories: np.ndarray, t: int, comp_logm: np.ndarray) -> np.ndarray:
        """One int64 row per history: everything its later values depend on."""
        cols = [comp_logm.view(np.int64)]
        cols += [c.state_key(histories, t) for c in self.components]
        cols += [s.state_key(histories) for s in self.schemes]
        return np.concatenate(cols, axis=1, dtype=np.int64, casting="same_kind")


def _merge_equal_rows(keys: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first row of each distinct key, in order of first
    occurrence, and the summed multiplicities of the rows they stand for."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    merged = np.bincount(rank[inverse.reshape(-1)], weights=mult, minlength=order.size)
    return first[order], merged


def _series_keys(losses, schemes):
    return list(DISTANCE_KEYS) + _loss_series_keys(losses, [s.label for s in schemes])


def _label_losses(losses) -> dict[str, LossSpec]:
    """Accept either a {label: LossSpec} mapping or a plain sequence.

    Sequence items are labelled by kind, deduplicated with a #k suffix.
    """
    if isinstance(losses, dict):
        return dict(losses)
    labelled: dict[str, LossSpec] = {}
    for loss in losses:
        label = loss.kind
        if label in labelled:
            i = 2
            while f"{label}#{i}" in labelled:
                i += 1
            label = f"{label}#{i}"
        labelled[label] = loss
    return labelled


def _build_report(engine: str, mixture, true_index, labelled, schemes, horizon,
                  per_step, kl_direct, **extra) -> TotalsReport:
    cumulative = {k: np.cumsum(v) for k, v in per_step.items()}
    return TotalsReport(
        horizon=horizon,
        alphabet_size=mixture.alphabet.size,
        engine=engine,
        true_index=true_index,
        true_weight=float(mixture.weights[true_index]),
        mu_is_deterministic=mixture.components[true_index].is_deterministic,
        loss_labels=tuple(labelled),
        scheme_labels=tuple(s.label for s in schemes),
        losses=dict(labelled),
        per_step=per_step,
        cumulative=cumulative,
        kl_direct=kl_direct,
        **extra,
    )


def exact_evaluate(mixture: MixtureModel, true_index: int, losses,
                   horizon: int, *, schemes: Sequence[PredictionScheme] = (),
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   collect_records: bool = False) -> TotalsReport:
    """Exhaustively enumerate all positive-probability histories up to
    ``horizon`` and return exact expectations of every per-step series."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    labelled = _label_losses(losses)
    ev = _StepEvaluator(mixture, true_index, labelled, schemes)
    n_sym = mixture.alphabet.size
    keys = _series_keys(labelled, ev.schemes)
    per_step = {k: np.zeros(horizon) for k in keys}
    records: list[HistoryRecord] | None = [] if collect_records else None

    histories = np.zeros((1, 0), dtype=np.int64)
    comp_logm = np.zeros((1, len(mixture.components)))
    # histories per node, as integer-valued float64: exact below 2**53, and
    # unlike int64 it does not overflow past horizon 62 on binary trees
    mult = np.ones(1)
    visits = 0

    for t in range(horizon):
        visits += histories.shape[0]
        if visits > node_budget:
            raise BudgetExceededError(visits, node_budget, suggested_samples=100_000)
        true_cond, log_cond, mix_cond, values = ev.step(histories, t, comp_logm)
        weights = mult * np.exp(comp_logm[:, true_index])
        for k in keys:
            per_step[k][t] = float(weights @ values[k])
        if records is not None:
            for i in range(histories.shape[0]):
                records.append(HistoryRecord(
                    step=t + 1,
                    history=tuple(int(s) for s in histories[i]),
                    weight=float(weights[i]),
                    distances=StepDistances(
                        absolute=float(values["absolute"][i]),
                        square=float(values["square"][i]),
                        hellinger=float(values["hellinger"][i]),
                        kl=float(values["kl"][i]),
                        abs_divergence=float(values["abs_divergence"][i]),
                    ),
                    ratio_term=float(values["ratio_term"][i]),
                    losses={lab: (float(values[f"mixture_loss[{lab}]"][i]),
                                  float(values[f"informed_loss[{lab}]"][i]))
                            for lab in labelled},
                    multiplicity=int(mult[i]),
                ))
        # extend to the next level, pruning zero-probability branches,
        # symbol-major order so output layout is traversal-independent
        parts_h, parts_cm, parts_m = [], [], []
        for x in range(n_sym):
            mask = true_cond[:, x] > 0.0
            if not mask.any():
                continue
            ext = np.full((int(mask.sum()), 1), x, dtype=np.int64)
            parts_h.append(np.hstack([histories[mask], ext]))
            parts_cm.append(comp_logm[mask] + log_cond[mask, :, x])
            parts_m.append(mult[mask])
        histories = np.vstack(parts_h)
        comp_logm = np.vstack(parts_cm)
        keep, mult = _merge_equal_rows(ev.state_keys(histories, t + 1, comp_logm),
                                       np.concatenate(parts_m))
        histories = histories[keep]
        comp_logm = comp_logm[keep]

    # leaf level: expectation of the full-string log-ratio
    visits += histories.shape[0]
    if visits > node_budget:
        raise BudgetExceededError(visits, node_budget, suggested_samples=100_000)
    log_true = comp_logm[:, true_index]
    log_mix_full = log_sum_exp_over_axis(mixture.log_weights[None, :] + comp_logm, axis=1)
    kl_direct = float((mult * np.exp(log_true)) @ (log_true - log_mix_full))

    return _build_report("exact", mixture, true_index, labelled, ev.schemes, horizon,
                         per_step, kl_direct, node_visits=visits, records=records)


def monte_carlo_evaluate(mixture: MixtureModel, true_index: int, losses,
                         horizon: int, samples: int, seed: int, *,
                         schemes: Sequence[PredictionScheme] = ()) -> TotalsReport:
    """Estimate the same expectations from ``samples`` true-measure paths.

    Per-step conditionals are evaluated exactly along each sampled path;
    only the path selection is random.  Standard errors are reported per
    step and for the cumulative series.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    labelled = _label_losses(losses)
    ev = _StepEvaluator(mixture, true_index, labelled, schemes)
    keys = _series_keys(labelled, ev.schemes)
    rng = np.random.default_rng(seed)

    per_step = {k: np.zeros(horizon) for k in keys}
    se_per_step = {k: np.zeros(horizon) for k in keys}
    se_cumulative = {k: np.zeros(horizon) for k in keys}
    running = {k: np.zeros(samples) for k in keys}

    histories = np.zeros((samples, 0), dtype=np.int64)
    log_true_path = np.zeros(samples)
    comp_logm = np.zeros((samples, len(mixture.components)))

    def _se(vals: np.ndarray) -> float:
        if not np.isfinite(vals).all():
            return math.inf
        return float(vals.std(ddof=1) / math.sqrt(samples))

    for t in range(horizon):
        true_cond, log_cond, _mix_cond, values = ev.step(histories, t, comp_logm)
        for k in keys:
            vals = values[k]
            per_step[k][t] = float(vals.mean())
            se_per_step[k][t] = _se(vals)
            running[k] += vals
            se_cumulative[k][t] = _se(running[k])
        # draw next symbols from the true conditionals
        nxt = draw_symbols(true_cond, rng.random(samples))
        rows = np.arange(samples)
        log_true_path = log_true_path + np.log(true_cond[rows, nxt])
        comp_logm = comp_logm + log_cond[rows, :, nxt]
        histories = np.hstack([histories, nxt[:, None].astype(np.int64)])

    log_mix_full = log_sum_exp_over_axis(mixture.log_weights[None, :] + comp_logm, axis=1)
    ratios = log_true_path - log_mix_full
    kl_direct = float(ratios.mean())

    report = _build_report("monte-carlo", mixture, true_index, labelled, ev.schemes, horizon,
                           per_step, kl_direct, samples=samples, seed=seed,
                           se_per_step=se_per_step, se_cumulative=se_cumulative,
                           kl_direct_se=_se(ratios))
    # cumulative means are cumsums of per-step means already; nothing to redo
    return report


def ratio_trace(mixture: MixtureModel, true_index: int, path, horizon: int | None = None,
                *, symbol: int | None = None) -> np.ndarray:
    """Per-step conditional ratio mixture / true along a fixed history path.

    By default the ratio is taken at the path's own next symbol, the
    quantity that converges to 1 along true-measure-random paths.  Passing
    ``symbol`` traces the ratio at that fixed symbol instead while the
    history still follows ``path`` -- the form in which a two-component
    time-varying pair exhibits linear divergence even on a typical path.

    The path itself must have positive probability under the true
    component; a zero true-conditional (at the path symbol, or at ``symbol``
    when given) is a domain error.
    """
    symbols = as_symbols(path, mixture.alphabet)
    if horizon is None:
        horizon = len(symbols)
    if not 1 <= horizon <= len(symbols):
        raise ValueError("horizon must be in 1..len(path)")
    if symbol is not None:
        symbol = mixture.alphabet.check(symbol)
    ev = _StepEvaluator(mixture, true_index, {}, ())
    histories = np.zeros((1, 0), dtype=np.int64)
    comp_logm = np.zeros((1, len(mixture.components)))
    out = np.empty(horizon)
    for t in range(horizon):
        x = symbols[t]
        at = x if symbol is None else symbol
        true_cond, log_cond, mix_cond, _ = ev.step(histories, t, comp_logm)
        if true_cond[0, x] <= 0.0:
            raise ValueError(f"path symbol {x} at step {t + 1} has zero true-measure probability")
        if true_cond[0, at] <= 0.0:
            raise ValueError(f"symbol {at} at step {t + 1} has zero true-measure probability")
        out[t] = mix_cond[0, at] / true_cond[0, at]
        comp_logm = comp_logm + log_cond[:, :, x]
        histories = np.hstack([histories, np.full((1, 1), x, dtype=np.int64)])
    return out
