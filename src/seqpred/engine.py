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
  (merged) nodes.  An ``observer`` sees each level as it is walked: its
  weights, multiplicities and per-node values, and the first-seen history
  of any node, rebuilt from per-level parent links.  The links are the
  only per-level data kept, and only when an observer is given.
* ``monte_carlo_evaluate`` samples paths from the true measure and averages.
  Per-step conditionals along each path are computed exactly, so randomness
  enters only through path selection; standard errors come from the sample
  variance across paths (per step, and of per-path cumulative sums for the
  cumulative series).  Only the walk is sequential: per step, the
  conditionals, one draw of ``samples`` uniforms, the log-marginal update
  and the extension of every carried state and key.  The rest runs once per
  block of ``max(1, BLOCK_ROWS // samples)`` steps: one ``evaluate`` over the
  block's rows, then the means and standard errors of every series as one
  reduction over the last axis of a (series, steps, samples) array, with the
  running sums added step by step in place.  A block closes early when a
  scheme key changes width (whole-history keys grow every step).  No path
  history is kept: S paths of length n cost O(S·n) time, and the memory the
  paths hold does not grow with n when every state and key has a fixed
  width.

Each level (or block) is one pass of ``_StepEvaluator.conditionals`` and
``evaluate`` over all its rows, with one numpy call per layer:

* the K components' log-conditionals are stacked component-major, (K, M, N)
  for M histories and N symbols, so the mixture's log-sum-exp reduces over
  the outer axis 0 and adds the components in order;
* each distance adds its symbol columns left to right;
* per loss, ``bayes_actions`` runs once on the mixture and true conditionals
  stacked together, and ``expected_losses`` once on a (P, M) action array
  holding the mixture, informed and every scheme's actions (P = 2 + schemes).

``evaluate`` returns every series as one (series, M) array.

Both engines carry, beside the per-component log-marginals, each
component's state and each scheme's key.  They start from ``initial_state``
and ``initial_key``, extend them by one symbol per step with
``extend_state`` and ``extend_key``, and pass them to ``_step_matrix(states,
t)`` and ``actions(keys, loss)``, so nothing rescans a history.  The default
state and key are the whole history.  Bernoulli, time-varying and
deterministic measures and constant schemes carry nothing, a Markov chain
its last ``order`` symbols and majority vote its symbol counts.

The state of a history is the int64 bit pattern of its per-component
log-marginals together with the carried state of every component and the
carried key of every scheme.  Every per-node value and every later state is
a function of it, so after each tree extension the exact engine keeps one
node per distinct state, in order of first occurrence, with an
integer-valued multiplicity; merged nodes give bit-identical values and only
the order of the weighted sum changes.  The key is bitwise and not
count-based: log-marginals summed along different orderings of the same
counts may round differently, and on threshold losses a one-ulp difference
can flip the Bayes action of a posterior sitting on the threshold, so
merging by counts would move the totals by far more than rounding.

Everything is vectorized across the nodes of a level / across sample
paths, in fixed construction order, so outputs are reproducible bit for bit
from (config, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .distances import DISTANCE_NAMES, distances_batch, ratio_term_batch
from .logdomain import log_or_neg_inf, log_sum_exp_over_axis
from .losses import LossSpec
from .measures import as_symbols, draw_symbols
from .mixture import MixtureModel
from .schemes import PredictionScheme

if TYPE_CHECKING:
    from .bounds import InstantChecks

DEFAULT_NODE_BUDGET = 2**24
# rows of one Monte Carlo block: samples x steps evaluated in one pass
BLOCK_ROWS = 4096

DISTANCE_KEYS = DISTANCE_NAMES + ("ratio_term",)


class BudgetExceededError(RuntimeError):
    """Exact enumeration ran past its node-visit budget."""

    def __init__(self, visits: int, budget: int, suggested_samples: int):
        self.suggested_samples = suggested_samples
        super().__init__(
            f"exact enumeration exceeded the work budget ({visits} node visits > {budget}); "
            f"fall back to monte_carlo_evaluate with samples >= {suggested_samples}"
        )


@dataclass
class TotalsReport:
    """Per-step expectations and their cumulative totals over the horizon.

    ``per_step`` and ``cumulative`` map series names to length-n arrays.
    Distance series use the DISTANCE_KEYS names; loss series are
    ``mixture_loss[<label>]``, ``informed_loss[<label>]`` and
    ``scheme_loss[<scheme>|<label>]``.  ``kl_direct`` is the expectation of
    the full-string log-ratio log(true/mixture), which must telescope to the
    cumulative kl series (exact engine).  ``records`` holds the
    ``bounds.InstantChecks`` that observed the exact walk when the instant
    checks run, else None.  It keeps no per-level data; the field is still
    called ``records`` because the benchmark counts ``len(report.records)``,
    and the accumulator's ``len()`` is the number of levels it observed.
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
    records: InstantChecks | None = field(default=None, repr=False)

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


def _series_keys(loss_labels, schemes):
    """Series names in the row order of ``_StepEvaluator.step``'s values: the
    distances, then per loss the P rows of its action array."""
    keys = list(DISTANCE_KEYS)
    for lab in loss_labels:
        keys += [f"mixture_loss[{lab}]", f"informed_loss[{lab}]"]
        keys += [f"scheme_loss[{s.label}|{lab}]" for s in schemes]
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
        self.keys = _series_keys(losses, self.schemes)

    def conditionals(self, states: Sequence[np.ndarray], t: int):
        """The true measure's (M, N) conditional matrix at step t and the
        component-major (K, M, N) stack of log-conditionals; ``states`` holds
        each component's carried state, one row per history."""
        mats = [c._step_matrix(s, t) for c, s in zip(self.components, states)]
        return mats[self.true_index], log_or_neg_inf(np.stack(mats))

    def mixture_conditionals(self, log_cond: np.ndarray, comp_logm: np.ndarray) -> np.ndarray:
        """The (M, N) mixture conditionals: a ratio of mixture marginals."""
        prior_terms = self.log_weights[None, :] + comp_logm              # (M, K)
        log_mix_h = log_sum_exp_over_axis(prior_terms, axis=1)           # (M,)
        log_mix_hx = log_sum_exp_over_axis(prior_terms.T[:, :, None] + log_cond, axis=0)  # (M, N)
        return np.exp(log_mix_hx - log_mix_h[:, None])

    def evaluate(self, true_cond: np.ndarray, log_cond: np.ndarray, comp_logm: np.ndarray,
                 scheme_keys: Sequence[np.ndarray]):
        """Per-history values of M rows, which may come from several steps.

        ``comp_logm`` holds each row's component log-marginals and
        ``scheme_keys`` each scheme's carried key, one row per history.
        Returns (mix_cond, values): the (M, N) mixture conditionals and one
        (series, M) array whose rows follow ``self.keys``.
        """
        mix_cond = self.mixture_conditionals(log_cond, comp_logm)
        m = true_cond.shape[0]
        values = np.empty((len(self.keys), m))
        distances = distances_batch(true_cond, mix_cond)
        for row, key in enumerate(DISTANCE_NAMES):
            values[row] = distances[key]
        values[len(DISTANCE_NAMES)] = ratio_term_batch(true_cond, mix_cond)
        # one (P, M) action array per loss: mixture, informed, then each scheme
        both = np.concatenate([mix_cond, true_cond])
        row = len(DISTANCE_KEYS)
        for loss in self.losses.values():
            actions = np.vstack([loss.bayes_actions(both).reshape(2, m),
                                 *(s.actions(k, loss) for s, k in zip(self.schemes, scheme_keys))])
            values[row:row + actions.shape[0]] = loss.expected_losses(true_cond, actions)
            row += actions.shape[0]
        return mix_cond, values


def _merge_keys(comp_logm: np.ndarray, states: Sequence[np.ndarray],
                scheme_keys: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 row per history: everything its later values depend on."""
    return np.concatenate([comp_logm.view(np.int64), *states, *scheme_keys], axis=1,
                          dtype=np.int64, casting="same_kind")


def _merge_equal_rows(keys: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first row of each distinct key, in order of first
    occurrence, and the summed multiplicities of the rows they stand for.

    The lexsort is stable, so each run of equal keys starts at its first
    row; bincount then adds every group's multiplicities in row order.
    """
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.concatenate(([True], np.any(ranked[1:] != ranked[:-1], axis=1)))
    group = np.cumsum(starts) - 1                  # sorted group of each sorted row
    first = order[starts]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    row_rank = np.empty_like(order)
    row_rank[order] = rank[group]
    return first[by_first], np.bincount(row_rank, weights=mult, minlength=by_first.size)


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


def _first_history(links, depth: int, node: int) -> list[int]:
    """The first-seen history of ``node`` at tree level ``depth``, followed
    back through ``links[:depth]``: per level, each node's parent index in
    the level above and its last symbol."""
    symbols = []
    for parents, last in reversed(links[:depth]):
        symbols.append(int(last[node]))
        node = parents[node]
    return symbols[::-1]


def exact_evaluate(mixture: MixtureModel, true_index: int, losses,
                   horizon: int, *, schemes: Sequence[PredictionScheme] = (),
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   observer: Callable | None = None) -> TotalsReport:
    """Exhaustively enumerate all positive-probability histories up to
    ``horizon`` and return exact expectations of every per-step series.

    ``observer``, when given, is called once per level, before the level
    is extended, as ``observer(step, weights, multiplicity, values,
    history)``: the 1-based step, the nodes' weights and multiplicities,
    ``values`` mapping each series name to its per-node array, and
    ``history(i)``, the first-seen history of node i as a list of symbols.
    The walk never writes to these arrays again, so an observer may keep
    them.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    labelled = _label_losses(losses)
    ev = _StepEvaluator(mixture, true_index, labelled, schemes)
    n_sym = mixture.alphabet.size
    per_step = np.zeros((len(ev.keys), horizon))

    comp_logm = np.zeros((1, len(mixture.components)))
    states = [c.initial_state(1) for c in ev.components]
    scheme_keys = [s.initial_key(1) for s in ev.schemes]
    # per level, each node's parent and last symbol: built only for an observer
    links: list[tuple[np.ndarray, np.ndarray]] = []
    # histories per node, as integer-valued float64: exact below 2**53, and
    # unlike int64 it does not overflow past horizon 62 on binary trees
    mult = np.ones(1)
    visits = 0

    for t in range(horizon):
        visits += mult.shape[0]
        if visits > node_budget:
            raise BudgetExceededError(visits, node_budget, suggested_samples=100_000)
        true_cond, log_cond = ev.conditionals(states, t)
        _mix_cond, values = ev.evaluate(true_cond, log_cond, comp_logm, scheme_keys)
        weights = mult * np.exp(comp_logm[:, true_index])
        for row, series in enumerate(values):
            per_step[row, t] = weights @ series
        if observer is not None:
            observer(t + 1, weights, mult, dict(zip(ev.keys, values)),
                     partial(_first_history, links, t))
        # extend to the next level, pruning zero-probability branches,
        # symbol-major order so output layout is traversal-independent;
        # link the new nodes to their parents unless no observer sees them
        link = observer is not None and t + 1 < horizon
        parts_cm, parts_m, parts_p, parts_x = [], [], [], []
        parts_s = [[] for _ in ev.components]
        parts_k = [[] for _ in ev.schemes]
        for x in range(n_sym):
            mask = true_cond[:, x] > 0.0
            if not mask.any():
                continue
            ext = np.full(int(mask.sum()), x, dtype=np.int64)
            parts_cm.append(comp_logm[mask] + log_cond[:, mask, x].T)
            parts_m.append(mult[mask])
            for parts, comp, st in zip(parts_s, ev.components, states):
                parts.append(comp.extend_state(st[mask], ext))
            for parts, scheme, k in zip(parts_k, ev.schemes, scheme_keys):
                parts.append(scheme.extend_key(k[mask], ext))
            if link:
                parts_p.append(np.flatnonzero(mask))
                parts_x.append(ext)
        comp_logm = np.vstack(parts_cm)
        states = [np.concatenate(parts) for parts in parts_s]
        scheme_keys = [np.concatenate(parts) for parts in parts_k]
        keep, mult = _merge_equal_rows(_merge_keys(comp_logm, states, scheme_keys),
                                       np.concatenate(parts_m))
        comp_logm = comp_logm[keep]
        states = [st[keep] for st in states]
        scheme_keys = [k[keep] for k in scheme_keys]
        if link:
            links.append((np.concatenate(parts_p)[keep], np.concatenate(parts_x)[keep]))

    # leaf level: expectation of the full-string log-ratio
    visits += mult.shape[0]
    if visits > node_budget:
        raise BudgetExceededError(visits, node_budget, suggested_samples=100_000)
    log_true = comp_logm[:, true_index]
    log_mix_full = log_sum_exp_over_axis(mixture.log_weights[None, :] + comp_logm, axis=1)
    kl_direct = float((mult * np.exp(log_true)) @ (log_true - log_mix_full))

    return _build_report("exact", mixture, true_index, labelled, ev.schemes, horizon,
                         dict(zip(ev.keys, per_step)), kl_direct, node_visits=visits)


def _standard_errors(vals: np.ndarray) -> np.ndarray:
    """Standard error of the mean over the last axis (the samples); inf where
    a row holds a non-finite value (its std is NaN)."""
    with np.errstate(invalid="ignore"):
        se = vals.std(axis=-1, ddof=1) / math.sqrt(vals.shape[-1])
    se[~np.isfinite(se)] = math.inf
    return se


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
    keys = ev.keys
    rng = np.random.default_rng(seed)
    block_steps = max(1, BLOCK_ROWS // samples)

    # one row per series: per-step means and standard errors, and each
    # path's running sum for the standard error of the cumulative series
    means = np.empty((len(keys), horizon))
    se_step = np.empty((len(keys), horizon))
    se_cum = np.empty((len(keys), horizon))
    running = np.zeros((len(keys), samples))

    states = [c.initial_state(samples) for c in ev.components]
    scheme_keys = [s.initial_key(samples) for s in ev.schemes]
    comp_logm = np.zeros((samples, len(mixture.components)))
    rows = np.arange(samples)

    t = 0
    while t < horizon:
        # walk the paths one block of steps ahead, keeping what evaluate needs
        start, block = t, []
        widths = [k.shape[1] for k in scheme_keys]
        while (t < horizon and t - start < block_steps
               and [k.shape[1] for k in scheme_keys] == widths):
            true_cond, log_cond = ev.conditionals(states, t)
            block.append((true_cond, log_cond, comp_logm, *scheme_keys))
            nxt = draw_symbols(true_cond, rng.random(samples))
            comp_logm = comp_logm + log_cond[:, rows, nxt].T
            states = [c.extend_state(st, nxt) for c, st in zip(ev.components, states)]
            scheme_keys = [s.extend_key(k, nxt) for s, k in zip(ev.schemes, scheme_keys)]
            t += 1
        # every block array has its rows on axis -2; free the per-step parts first
        true_b, log_b, logm_b, *keys_b = [np.concatenate(part, axis=-2) for part in zip(*block)]
        del block
        vals = ev.evaluate(true_b, log_b, logm_b, keys_b)[1].reshape(len(keys), t - start, samples)
        means[:, start:t] = vals.mean(axis=-1)
        se_step[:, start:t] = _standard_errors(vals)
        # running sums step by step, in place: the bits of ``running += vals``
        for j in range(t - start):
            running = np.add(running, vals[:, j], out=vals[:, j])
        se_cum[:, start:t] = _standard_errors(vals)
        running = running.copy()               # lets the block's buffer go

    log_mix_full = log_sum_exp_over_axis(mixture.log_weights[None, :] + comp_logm, axis=1)
    ratios = comp_logm[:, true_index] - log_mix_full
    kl_direct = float(ratios.mean())

    return _build_report("monte-carlo", mixture, true_index, labelled, ev.schemes, horizon,
                         dict(zip(keys, means)), kl_direct, samples=samples, seed=seed,
                         se_per_step=dict(zip(keys, se_step)),
                         se_cumulative=dict(zip(keys, se_cum)),
                         kl_direct_se=float(_standard_errors(ratios[None, :])[0]))


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
    states = [c.initial_state(1) for c in ev.components]
    comp_logm = np.zeros((1, len(mixture.components)))
    # walk the path, keeping each step's rows; evaluate them in one block
    block = []
    for t in range(horizon):
        x = symbols[t]
        at = x if symbol is None else symbol
        true_cond, log_cond = ev.conditionals(states, t)
        if true_cond[0, x] <= 0.0:
            raise ValueError(f"path symbol {x} at step {t + 1} has zero true-measure probability")
        if true_cond[0, at] <= 0.0:
            raise ValueError(f"symbol {at} at step {t + 1} has zero true-measure probability")
        block.append((true_cond, log_cond, comp_logm))
        comp_logm = comp_logm + log_cond[:, :, x].T
        states = [c.extend_state(st, np.array([x])) for c, st in zip(ev.components, states)]
    true_b, log_b, logm_b = [np.concatenate(part, axis=-2) for part in zip(*block)]
    rows = np.arange(horizon)
    cols = np.array(symbols[:horizon]) if symbol is None else np.full(horizon, symbol)
    return ev.mixture_conditionals(log_b, logm_b)[rows, cols] / true_b[rows, cols]
