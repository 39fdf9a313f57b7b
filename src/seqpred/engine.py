"""Exact and Monte Carlo evaluation of expected per-step quantities.

Both engines walk histories level by level.  At each visited history they
hold the true measure's conditional vector and the mixture's conditional
vector (a marginal ratio, formed by ``MixtureModel.conditionals`` from
per-component log-marginals carried along the path -- the same log-domain
sum a from-scratch evaluation, or the scalar ``log_marginal``, would
produce), and from those compute the five instantaneous distances, the
ratio term, and per-loss expected instantaneous losses of the mixture,
informed, and any alternative prediction schemes.

Both engines walk ahead and evaluate in blocks.  Only the walk is
sequential: per step (a tree level, or one step of every path), the
conditionals, the choice of children and the extension of every carried
state.  Every per-history value depends only on that history's row, so the
rest runs once per block of steps (``_Block``): one ``evaluate`` over the
rows of all its steps.  A block takes steps while its rows stay within
``BLOCK_ROWS``, always at least one, and closes early when a scheme state
changes width (whole-history states grow every step).

* ``exact_evaluate`` enumerates every history with positive true-measure
  probability (zero-probability branches are pruned; they carry no
  expectation mass), merging histories whose state is bitwise identical.
  Expectations are exact weighted sums: per level and series, one dot
  product of the level's weights with its slice of the block's values.  A
  block that no further level can join (``BLOCK_ROWS`` rows or more) is
  evaluated before the tree grows past it, while its arrays are still in
  cache.  The work budget counts visited (merged) nodes.  An ``observer`` sees each
  level, in level order once its block is evaluated: its weights,
  multiplicities and per-node values, and the first-seen history of any
  node, rebuilt from per-level parent links.  The links are the only
  per-level data kept, and only when an observer is given.
* ``monte_carlo_evaluate`` samples paths from the true measure and averages.
  Per-step conditionals along each path are computed exactly, so randomness
  enters only through path selection; standard errors come from the sample
  variance across paths.  A step draws ``samples`` uniforms, so a block holds
  ``max(1, BLOCK_ROWS // samples)`` steps.  After each ``evaluate``, the
  per-step means and standard errors of every series are one reduction over
  the last axis of a (series, steps, samples) array, and each step is added
  to every path's running sum.  The standard error of each series' total is
  taken once, from those sums after the walk.  No path history is kept: S
  paths of length n cost O(S·n) time, and the memory the paths hold does not
  grow with n when every state has a fixed width.

Each block is one ``_StepEvaluator.conditionals`` call per step and one
``evaluate`` over all its rows, with one numpy call per layer:

* the K components' log-conditionals are stacked component-major, (K, M, N)
  for M histories and N symbols, and the mixture writes its (K, M) prior
  terms component-major too, so both log-sum-exps of its conditional
  reduce over axis 0 and add the components in order;
* each distance adds its symbol columns left to right;
* each scheme's actions are computed once per block, under the first loss
  (``__init__`` checks every (scheme, loss) pair on one empty history);
* per loss, ``bayes_actions`` runs once on the mixture and true conditionals
  stacked together, and ``expected_losses`` once on a (P, M) action array
  holding the mixture, informed and every scheme's actions, cast to the
  loss's action type (P = 2 + schemes).

Every reduction over the K components or the N symbols in these layers, and
the Monte Carlo symbol draw (``measures.draw_symbols``), takes K or N whole
columns or slabs (``columns``, ``logdomain.log_sum_exp_over_axis``): numpy's
own reduction over a short last axis runs one inner loop per history.
``evaluate`` returns every series as one (series, M) array.

The state of a history is one ``_Rows`` row: its per-component
log-marginals and the carried state of each component, then of each scheme.
Components and schemes follow one protocol (``measures.StateCarrier``), so
``_Rows`` holds their states in one tuple; ``take(idx)`` selects rows.  The
three walks -- the exact tree, the Monte Carlo paths and ``ratio_trace`` --
start from ``_StepEvaluator.start(n)`` and grow by one rule,
``_StepEvaluator.extend(rows, log_p, symbols)``: add each row's component
log-conditionals of its symbol, then ``extend_state`` every state with that
symbol.  The caller picks the parents first: the exact engine takes every
(parent, symbol) of positive true probability, symbol-major (all children
by symbol 0, then by symbol 1, ...); Monte Carlo extends each path by its
drawn symbol, the trace by the path's next symbol.  The states feed
``_step_matrix(states, t)`` and ``actions(states, loss)``, so nothing
rescans a history.  The default state is the whole history.  Bernoulli,
time-varying and deterministic measures and constant schemes carry nothing,
a Markov chain its last ``order`` symbols, a mixture used as a component
its components' log-marginals and states, and majority vote its symbol
counts.  ``log_ratio(rows)`` gives each row's full-history
log(true/mixture), the ``kl_direct`` of both engines.

``_Rows.merge_key`` packs a row into int64s: the bit pattern of the
log-marginals, then every carried state.  Every per-node value and
every later state is a function of it, so after each tree extension the
exact engine keeps one node per distinct key, in order of first occurrence,
with an integer-valued multiplicity; merged nodes give bit-identical values
and only the order of the weighted sum changes.  ``_merge_equal_rows``
groups the keys with one sort of uint64 values: each row's 64-bit hash with
its low bits replaced by the row's index, so a group's first value is its
first row.  Every row is then compared exactly with its group's first row;
a hash collision fails that check and the level is hashed again with the
next salt, so the groups are those of the keys, not of their hashes.  The
key is bitwise and not count-based: log-marginals summed along different
orderings of the same counts may round differently, and on threshold losses
a one-ulp difference can flip the Bayes action of a posterior sitting on
the threshold, so merging by counts would move the totals by far more than
rounding.

Everything is vectorized across the nodes of a level / across sample
paths, in fixed construction order, so outputs are reproducible bit for bit
from (config, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .distances import DISTANCE_NAMES, distances_batch, ratio_term_batch
# bench/tracing.py wraps this module's log_sum_exp_over_axis by name
from .logdomain import log_or_neg_inf, log_sum_exp_over_axis  # noqa: F401
from .losses import LossSpec
from .measures import as_symbols, draw_symbols
from .mixture import MixtureModel
from .schemes import PredictionScheme

if TYPE_CHECKING:
    from .bounds import InstantChecks

DEFAULT_NODE_BUDGET = 2**24
# rows of one block of steps evaluated in one pass (``_Block``)
BLOCK_ROWS = 4096

DISTANCE_KEYS = DISTANCE_NAMES + ("ratio_term",)


class BudgetExceededError(RuntimeError):
    """Exact enumeration ran past its node-visit budget."""

    def __init__(self, visits: int, budget: int):
        super().__init__(
            f"exact enumeration exceeded the work budget ({visits} node visits > {budget}); "
            "fall back to monte_carlo_evaluate with samples >= 100000"
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

    A Monte Carlo report also holds standard errors across its paths:
    ``se_per_step`` maps each series to a length-n array, ``se_total`` to
    the standard error of its total, and ``kl_direct_se`` is that of
    ``kl_direct``.  An exact report leaves them None, and ``total_se`` reads
    0 there.
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
    se_total: dict[str, float] | None = None
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
        return 0.0 if self.se_total is None else self.se_total[key]


def _series_keys(loss_labels, schemes):
    """Series names in the row order of ``_StepEvaluator.evaluate``'s values:
    the distances, then per loss the P rows of its action array."""
    keys = list(DISTANCE_KEYS)
    for lab in loss_labels:
        keys += [f"mixture_loss[{lab}]", f"informed_loss[{lab}]"]
        keys += [f"scheme_loss[{s.label}|{lab}]" for s in schemes]
    return keys


class _Rows(NamedTuple):
    """The state of M histories, one row each: ``comp_logm`` holds the (M, K)
    component log-marginals and ``states`` the carried state of each
    component, then of each scheme.

    ``states`` is built as ``tuple([...])``: a tuple built from a generator
    is allocated long and shrunk, and freeing it grows the tuple free list
    every Monte Carlo step."""

    comp_logm: np.ndarray
    states: tuple[np.ndarray, ...]

    def take(self, idx: np.ndarray) -> _Rows:
        return _Rows(self.comp_logm[idx], tuple([s[idx] for s in self.states]))

    def merge_key(self) -> np.ndarray:
        """One int64 row per history: everything its later values depend on."""
        return np.concatenate([self.comp_logm.view(np.int64), *self.states],
                              axis=1, dtype=np.int64, casting="same_kind")


class _StepEvaluator:
    """Shared per-step and per-block computation for both engines."""

    def __init__(self, mixture: MixtureModel, true_index: int,
                 losses: dict[str, LossSpec], schemes: Sequence[PredictionScheme]):
        if not 0 <= true_index < len(mixture.components):
            raise ValueError(f"true component index {true_index} out of range")
        self.mixture = mixture
        self.true_index = true_index
        self.losses = losses
        self.schemes = tuple(schemes)
        for s in self.schemes:
            if s.alphabet_size not in (None, mixture.alphabet.size):
                raise ValueError(f"scheme {s.label!r} is built for an alphabet of "
                                 f"{s.alphabet_size} symbols; the mixture's has "
                                 f"{mixture.alphabet.size}")
            # every loss must play the scheme's actions: ``evaluate`` computes
            # them once, under the first loss, and the others only cast them
            for loss in losses.values():
                s.actions(s.initial_state(1), loss)
        self.components = mixture.components
        # everything that carries a state, in the order of ``_Rows.states``
        self.carriers = (*self.components, *self.schemes)
        self.keys = _series_keys(losses, self.schemes)

    def start(self, n: int) -> _Rows:
        """The rows of n empty histories."""
        return _Rows(np.zeros((n, len(self.components))),
                     tuple([c.initial_state(n) for c in self.carriers]))

    def extend(self, rows: _Rows, log_p: np.ndarray, symbols: np.ndarray) -> _Rows:
        """Each row's history extended by its symbol; ``log_p`` holds the
        (M, K) component log-conditionals of the symbols."""
        return _Rows(rows.comp_logm + log_p,
                     tuple([c.extend_state(st, symbols)
                            for c, st in zip(self.carriers, rows.states)]))

    def scheme_states(self, rows: _Rows) -> tuple[np.ndarray, ...]:
        """The schemes' slice of ``rows.states``."""
        return rows.states[len(self.components):]

    def log_ratio(self, rows: _Rows) -> np.ndarray:
        """log(true / mixture) of each row's whole history."""
        return rows.comp_logm[:, self.true_index] - self.mixture.log_marginals(rows.comp_logm)

    def conditionals(self, states: Sequence[np.ndarray], t: int):
        """The true measure's (M, N) conditional matrix at step t and the
        component-major (K, M, N) stack of log-conditionals; ``states`` holds
        each component's carried state, one row per history (any scheme
        states after them are ignored)."""
        mats = [c._step_matrix(s, t) for c, s in zip(self.components, states)]
        return mats[self.true_index], log_or_neg_inf(np.stack(mats))

    def evaluate(self, true_cond: np.ndarray, log_cond: np.ndarray, comp_logm: np.ndarray,
                 scheme_states: Sequence[np.ndarray]):
        """Per-history values of M rows, which may come from several steps.

        ``comp_logm`` holds each row's component log-marginals and
        ``scheme_states`` each scheme's carried state, one row per history.
        Returns one (series, M) array whose rows follow ``self.keys``.
        """
        mix_cond = self.mixture.conditionals(log_cond, comp_logm)
        m = true_cond.shape[0]
        values = np.empty((len(self.keys), m))
        distances = distances_batch(true_cond, mix_cond)
        for row, key in enumerate(DISTANCE_NAMES):
            values[row] = distances[key]
        values[len(DISTANCE_NAMES)] = ratio_term_batch(true_cond, mix_cond)
        # one (P, M) action array per loss: mixture, informed, then each
        # scheme's actions, computed once and cast to each loss's dtype
        both = np.concatenate([mix_cond, true_cond])
        losses = list(self.losses.values())
        played = [s.actions(st, losses[0])
                  for s, st in zip(self.schemes, scheme_states)] if losses else []
        row = len(DISTANCE_KEYS)
        for loss in losses:
            actions = np.vstack([loss.bayes_actions(both).reshape(2, m),
                                 *(a.astype(loss.action_dtype, copy=False) for a in played)])
            values[row:row + actions.shape[0]] = loss.expected_losses(true_cond, actions)
            row += actions.shape[0]
        return values


class _Block:
    """Steps walked ahead of one evaluation, and the rule that closes them.

    Each step adds its rows' ``(true_cond, log_cond, comp_logm,
    *scheme_states)``: what ``_StepEvaluator.evaluate`` reads.  A block takes
    steps while its rows stay within ``BLOCK_ROWS``, always at least one,
    and only while every scheme state keeps the width it had at the block's
    first step (whole-history states widen every step).  ``arrays`` empties
    the block for the next steps.
    """

    def __init__(self, ev: _StepEvaluator):
        self.ev = ev
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.rows = 0
        self.widths: list[int] = []

    def _widths(self, rows: _Rows) -> list[int]:
        return [st.shape[1] for st in self.ev.scheme_states(rows)]

    @property
    def full(self) -> bool:
        """Whether no further step can join (every step has a row)."""
        return self.rows >= BLOCK_ROWS

    def accepts(self, rows: _Rows) -> bool:
        """Whether the step of ``rows`` joins the block."""
        return not self.parts or (self.rows + rows.comp_logm.shape[0] <= BLOCK_ROWS
                                  and self._widths(rows) == self.widths)

    def add(self, rows: _Rows, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Add step t of ``rows``; returns its true and log-conditionals."""
        if not self.parts:
            self.widths = self._widths(rows)
        true_cond, log_cond = self.ev.conditionals(rows.states, t)
        self.parts.append((true_cond, log_cond, rows.comp_logm, *self.ev.scheme_states(rows)))
        self.rows += rows.comp_logm.shape[0]
        return true_cond, log_cond

    def arrays(self):
        """``evaluate``'s arguments over the whole block: each part of every
        step concatenated in step order along the rows (axis -2).  The block
        lets go of its per-step parts, so they are freed before evaluation."""
        parts, self.parts, self.rows = self.parts, [], 0
        true_cond, log_cond, comp_logm, *scheme_states = [
            np.concatenate(part, axis=-2) for part in zip(*parts)]
        return true_cond, log_cond, comp_logm, scheme_states


# _row_hash's odd multiplier and shift, and the salt step (splitmix64's).  The
# constants are 0-d uint64 arrays: uint64 with uint64 stays wrapping uint64 on
# every numpy version, and unlike a numpy scalar a 0-d array is not converted
# on every call, which counts on levels of a few dozen rows.
_HASH_MULTIPLIER = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_SHIFT = np.array(31, dtype=np.uint64)
_SALT_STEP = 0x9E3779B97F4A7C15
_MERGE_ATTEMPTS = 64


def _row_hash(keys: np.ndarray, attempt: int) -> np.ndarray:
    """A uint64 hash of each int64 row, salted by ``attempt``.

    Each column is mixed in nonlinearly (xor, multiply, xor-shift): a linear
    hash ``keys @ odd`` maps two columns that each differ by 2**63 to one
    value for every choice of odd multipliers.
    """
    h = np.full(keys.shape[0], (attempt + 1) * _SALT_STEP % 2**64, dtype=np.uint64)
    for column in keys.view(np.uint64).T:
        h ^= column
        h *= _HASH_MULTIPLIER
        h ^= h >> _SHIFT
    return h


def _merge_equal_rows(keys: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first row of each distinct key, in order of first
    occurrence, and the summed multiplicities of the rows they stand for.

    One sort groups the rows: each row's hash with its low ``bits`` bits
    replaced by its index, ``bits`` being enough for any index.  The
    values are distinct, so a plain sort orders them; a run of equal high
    bits is one group, and its first value holds the group's first row.
    The grouping is then checked exactly, every row against its group's
    first row.  A hash collision fails the check, and the rows are hashed
    again with the next salt.  bincount adds every group's multiplicities
    in row order.
    """
    n = keys.shape[0]
    bits = max(1, (n - 1).bit_length())
    # the index bits and the hash bits, both from Python ints: ``~low`` would
    # load numpy's uint64 invert loop, whose code pages alone raise the peak
    # resident memory of a small run by ~60 KB
    low = np.array(2**bits - 1, dtype=np.uint64)
    high = np.array(2**64 - 2**bits, dtype=np.uint64)
    pos = np.arange(n, dtype=np.int64)
    for attempt in range(_MERGE_ATTEMPTS):
        packed = np.sort(_row_hash(keys, attempt) & high | pos.view(np.uint64))
        rows = (packed & low).view(np.int64)
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.greater(packed[1:] ^ packed[:-1], low, out=starts[1:])
        first = rows[np.maximum.accumulate(pos * starts)]      # per sorted row
        dup = ~starts
        if (keys.take(rows[dup], axis=0) == keys.take(first[dup], axis=0)).all():
            break
    else:
        raise RuntimeError(f"rows collided under {_MERGE_ATTEMPTS} hash salts")
    row_first = np.empty(n, dtype=np.int64)
    row_first[rows] = first
    keep = (row_first == pos).nonzero()[0]
    rank = np.empty(n, dtype=np.int64)
    rank[keep] = np.arange(keep.size)
    return keep, np.bincount(rank[row_first], weights=mult, minlength=keep.size)


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

    ``observer``, when given, is called once per level, in level order,
    after the level's block is walked and evaluated, as ``observer(step,
    weights, multiplicity, values, history)``: the 1-based step, the nodes'
    weights and multiplicities, ``values`` mapping each series name to its
    per-node array, and ``history(i)``, the first-seen history of node i as
    a list of symbols.  The walk never writes to these arrays again, so an
    observer may keep them.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    labelled = _label_losses(losses)
    ev = _StepEvaluator(mixture, true_index, labelled, schemes)
    per_step = np.zeros((len(ev.keys), horizon))

    rows = ev.start(1)
    # per level, each node's parent and last symbol: built only for an observer
    links: list[tuple[np.ndarray, np.ndarray]] = []
    # histories per node, as integer-valued float64: exact below 2**53, and
    # unlike int64 it does not overflow past horizon 62 on binary trees
    mult = np.ones(1)
    visits = 0

    def finish():
        """Evaluate the walked block; each level dots its weights with its
        share of the values, then the observer sees it."""
        values = ev.evaluate(*block.arrays())
        lo = 0
        for step, level_mult, weights in levels:
            level = values[:, lo:lo + weights.shape[0]]
            lo += weights.shape[0]
            for row, series in enumerate(level):
                per_step[row, step] = weights @ series
            if observer is not None:
                observer(step + 1, weights, level_mult, dict(zip(ev.keys, level)),
                         partial(_first_history, links, step))
        levels.clear()

    # walk the tree one block of levels ahead, keeping each level's step,
    # multiplicities and weights for its share of the block's values
    block, levels = _Block(ev), []
    for t in range(horizon):
        if not block.accepts(rows):
            finish()
        visits += mult.shape[0]
        if visits > node_budget:
            raise BudgetExceededError(visits, node_budget)
        true_cond, log_cond = block.add(rows, t)
        levels.append((t, mult, mult * np.exp(rows.comp_logm[:, true_index])))
        if block.full:
            # no further level fits: evaluate before the tree grows past the
            # block, while its last level's arrays are still in cache
            finish()
        # extend every (parent, symbol) of positive probability, symbol-major
        # so the layout is traversal-independent; link the new nodes to
        # their parents only when an observer sees them
        symbols, parents = np.nonzero(true_cond.T > 0.0)
        rows = ev.extend(rows.take(parents), log_cond[:, parents, symbols].T, symbols)
        keep, mult = _merge_equal_rows(rows.merge_key(), mult[parents])
        rows = rows.take(keep)
        if observer is not None and t + 1 < horizon:
            links.append((parents[keep], symbols[keep]))
    if levels:
        finish()

    # leaf level: expectation of the full-string log-ratio
    visits += mult.shape[0]
    if visits > node_budget:
        raise BudgetExceededError(visits, node_budget)
    kl_direct = float((mult * np.exp(rows.comp_logm[:, true_index])) @ ev.log_ratio(rows))

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
    step and for each series' total over the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    labelled = _label_losses(losses)
    ev = _StepEvaluator(mixture, true_index, labelled, schemes)
    keys = ev.keys
    rng = np.random.default_rng(seed)

    # one row per series: per-step means and standard errors, and each
    # path's running sum for the standard error of the series' total
    means = np.empty((len(keys), horizon))
    se_step = np.empty((len(keys), horizon))
    running = np.zeros((len(keys), samples))

    paths = ev.start(samples)
    rows = np.arange(samples)

    t = 0
    while t < horizon:
        # walk the paths one block of steps ahead, keeping what evaluate needs
        start, block = t, _Block(ev)
        while t < horizon and block.accepts(paths):
            true_cond, log_cond = block.add(paths, t)
            nxt = draw_symbols(true_cond, rng.random(samples))
            paths = ev.extend(paths, log_cond[:, rows, nxt].T, nxt)
            t += 1
        vals = ev.evaluate(*block.arrays()).reshape(len(keys), t - start, samples)
        means[:, start:t] = vals.mean(axis=-1)
        se_step[:, start:t] = _standard_errors(vals)
        for j in range(t - start):             # one add per step: a per-step loop's bits
            running += vals[:, j]

    ratios = ev.log_ratio(paths)
    return _build_report("monte-carlo", mixture, true_index, labelled, ev.schemes, horizon,
                         dict(zip(keys, means)), float(ratios.mean()), samples=samples, seed=seed,
                         se_per_step=dict(zip(keys, se_step)),
                         se_total=dict(zip(keys, _standard_errors(running).tolist())),
                         kl_direct_se=float(_standard_errors(ratios[None, :])[0]))


def ratio_trace(mixture: MixtureModel, true_index: int, path, *,
                symbol: int | None = None) -> np.ndarray:
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
    if not symbols:
        raise ValueError("path must not be empty")
    if symbol is not None:
        symbol = mixture.alphabet.check(symbol)
    ev = _StepEvaluator(mixture, true_index, {}, ())
    rows = ev.start(1)
    # walk the path, keeping each step's rows; evaluate them in one block
    block = _Block(ev)
    for t, x in enumerate(symbols):
        at = x if symbol is None else symbol
        true_cond, log_cond = block.add(rows, t)
        if true_cond[0, x] <= 0.0:
            raise ValueError(f"path symbol {x} at step {t + 1} has zero true-measure probability")
        if true_cond[0, at] <= 0.0:
            raise ValueError(f"symbol {at} at step {t + 1} has zero true-measure probability")
        rows = ev.extend(rows, log_cond[:, :, x].T, np.array([x]))
    true_b, log_b, logm_b, _ = block.arrays()
    steps = np.arange(len(symbols))
    cols = np.array(symbols) if symbol is None else np.full(len(symbols), symbol)
    return mixture.conditionals(log_b, logm_b)[steps, cols] / true_b[steps, cols]
