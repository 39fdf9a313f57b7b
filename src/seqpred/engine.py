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
sequential.  Every per-history value depends only on that history's row, so
the rest runs once per block of steps: one ``evaluate`` over the rows of all
its steps.  A block takes steps while its rows stay within ``BLOCK_ROWS``,
always at least one.  The widening rule: a whole-history state widens
every step, so a widening scheme holds every block to one step (its rows
must stack), and a widening component holds a Monte Carlo or trace block
to one step (it takes one symbol per ``extend_state``); one probe in
``_StepEvaluator.__init__`` (``_widens``) sets both.  A step
wider than ``BLOCK_ROWS`` (a wide tree level, or more Monte Carlo paths) is
a block of its own, and ``evaluate`` works through any block ``BLOCK_ROWS``
rows at a time, each slice into its columns of the block's values: that is
the block rule.  No per-block temporary is larger than ``BLOCK_ROWS`` rows
plus the step's own arrays, and since every layer is row-independent the
slices give the bits of one pass (``MatrixLoss``' lone-row rule covers a
one-row remainder).

* ``exact_evaluate`` enumerates every history with positive true-measure
  probability (zero-probability branches are pruned; they carry no
  expectation mass), merging histories whose state is bitwise identical.
  Expectations are exact weighted sums: per level, one batched product of
  the level's weights with its slice of the block's values, a (1, n) @
  (n, 1) product per series, which numpy computes with the ddot of
  ``weights @ series``.  A block that no further level can join
  (``BLOCK_ROWS`` rows or more) is evaluated before the tree grows past it,
  while its arrays are still in cache.  The work budget counts visited
  (merged) nodes.  The tree's children depend on every component's
  conditionals, so each level is one ``_StepEvaluator.conditionals`` call,
  and ``_Block`` keeps the levels' rows until the block is evaluated, into
  a values array of its own; a one-level block evaluates the level's own
  arrays, with no copy.  An ``observer`` sees each level, in level
  order once its block is evaluated: its weights, multiplicities and
  per-node values (views of the block's array, which the walk never writes
  again), and the first-seen history of any node, rebuilt from per-level
  parent links.  The links are the only per-level data kept, and only when
  an observer is given.
* ``monte_carlo_evaluate`` samples paths from the true measure and averages.
  Per-step conditionals along each path are computed exactly, so randomness
  enters only through path selection; standard errors come from the sample
  variance across paths.  A step draws ``samples`` uniforms, so a block holds
  L = ``max(1, BLOCK_ROWS // samples)`` steps, and draws them as one
  ``rng.random((L, samples))``: the doubles of L per-step draws.  The paths
  are walked by ``_walk_paths``, the one walk along known symbols (below).
  Every block is evaluated into one (series, L·S) array kept for the whole run.
  After each ``evaluate``, the per-step means and standard errors of every
  series come from one sum over the last axis of a (series, steps, samples)
  array (``_means_and_standard_errors``, by the steps of numpy's ``mean``
  and ``std``), and each step is added to every path's running sum.  The
  standard error of each series' total is taken once, from those sums after
  the walk.  No path history is kept: S paths of length n cost O(S·n) time,
  and the memory the paths hold does not grow with n when every state has
  a fixed width.

Each slice of a block's ``evaluate`` runs over all its rows, with one numpy
call per layer:

* the K components' log-conditionals are stacked component-major, (K, M, N)
  for M histories and N symbols; the mixture lays its (K, M) prior terms
  and their sums with each symbol's log-conditionals out as one (K, N + 1,
  M) array, so one log-sum-exp over axis 0 gives ξ(h) and every ξ(hx),
  adding the components in order;
* ``distances_batch`` writes the five distances and the ratio term into
  their rows of the block's values, each adding its symbol columns left
  to right;
* each scheme's actions are computed once per block, under the first loss
  (``__init__`` checks every (scheme, loss) pair on one empty history);
* per action type, one (P, M) action array holds the mixture, informed and
  every scheme's actions (P = 2 + schemes), the schemes' rows cast into it
  once per block; per loss, ``bayes_actions`` runs once on the mixture and
  true conditionals stacked together and overwrites rows 0-1, and
  ``expected_losses`` scores the array straight into the loss's P rows of
  the block's values (its ``out``).

That is the in-place rule: each per-block layer writes into an array it is
handed or already owns, and builds no (P, M) temporary it does not need.

Every reduction over the K components or the N symbols in these layers, and
the Monte Carlo symbol draw (``measures.draw_symbols``), takes K or N whole
columns or slabs (``columns``, ``logdomain.log_sum_exp_over_axis``): numpy's
own reduction over a short last axis runs one inner loop per history.
``evaluate`` returns every series as one (series, M) array.

The state of a history is one ``_Rows`` row: its per-component
log-marginals and the carried state of each component, then of each scheme.
Components and schemes follow one protocol (``measures.StateCarrier``), so
``_Rows`` holds their states in one tuple; ``take(idx)`` selects rows, one
``ndarray.take(idx, axis=0)`` per array.  That is the gather rule: every
row gather in the per-level and per-block paths is a ``take``, and every
repeated row a ``row[None].repeat(n, axis=0)``, since a 2-D fancy index and
``np.tile`` run several times slower.  A gather of one entry per row -- the
tree's children's log-conditionals (``_StepEvaluator.children``), a Monte
Carlo block's (``mixture.log_marginals_through``) and each action's risk
(``MatrixLoss.expected_losses``) -- is one flat ``take`` at ``row * width +
column``.

The three walks -- the exact tree, the Monte Carlo paths and
``ratio_trace`` -- start from ``_StepEvaluator.start(n)``.  ``extend_state``
takes a block of symbols, (L, M), and returns the (L, M, W) states after
each.  The exact tree extends each history by every symbol of positive true
probability, one level at a time, by ``_StepEvaluator.children``: each
level's conditionals are one ``mixture.component_conditionals`` call, the
parents are picked symbol-major (all children by symbol 0, then by symbol
1, ...), their log-conditionals are added into the gathered parents'
log-marginals in place, and every state extends by its symbol.  Monte Carlo
and the trace walk along known symbols by ``_walk_paths``: the next symbol
depends on a path only through the true measure's state, so only the truth
takes the block's steps one symbol at a time, its ``_step_matrix`` on the
paths and a ``choose`` that draws each path's symbol (Monte Carlo) or reads
the fixed path and rejects a zero-probability step (the trace).  Then
``mixture.walk_block`` walks every component through the block's symbols:
one ``extend_state`` and one ``_step_matrix`` call each over the block's
L·M rows (one step per row), one stack of their logs, and the
log-marginals before each step as one running sum along the steps.  Each
scheme state extends by the block's symbols in one call.  The states feed
``_step_matrix(states, t)`` and ``actions(states, loss)``, so nothing
rescans a history.  The default state is the whole history.  Bernoulli,
time-varying and deterministic measures and constant schemes carry nothing
(``measures.Stateless``),
a Markov chain its last ``order`` symbols (a window of the block's), a
mixture used as a component its components' log-marginals and states, and
majority vote its symbol counts (the start plus a running sum of one-hot
rows).  ``log_ratio(rows)`` gives each row's full-history
log(true/mixture), the ``kl_direct`` of both engines.

A row's merge key is its bit pattern of the log-marginals, then every
carried state, all int64 (``_Rows.key_parts``, the arrays as they lie; no
key matrix is built).  Every per-node value and every later state is a
function of it, so after each tree extension the exact engine keeps one
node per distinct key, in order of first occurrence, with an
integer-valued multiplicity; merged nodes give bit-identical values and
only the order of the weighted sum changes.  ``_merge_equal_rows`` hashes
the parts column by column and groups the rows with one sort of uint64
values: each row's 64-bit hash with its low bits replaced by the row's
index, so a group's first value is its first row.  Every duplicate row is
then compared exactly, part by part, with its group's first row; a hash
collision fails that check and the level is hashed again with the next
salt, so the groups are those of the keys, not of their hashes.  The hash,
its packing and sort and the first rows are written in place, so the merge
holds a few (M,) arrays beside the level's own.  The
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

# bench/tracing.py wraps this module's distances_batch, ratio_term_batch,
# log_sum_exp_over_axis and log_or_neg_inf by name
from .distances import DISTANCE_KEYS, distances_batch, ratio_term_batch  # noqa: F401
from .logdomain import log_or_neg_inf, log_sum_exp_over_axis  # noqa: F401
from .losses import LossSpec
from .measures import StateCarrier, as_symbols, draw_symbols, states_before
from .mixture import MixtureModel, component_conditionals, walk_block
from .schemes import PredictionScheme

if TYPE_CHECKING:
    from .bounds import InstantChecks

DEFAULT_NODE_BUDGET = 2**24
# rows of one block of steps evaluated in one pass (``_Block``)
BLOCK_ROWS = 4096


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
        """The rows ``idx``; int64 states of width 0 need no gather, and
        share one empty array."""
        none = np.empty((idx.size, 0), dtype=np.int64)
        return _Rows(self.comp_logm.take(idx, axis=0),
                     tuple([s.take(idx, axis=0) if s.shape[1] or s.dtype != none.dtype
                            else none for s in self.states]))

    def key_parts(self) -> list[np.ndarray]:
        """Everything a history's later values depend on, one row per
        history in each array: the bit pattern of the log-marginals, then
        every carried state (``_merge_equal_rows``' parts)."""
        return [self.comp_logm.view(np.int64), *self.states]


def _widens(carrier: StateCarrier) -> bool:
    """Whether a symbol widens the carrier's state, as it widens the
    whole-history default's: such a state takes one symbol per
    ``extend_state`` call."""
    start = carrier.initial_state(1)
    after = carrier.extend_state(start, np.zeros((1, 1), dtype=np.int64))
    return after.shape[2] != start.shape[1]


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
        # the widening rule: a block's scheme states stack, so a widening
        # scheme holds every block to one step; a widening state takes one
        # symbol per ``extend_state``, so any widening carrier holds a walk
        # along known symbols (a Monte Carlo or trace block) to one step
        widens = [_widens(c) for c in self.carriers]
        self.schemes_widen = any(widens[len(self.components):])
        self.walks_widen = any(widens)

    def start(self, n: int) -> _Rows:
        """The rows of n empty histories."""
        return _Rows(np.zeros((n, len(self.components))),
                     tuple([c.initial_state(n) for c in self.carriers]))

    def children(self, rows: _Rows, log_cond: np.ndarray, parents: np.ndarray,
                 symbols: np.ndarray) -> _Rows:
        """Each parent row's history extended by its symbol (the exact tree's
        extension): the parents' rows gathered, the children's component
        log-conditionals gathered from the (K, M, N) ``log_cond`` by one flat
        ``take`` and added into the gathered log-marginals in place, then
        every state extended by its symbol."""
        k, m, n = log_cond.shape
        gathered = rows.take(parents)
        log_p = log_cond.reshape(k, m * n).take(parents * n + symbols, axis=1)
        np.add(gathered.comp_logm, log_p.T, out=gathered.comp_logm)
        block = symbols[None]
        return _Rows(gathered.comp_logm, tuple([c.extend_state(st, block)[0]
                                                for c, st in zip(self.carriers, gathered.states)]))

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
        mats, log_cond = component_conditionals(self.components, states, t)
        return mats[self.true_index], log_cond

    def evaluate(self, true_cond: np.ndarray, log_cond: np.ndarray, comp_logm: np.ndarray,
                 scheme_states: Sequence[np.ndarray], out: np.ndarray | None = None):
        """Per-history values of M rows, which may come from several steps.

        ``comp_logm`` holds each row's component log-marginals and
        ``scheme_states`` each scheme's carried state, one row per history.
        Writes every series into ``out``, a (series, M) array whose rows
        follow ``self.keys`` (a new one when None), and returns it.

        The rows go through ``_evaluate_slice`` at most ``BLOCK_ROWS`` at a
        time, each slice into its columns of ``out``.  Every layer is
        row-independent, so the slices give the bits of one pass over all
        rows, and no temporary holds more than ``BLOCK_ROWS`` rows.
        """
        m = true_cond.shape[0]
        values = np.empty((len(self.keys), m)) if out is None else out
        for lo in range(0, m, BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            self._evaluate_slice(true_cond[lo:hi], log_cond[:, lo:hi], comp_logm[lo:hi],
                                 [st[lo:hi] for st in scheme_states], values[:, lo:hi])
        return values

    def _evaluate_slice(self, true_cond: np.ndarray, log_cond: np.ndarray,
                        comp_logm: np.ndarray, scheme_states: Sequence[np.ndarray],
                        values: np.ndarray) -> None:
        """``evaluate`` of at most ``BLOCK_ROWS`` rows, into the (series, M)
        ``values``."""
        mix_cond = self.mixture.conditionals(log_cond, comp_logm)
        m = true_cond.shape[0]
        distances_batch(true_cond, mix_cond, out=values[:len(DISTANCE_KEYS)])
        # one (P, M) action array per action dtype: rows 0-1 the mixture and
        # informed actions, which each loss overwrites with its own, then
        # each scheme's actions, computed once and cast into every array
        # once; each loss scores its array into its P rows of ``values``
        both = np.concatenate([mix_cond, true_cond])
        losses = list(self.losses.values())
        played = [s.actions(st, losses[0])
                  for s, st in zip(self.schemes, scheme_states)] if losses else []
        by_dtype: dict[np.dtype, np.ndarray] = {}
        row, p = len(DISTANCE_KEYS), 2 + len(played)
        for loss in losses:
            dtype = np.dtype(loss.action_dtype)
            actions = by_dtype.get(dtype)
            if actions is None:
                actions = by_dtype[dtype] = np.empty((p, m), dtype)
                for r, a in enumerate(played, 2):
                    actions[r] = a
            actions[:2] = loss.bayes_actions(both).reshape(2, m)
            loss.expected_losses(true_cond, actions, out=values[row:row + p])
            row += p


class _Block:
    """Tree levels walked ahead of one evaluation, and the rule that closes
    them.

    Each level adds its rows' ``(true_cond, log_cond, comp_logm,
    *scheme_states)``: what ``_StepEvaluator.evaluate`` reads.  A block takes
    levels while its rows stay within ``BLOCK_ROWS``, always at least one,
    and one level only when a scheme state widens (the widening rule).
    ``arrays`` empties the block for the next levels.
    """

    def __init__(self, ev: _StepEvaluator):
        self.ev = ev
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.rows = 0

    @property
    def full(self) -> bool:
        """Whether no further step can join (every step has a row)."""
        return self.rows >= BLOCK_ROWS

    def accepts(self, rows: _Rows) -> bool:
        """Whether the step of ``rows`` joins the block."""
        return not self.parts or (not self.ev.schemes_widen
                                  and self.rows + rows.comp_logm.shape[0] <= BLOCK_ROWS)

    def add(self, rows: _Rows, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Add level t of ``rows``; returns its true and log-conditionals."""
        true_cond, log_cond = self.ev.conditionals(rows.states, t)
        self.parts.append((true_cond, log_cond, rows.comp_logm, *self.ev.scheme_states(rows)))
        self.rows += rows.comp_logm.shape[0]
        return true_cond, log_cond

    def arrays(self):
        """``evaluate``'s arguments over the whole block: each part of every
        step concatenated in step order along the rows (axis -2), or a
        one-step block's own parts.  The block lets go of its per-step
        parts, so a concatenated block's are freed before evaluation."""
        parts, self.parts, self.rows = self.parts, [], 0
        true_cond, log_cond, comp_logm, *scheme_states = [
            part[0] if len(part) == 1 else np.concatenate(part, axis=-2)
            for part in zip(*parts)]
        return true_cond, log_cond, comp_logm, scheme_states


# _row_hash's odd multiplier and shift, and the salt step (splitmix64's).  The
# constants are 0-d uint64 arrays: uint64 with uint64 stays wrapping uint64 on
# every numpy version, and unlike a numpy scalar a 0-d array is not converted
# on every call, which counts on levels of a few dozen rows.
_HASH_MULTIPLIER = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_SHIFT = np.array(31, dtype=np.uint64)
_SALT_STEP = 0x9E3779B97F4A7C15
_MERGE_ATTEMPTS = 64
# ``_merge_equal_rows``' index bits and hash bits of every index width ``bits``,
# both from Python ints: ``~low`` would load numpy's uint64 invert loop, whose
# code pages alone raise the peak resident memory of a small run by ~60 KB
_MASKS = [(np.array(2**bits - 1, dtype=np.uint64), np.array(2**64 - 2**bits, dtype=np.uint64))
          for bits in range(64)]


def _row_hash(parts: Sequence[np.ndarray], attempt: int) -> np.ndarray:
    """A uint64 hash of each row of the int64 ``parts``, taken as one row of
    all their columns, salted by ``attempt``.

    Each column is mixed in nonlinearly (xor, multiply, xor-shift): a linear
    hash ``keys @ odd`` maps two columns that each differ by 2**63 to one
    value for every choice of odd multipliers.  The shift goes through one
    buffer, so the hash holds two (M,) arrays whatever the width.
    """
    n = parts[0].shape[0]
    h = np.full(n, (attempt + 1) * _SALT_STEP % 2**64, dtype=np.uint64)
    shifted = np.empty(n, dtype=np.uint64)
    for part in parts:
        for column in part.view(np.uint64).T:
            h ^= column
            h *= _HASH_MULTIPLIER
            np.right_shift(h, _SHIFT, shifted)
            h ^= shifted
    return h


def _merge_equal_rows(parts: Sequence[np.ndarray],
                      mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first row of each distinct key, in order of first
    occurrence, and the summed multiplicities of the rows they stand for.

    A row's key is its row of every array in ``parts``, side by side (see
    ``_Rows.key_parts``).  Each part is hashed and compared where it lies;
    one of width 0 holds nothing and is skipped, and one that is not int64
    is cast to it by the ``same_kind`` rule (TypeError for a float state).

    One sort groups the rows: each row's hash with its low ``bits`` bits
    replaced by its index, ``bits`` being enough for any index.  The values
    are distinct, so a plain sort orders them; a run of equal high bits is
    one group, and its first value holds the group's first row.  The
    grouping is then checked exactly, every row against its group's first
    row.  A hash collision fails the check, and the rows are hashed again
    with the next salt.  bincount adds every group's multiplicities in row
    order.  The hash is packed and sorted in place, and the first rows are
    written over it, so the merge holds a few (M,) arrays and the gathered
    keys of the duplicate rows.
    """
    keys = [p if p.dtype.type is np.int64 else p.astype(np.int64, casting="same_kind")
            for p in parts if p.shape[1]]
    n = mult.shape[0]
    low, high = _MASKS[max(1, (n - 1).bit_length())]
    pos = np.arange(n, dtype=np.int64)
    upos = pos.view(np.uint64)
    rows = np.empty(n, dtype=np.int64)                  # the row of each sorted value
    urows = rows.view(np.uint64)
    starts = np.empty(n, dtype=bool)                    # where each group starts
    starts[0] = True
    for attempt in range(_MERGE_ATTEMPTS):
        packed = _row_hash(keys, attempt)
        packed &= high
        packed |= upos
        packed.sort()
        np.bitwise_and(packed, low, urows)
        # a group starts where the (ascending) high bits grow
        packed ^= urows
        np.greater(packed[1:], packed[:-1], starts[1:])
        # each sorted value's group's first row, written over the hash
        first = packed.view(np.int64)
        np.multiply(pos, starts, first)
        np.maximum.accumulate(first, 0, None, first)
        # every index is in range, and take reads each one before it writes
        # its slot, so the first rows can overwrite their own indices
        rows.take(first, 0, first, "clip")
        dup = ~starts
        later, earlier = rows[dup], first[dup]
        for k in keys:
            if not (k.take(later, axis=0) == k.take(earlier, axis=0)).all():
                break
        else:
            break
    else:
        raise RuntimeError(f"rows collided under {_MERGE_ATTEMPTS} hash salts")
    row_first = np.empty(n, dtype=np.int64)             # each row's group's first row
    row_first[rows] = first
    keep = (row_first == pos).nonzero()[0]
    rank = first                                        # each first row's group number
    rank[keep] = np.arange(keep.size)
    return keep, np.bincount(rank.take(row_first), weights=mult, minlength=keep.size)


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


def _level_sums(level: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights @ series`` of every (series, n) row of ``level``, as one
    batched product: per row a (1, n) @ (n, 1) product, which numpy sends to
    the same ddot as the 1-D dot, so each sum keeps its bits."""
    return (level[:, None] @ weights[:, None])[:, 0, 0]


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
        """Evaluate the walked block into a new array, as the observer may
        keep views of it; each level reduces its share of the values with
        one batched product of its weights, then the observer sees it."""
        values = ev.evaluate(*block.arrays())
        lo = 0
        for step, level_mult, weights in levels:
            level = values[:, lo:lo + weights.shape[0]]
            lo += weights.shape[0]
            per_step[:, step] = _level_sums(level, weights)
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
        rows = ev.children(rows, log_cond, parents, symbols)
        keep, mult = _merge_equal_rows(rows.key_parts(), mult.take(parents))
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


def _walk_paths(ev: _StepEvaluator, rows: _Rows, t: int, steps: int,
                choose: Callable[[int, np.ndarray], np.ndarray]) -> tuple[_Rows, tuple]:
    """``rows`` walked ``steps`` steps along known symbols from step t: the
    rows after the walk, and ``evaluate``'s arguments (but ``out``) for the
    rows before each step, in step order.

    Only the truth takes the steps one symbol at a time: ``choose(t + j,
    cond)`` gives each row's symbol of step t + j from the truth's (M, N)
    conditionals ``cond`` there, drawn (Monte Carlo) or read off a fixed path
    (``ratio_trace``).  ``mixture.walk_block`` then walks every component
    through the block's symbols, and each scheme state extends by them in
    one call.
    """
    k, truth = len(ev.components), ev.components[ev.true_index]
    state, scheme_states = rows.states[ev.true_index], ev.scheme_states(rows)
    symbols = np.empty((steps, rows.comp_logm.shape[0]), dtype=np.int64)
    for j in range(steps):
        symbols[j] = choose(t + j, truth._step_matrix(state, t + j))
        state = truth.extend_state(state, symbols[j:j + 1])[0]
    after, mats, log_cond, logm = walk_block(ev.components, rows.comp_logm, rows.states[:k],
                                             symbols, t)
    after += [s.extend_state(st, symbols) for s, st in zip(ev.schemes, scheme_states)]
    return (_Rows(logm[-1], tuple([a[-1] for a in after])),
            (mats[ev.true_index], log_cond, logm[:-1].reshape(-1, k),
             [states_before(st, a) for st, a in zip(scheme_states, after[k:])]))


def _means_and_standard_errors(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean over the last axis (the samples) and its standard error; the
    error is inf where a row holds a non-finite value (its std is NaN).

    Both come from one sum, by the steps of numpy's own ``mean`` and ``std``,
    so they have the bits of ``vals.mean(-1)`` and ``vals.std(-1, ddof=1) /
    sqrt(n)``: the sum over n, the deviations from it squared in place, and
    their sum over n - 1, square-rooted.
    """
    n = vals.shape[-1]
    with np.errstate(invalid="ignore"):
        mean = vals.sum(axis=-1, keepdims=True)
        mean /= n
        dev = np.subtract(vals, mean)
        np.multiply(dev, dev, out=dev)
        se = dev.sum(axis=-1)
        se /= n - 1
        np.sqrt(se, out=se)
        se /= math.sqrt(n)
    se[~np.isfinite(se)] = math.inf
    return mean[..., 0], se


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
    steps = 1 if ev.walks_widen else max(1, BLOCK_ROWS // samples)

    # one row per series: per-step means and standard errors, and each
    # path's running sum for the standard error of the series' total
    means = np.empty((len(keys), horizon))
    se_step = np.empty((len(keys), horizon))
    running = np.zeros((len(keys), samples))
    # every block's values, in one array for the whole run
    values = np.empty((len(keys), steps * samples))

    paths = ev.start(samples)
    for t in range(0, horizon, steps):
        n = min(steps, horizon - t)
        uniforms = rng.random((n, samples))
        paths, block = _walk_paths(ev, paths, t, n,
                                   lambda s, cond: draw_symbols(cond, uniforms[s - t]))
        vals = ev.evaluate(*block, values[:, :n * samples]).reshape(len(keys), n, samples)
        del block, uniforms                    # freed before the next block's walk
        means[:, t:t + n], se_step[:, t:t + n] = _means_and_standard_errors(vals)
        for j in range(n):                     # one add per step: a per-step loop's bits
            running += vals[:, j]

    se_total = _means_and_standard_errors(running)[1]
    kl_direct, kl_direct_se = _means_and_standard_errors(ev.log_ratio(paths)[None, :])
    return _build_report("monte-carlo", mixture, true_index, labelled, ev.schemes, horizon,
                         dict(zip(keys, means)), float(kl_direct[0]), samples=samples, seed=seed,
                         se_per_step=dict(zip(keys, se_step)),
                         se_total=dict(zip(keys, se_total.tolist())),
                         kl_direct_se=float(kl_direct_se[0]))


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
    xs = np.array(symbols)
    at = xs if symbol is None else np.full(xs.size, symbol)

    def follow(s: int, true_cond: np.ndarray) -> np.ndarray:
        for what, x in (("path symbol", xs[s]), ("symbol", at[s])):
            if true_cond[0, x] <= 0.0:
                raise ValueError(f"{what} {x} at step {s + 1} has zero true-measure probability")
        return xs[s:s + 1]

    # the whole path is one block, or one block a step under the widening rule
    steps = 1 if ev.walks_widen else xs.size
    rows, ratios = ev.start(1), []
    for t in range(0, xs.size, steps):
        rows, (true_cond, log_cond, comp_logm, _) = _walk_paths(
            ev, rows, t, min(steps, xs.size - t), follow)
        mix_cond = mixture.conditionals(log_cond, comp_logm)
        rows_at = np.arange(true_cond.shape[0])
        cols = at[t:t + rows_at.size]
        ratios.append(mix_cond[rows_at, cols] / true_cond[rows_at, cols])
    return np.concatenate(ratios)
