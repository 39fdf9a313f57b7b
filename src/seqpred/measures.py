"""Probability measures over finite-alphabet symbol sequences.

A measure assigns each finite string x_1..x_t the probability that an
infinite sequence starts with it.  Each family states its law once, as
``_step_matrix(states, t)``: the conditional distributions of the next
symbol after a batch of histories, each seen through a carried state
(``StateCarrier``).  Marginals are chain-rule products of those
conditionals, accumulated in the log domain by one walk that the scalar API
and the evaluation engines share (``initial_state``, then per symbol
``_step_matrix`` and ``extend_state``, logs by ``log_or_neg_inf``; the
engines take a block of steps at a time), so

    log_marginal(x_1..x_t) == log_marginal(x_1..x_{t-1}) + log(cond)

holds exactly by construction, and ``log_marginal`` has the bits the
engines carry.  Impossible strings get an exact -inf.

Shipped measure families:

* ``BernoulliMeasure(theta)``         -- i.i.d. binary, P(1) = theta
* ``MarkovMeasure(transitions, ...)`` -- order-k chain over any alphabet
* ``DeterministicMeasure(generator)`` -- point mass on one infinite string
* ``TimeVaryingBinaryMeasure(rule)``  -- binary with P(1 at step t) = rule(t)
* ``ExplicitTableMeasure(table)``     -- finite-horizon conditional table

Measures are immutable after construction and safe to share; sampling takes
an explicit seed and owns its generator state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .logdomain import NEG_INF, log_or_neg_inf

# sum tolerance of a probability vector given as input, and of one computed
# from other probabilities (a posterior)
SUM_TOL = 1e-12
POSTERIOR_SUM_TOL = 1e-9


class InvalidSymbolError(ValueError):
    """A symbol index falls outside the measure's alphabet."""


class UndefinedConditionalError(ValueError):
    """Conditioning on a zero-probability history (or beyond a table horizon)."""


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set {0, .., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.size}")

    def check(self, symbol: int) -> int:
        s = int(symbol)
        if not 0 <= s < self.size:
            raise InvalidSymbolError(f"symbol {symbol} outside alphabet of size {self.size}")
        return s


def as_symbols(string, alphabet: Alphabet) -> tuple[int, ...]:
    """Normalize a history/string argument to a tuple of valid symbol indices.

    Accepts a digit string like "0110" or any sequence of ints.
    """
    if isinstance(string, str):
        try:
            seq = [int(c) for c in string]
        except ValueError as exc:
            raise InvalidSymbolError(f"non-digit character in string {string!r}") from exc
    else:
        seq = list(string)
    return tuple(alphabet.check(s) for s in seq)


def draw_symbols(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw of one symbol per row of ``probs`` from uniforms ``u``.

    Row i gets the number of cdf entries <= u[i] (searchsorted, side
    "right"), so a zero-probability symbol below the last positive one is
    never drawn, not even at u == 0.  When rounding leaves the cdf below 1
    and u lands past it, the row gets its last positive-probability symbol
    (the last symbol on a row of zeros).  The cdf, the count and the last
    positive symbol are built one whole symbol column at a time; the cdf
    adds the columns in order, as ``np.cumsum`` does.
    """
    cdf = probs[:, 0]
    drawn = (u >= cdf).astype(np.int64)
    last_positive = np.full(probs.shape[0], probs.shape[1] - 1)
    np.copyto(last_positive, 0, where=cdf > 0.0)
    for j in range(1, probs.shape[1]):
        cdf = cdf + probs[:, j]
        drawn += u >= cdf
        np.copyto(last_positive, j, where=probs[:, j] > 0.0)
    return np.minimum(drawn, last_positive)


class StateCarrier:
    """A causal rule that sees a history only through its carried *state*.

    The evaluation engines carry one int64 row per history, start it with
    ``initial_state`` and extend it by a block of symbols at a time with
    ``extend_state``.  The default state is the whole history; a rule that
    depends on less overrides both to carry less.  The state must fix every
    later value of the rule, because the exact engine merges histories that
    agree on it (and on their log-marginals).  A state widens every step or
    never: one that widens (the whole history) takes one symbol per
    ``extend_state`` call, and a walk holds its blocks to one step for it.
    Measures and prediction schemes both follow this protocol.
    """

    def initial_state(self, n: int) -> np.ndarray:
        """States of ``n`` empty histories: one int64 row each."""
        return np.zeros((n, 0), dtype=np.int64)

    def extend_state(self, states: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """The (L, M, W) states of the M histories ``states`` stands for after
        each of their next L symbols: ``symbols`` is (L, M), row j every
        history's (j+1)-th next symbol.  The default appends the symbol, so
        the state is the history; it widens every step, so it takes one
        symbol at a time (L == 1)."""
        if symbols.shape[0] != 1:
            raise ValueError("a whole-history state widens every step: extend it one symbol "
                             "at a time")
        return np.concatenate([states, symbols.T], axis=1)[None]


class Stateless(StateCarrier):
    """A rule that reads no symbol of the history: it carries the width-0
    initial state, at any block length.  Listed before the base class, its
    ``extend_state`` replaces the whole-history default."""

    def extend_state(self, states, symbols):
        return states[None].repeat(symbols.shape[0], axis=0)


def states_before(states: np.ndarray, after: np.ndarray) -> np.ndarray:
    """The states of M histories before each of the L steps of a block, as
    L·M rows in step order: ``states`` at the block's start, then each
    step's of ``after``, the (L, M, W) ``extend_state`` of the block, but
    its last.  A one-step block, whose state may widen, gives ``states``."""
    steps, m, width = after.shape
    if steps == 1:
        return states
    return np.concatenate([states[None], after[:-1]]).reshape(steps * m, width)


def _rows_by_step(t, n: int, row_at: Callable[[int], np.ndarray]) -> np.ndarray:
    """The (n, N) rows of a law that depends on the step only: ``row_at(s)``
    at step ``t``, one step for every row or an (n,) array of them."""
    if isinstance(t, (int, np.integer)):
        return row_at(int(t))[None].repeat(n, axis=0)
    steps, inverse = np.unique(t, return_inverse=True)
    return np.stack([row_at(s) for s in steps.tolist()]).take(inverse, axis=0)


class SequenceMeasure(StateCarrier):
    """Base class for probability measures over symbol sequences.

    Subclasses implement ``_step_matrix(states, t)``, the measure's one
    statement of its law: the next-symbol distributions of a batch of
    carried states at step t (histories of t symbols), one row per state.
    ``t`` is one int for every row, or an (M,) int array, one step per row,
    when the rows come from a block of steps.
    On a history of probability 0 a row may be any probability vector: the
    engines reach such histories whenever a component rules out a history
    that the true measure allows, and give them weight 0;
    ``conditional_vector`` raises there instead.  Families whose
    conditionals depend on less than the whole history carry less:
    Bernoulli, time-varying and deterministic measures carry nothing
    (``Stateless``), and a Markov chain its last ``order`` symbols.  A
    state that keeps its width extends by a whole block of symbols in one
    ``extend_state`` call.

    The scalar API walks one row the way the engines walk many:
    ``initial_state``, then per symbol ``_step_matrix`` and ``extend_state``,
    with logs taken by ``log_or_neg_inf``, so ``log_marginal`` gives the bits
    the engines carry.
    """

    is_deterministic = False

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def _step_matrix(self, states: np.ndarray, t: int) -> np.ndarray:
        raise NotImplementedError

    def _walk(self, symbols: tuple[int, ...]) -> tuple[float, np.ndarray]:
        """The log-marginal of ``symbols`` and the state after them, one row.
        The walk stops at the first impossible symbol (log-marginal -inf)."""
        state, total = self.initial_state(1), 0.0
        for t, x in enumerate(symbols):
            total += float(log_or_neg_inf(self._step_matrix(state, t))[0, x])
            if total == NEG_INF:
                break
            state = self.extend_state(state, np.array([[x]]))[0]
        return total, state

    # -- public API -------------------------------------------------------------
    def log_marginal(self, string) -> float:
        """Return log P(sequence starts with ``string``); -inf if impossible."""
        return self._walk(as_symbols(string, self.alphabet))[0]

    def conditional_vector(self, history) -> np.ndarray:
        """Distribution of the next symbol given ``history``.

        Raises UndefinedConditionalError when the history itself has zero
        probability (the conditional is not defined there).
        """
        h = as_symbols(history, self.alphabet)
        total, state = self._walk(h)
        if total == NEG_INF:
            raise UndefinedConditionalError(f"history {h} has zero probability under {self!r}")
        return self._step_matrix(state, len(h))[0]

    def conditional(self, history, symbol: int) -> float:
        return float(self.conditional_vector(history)[self.alphabet.check(symbol)])

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw one length-n string; deterministic given ``seed``."""
        if n < 1:
            raise ValueError("horizon must be >= 1")
        rng = np.random.default_rng(seed)
        out = np.empty(n, dtype=np.int64)
        state = self.initial_state(1)
        for t in range(n):
            out[t:t + 1] = draw_symbols(self._step_matrix(state, t), np.array([rng.random()]))
            state = self.extend_state(state, out[None, t:t + 1])[0]
        return out


class DistributionError(ValueError):
    """A malformed probability vector; ``field`` names the argument that holds it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_distribution(vec, what: str, field: str, tol: float = SUM_TOL,
                        size: int | None = None) -> np.ndarray:
    """``vec`` as a float array, if it is a probability vector: 1-D (of
    ``size`` entries when given), finite, entries in [0, 1], summing to 1
    within ``tol``."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise DistributionError(field, f"{what} must be a probability vector")
    if size is not None and vec.shape[0] != size:
        raise DistributionError(field, f"{what} has {vec.shape[0]} entries; the alphabet "
                                       f"has {size} symbols")
    # every comparison below is false for NaN
    if not np.isfinite(vec).all():
        raise DistributionError(field, f"{what} entries must be finite")
    if (vec < 0).any() or (vec > 1).any():
        raise DistributionError(field, f"{what} entries must lie in [0, 1]")
    if abs(float(vec.sum()) - 1.0) > tol:
        raise DistributionError(field, f"{what} must sum to 1 within {tol}, "
                                       f"got {float(vec.sum())!r}")
    return vec


class BernoulliMeasure(Stateless, SequenceMeasure):
    """I.i.d. binary measure with P(x_t = 1) = theta."""

    def __init__(self, theta: float):
        super().__init__(Alphabet(2))
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        self.theta = float(theta)
        self._vec = np.array([1.0 - self.theta, self.theta])

    def _step_matrix(self, states, t):
        return self._vec[None].repeat(states.shape[0], axis=0)

    def __repr__(self):
        return f"BernoulliMeasure({self.theta})"


class MarkovMeasure(SequenceMeasure):
    """Order-k Markov chain.

    ``transitions`` has shape (N,)*k + (N,): transitions[c_1, .., c_k] is the
    next-symbol distribution after context c_1..c_k (c_k most recent).  The
    first k symbols are drawn i.i.d. from ``initial`` (the chain itself has no
    canonical start; this choice is part of the measure definition and is
    stated in every preset that uses it).
    """

    def __init__(self, transitions, initial, order: int = 1):
        transitions = np.asarray(transitions, dtype=float)
        if order < 1:
            raise ValueError("order must be >= 1")
        if transitions.ndim != order + 1:
            raise ValueError(f"transition table for order {order} needs {order + 1} axes")
        n = transitions.shape[-1]
        if transitions.shape != (n,) * (order + 1):
            raise ValueError("transition table must be square over one alphabet")
        super().__init__(Alphabet(n))
        flat = transitions.reshape(-1, n)
        for i, row in enumerate(flat):
            _check_distribution(row, f"transition row {i}", "transitions")
        self.order = order
        self.transitions = transitions
        self._flat = flat
        self.initial = _check_distribution(initial, "initial distribution", "initial", size=n)

    def initial_state(self, n):
        # the last ``order`` symbols; before step ``order`` the first columns
        # are padding
        return np.zeros((n, self.order), dtype=np.int64)

    def extend_state(self, states, symbols):
        # a window of ``order`` symbols sliding over the block's
        window = np.concatenate([states, symbols.T], axis=1)
        return np.stack([window[:, j:j + self.order] for j in range(1, symbols.shape[0] + 1)])

    def _step_matrix(self, states, t):
        # context columns counted from the end: a carried state or a whole history
        one_step = isinstance(t, (int, np.integer))
        if one_step and t < self.order:
            return self.initial[None].repeat(states.shape[0], axis=0)
        # the context's row of the flat (N**order, N) table, oldest symbol first
        context = states[:, -self.order]
        for j in range(1 - self.order, 0):
            context = context * self.alphabet.size + states[:, j]
        mats = self._flat.take(context, axis=0)
        if not one_step:
            # a block's rows before step ``order`` read padding
            mats[t < self.order] = self.initial
        return mats

    def __repr__(self):
        return f"MarkovMeasure(order={self.order}, N={self.alphabet.size})"


class DeterministicMeasure(Stateless, SequenceMeasure):
    """Point measure on the single sequence generator(1), generator(2), ...

    ``generator`` maps a 1-based position to a symbol.  Histories that
    deviate from the generated prefix have probability zero.
    """

    is_deterministic = True

    def __init__(self, generator: Callable[[int], int], alphabet_size: int = 2):
        super().__init__(Alphabet(alphabet_size))
        self.generator = generator

    @classmethod
    def from_pattern(cls, pattern: Sequence[int], alphabet_size: int = 2) -> "DeterministicMeasure":
        """Cyclic repetition of ``pattern`` (e.g. [0, 1] -> 0101...)."""
        pat = tuple(Alphabet(alphabet_size).check(p) for p in pattern)
        if not pat:
            raise ValueError("pattern must be non-empty")
        return cls(lambda t: pat[(t - 1) % len(pat)], alphabet_size)

    def _step_matrix(self, states, t):
        # depends on the position only; on an off-path history (probability
        # 0) any vector will do
        return _rows_by_step(t, states.shape[0], self._row)

    def _row(self, t):
        vec = np.zeros(self.alphabet.size)
        vec[self.alphabet.check(self.generator(t + 1))] = 1.0
        return vec

    def __repr__(self):
        return f"DeterministicMeasure(N={self.alphabet.size})"


class TimeVaryingBinaryMeasure(Stateless, SequenceMeasure):
    """Binary measure whose next-symbol law depends on the step index only:
    P(x_t = 1 | x_{<t}) = rule(t), t starting at 1."""

    def __init__(self, rule: Callable[[int], float]):
        super().__init__(Alphabet(2))
        self.rule = rule

    @classmethod
    def from_power_law(cls, coefficient: float, power: float) -> "TimeVaryingBinaryMeasure":
        """P(x_t = 1) = coefficient * t**(-power), clipped to [0, 1]."""
        if not (math.isfinite(coefficient) and math.isfinite(power)):
            raise ValueError(f"power law needs finite parameters, got {coefficient}, {power}")
        return cls(lambda t: min(1.0, max(0.0, coefficient * float(t) ** -power)))

    def _step_matrix(self, states, t):
        return _rows_by_step(t, states.shape[0], self._row)

    def _row(self, t):
        p = float(self.rule(t + 1))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"rule({t + 1}) = {p} outside [0, 1]")
        return np.array([1.0 - p, p])

    def __repr__(self):
        return "TimeVaryingBinaryMeasure"


class ExplicitTableMeasure(SequenceMeasure):
    """Finite-horizon measure given by an explicit conditional table.

    ``table`` maps each history (tuple of symbols, or digit string) to the
    next-symbol distribution.  The table must contain the empty history and
    be prefix-complete: every positive-probability extension of an entry is
    itself an entry, up to the horizon (= 1 + longest key).  Conditionals
    beyond the horizon are undefined and raise.
    """

    def __init__(self, table: Mapping, alphabet_size: int):
        super().__init__(Alphabet(alphabet_size))
        norm: dict[tuple[int, ...], np.ndarray] = {}
        for key, vec in table.items():
            h = as_symbols(key, self.alphabet)
            norm[h] = _check_distribution(vec, f"table row {key!r}", "table",
                                          size=alphabet_size)
        if () not in norm:
            raise ValueError("table must define the empty history")
        self.horizon = 1 + max(len(k) for k in norm)
        for h, vec in norm.items():
            if len(h) + 1 >= self.horizon:
                continue
            for x in range(alphabet_size):
                if vec[x] > 0.0 and h + (x,) not in norm:
                    raise ValueError(f"table is not prefix-complete: missing {h + (x,)}")
        self.table = norm
        self._uniform = np.full(alphabet_size, 1.0 / alphabet_size)

    def _step_matrix(self, states, t):
        # the state is the whole history; one the table lacks has
        # probability 0 (prefix-completeness), so any row will do
        if np.max(t) >= self.horizon:
            raise UndefinedConditionalError(
                f"history of length {np.max(t)} beyond table horizon {self.horizon}")
        return np.stack([self.table.get(tuple(row), self._uniform) for row in states.tolist()])

    def __repr__(self):
        return f"ExplicitTableMeasure(N={self.alphabet.size}, horizon={self.horizon})"
