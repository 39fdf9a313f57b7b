"""Probability measures over finite-alphabet symbol sequences.

A measure assigns each finite string x_1..x_t the probability that an
infinite sequence starts with it.  The package-wide primitive is the
*step distribution*: the conditional distribution of the next symbol given
the history.  Marginals are chain-rule products of step conditionals,
accumulated in the log domain, so

    log_marginal(x_1..x_t) == log_marginal(x_1..x_{t-1}) + log(cond)

holds exactly by construction.  Impossible strings get an exact -inf.

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

from .logdomain import NEG_INF

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
    and u lands past it, the row gets its last positive-probability symbol.
    """
    cdf = np.cumsum(probs, axis=1)
    drawn = (u[:, None] >= cdf).sum(axis=1)
    last_positive = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return np.minimum(drawn, last_positive)


class SequenceMeasure:
    """Base class for probability measures over symbol sequences.

    Subclasses implement ``_step_distribution(history)``: the next-symbol
    distribution given a *possible* history.

    The evaluation engines see a history only through its *state*: one int64
    row per history that they start with ``initial_state`` and extend by one
    symbol per step with ``extend_state``, the protocol prediction schemes
    follow for their keys.  ``_step_matrix(states, t)`` maps a batch of
    states at step t to next-symbol distributions.  The default state is
    the whole history and the default ``_step_matrix`` loops over its rows,
    so a subclass that only implements ``_step_distribution`` receives
    histories.  Families whose conditionals depend on less carry less:
    Bernoulli, time-varying and deterministic measures carry nothing, and a
    Markov chain its last ``order`` symbols.  The state must fix every later
    conditional, because the exact engine merges histories that agree on it
    (and on their log-marginals).
    """

    is_deterministic = False

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    # -- primitive (no history-validity check) ---------------------------------
    def _step_distribution(self, history: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    def initial_state(self, n: int) -> np.ndarray:
        """States of ``n`` empty histories: one int64 row each."""
        return np.zeros((n, 0), dtype=np.int64)

    def extend_state(self, states: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """States of the histories ``states`` stand for, each followed by its
        symbol.  The default appends the symbol, so the state is the history."""
        return np.concatenate([states, symbols[:, None]], axis=1)

    def _step_matrix(self, states: np.ndarray, t: int) -> np.ndarray:
        """Next-symbol distributions for a batch of states at step t (histories
        of t symbols), one row per state."""
        if t == 0:
            return np.tile(self._step_distribution(()), (states.shape[0], 1))
        return np.stack([self._step_distribution(tuple(int(s) for s in row)) for row in states])

    # -- public API -------------------------------------------------------------
    def log_marginal(self, string) -> float:
        """Return log P(sequence starts with ``string``); -inf if impossible."""
        total = 0.0
        h: tuple[int, ...] = ()
        for x in as_symbols(string, self.alphabet):
            p = float(self._step_distribution(h)[x])
            if p <= 0.0:
                return NEG_INF
            total += math.log(p)
            h = h + (x,)
        return total

    def conditional_vector(self, history) -> np.ndarray:
        """Distribution of the next symbol given ``history``.

        Raises UndefinedConditionalError when the history itself has zero
        probability (the conditional is not defined there).
        """
        h = as_symbols(history, self.alphabet)
        if self.log_marginal(h) == NEG_INF:
            raise UndefinedConditionalError(f"history {h} has zero probability under {self!r}")
        return self._step_distribution(h).copy()

    def conditional(self, history, symbol: int) -> float:
        return float(self.conditional_vector(history)[self.alphabet.check(symbol)])

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw one length-n string; deterministic given ``seed``."""
        if n < 1:
            raise ValueError("horizon must be >= 1")
        rng = np.random.default_rng(seed)
        out = np.empty(n, dtype=np.int64)
        h: tuple[int, ...] = ()
        for t in range(n):
            probs = self._step_distribution(h)
            x = int(draw_symbols(probs[None, :], np.array([rng.random()]))[0])
            out[t] = x
            h = h + (x,)
        return out


class DistributionError(ValueError):
    """A malformed probability vector; ``field`` names the argument that holds it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_distribution(vec, what: str, field: str, tol: float = SUM_TOL) -> np.ndarray:
    """``vec`` as a float array, if it is a probability vector: 1-D, finite,
    entries in [0, 1], summing to 1 within ``tol``."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise DistributionError(field, f"{what} must be a probability vector")
    # every comparison below is false for NaN
    if not np.isfinite(vec).all():
        raise DistributionError(field, f"{what} entries must be finite")
    if (vec < 0).any() or (vec > 1).any():
        raise DistributionError(field, f"{what} entries must lie in [0, 1]")
    if abs(float(vec.sum()) - 1.0) > tol:
        raise DistributionError(field, f"{what} must sum to 1 within {tol}, got {vec.sum()!r}")
    return vec


class BernoulliMeasure(SequenceMeasure):
    """I.i.d. binary measure with P(x_t = 1) = theta."""

    def __init__(self, theta: float):
        super().__init__(Alphabet(2))
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        self.theta = float(theta)
        self._vec = np.array([1.0 - self.theta, self.theta])

    def _step_distribution(self, history):
        return self._vec

    def _step_matrix(self, states, t):
        return np.tile(self._vec, (states.shape[0], 1))

    def extend_state(self, states, symbols):
        return states

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
        self.initial = _check_distribution(initial, "initial distribution", "initial")
        if self.initial.shape != (n,):
            raise ValueError("initial distribution must match the alphabet")

    def _step_distribution(self, history):
        if len(history) < self.order:
            return self.initial
        return self.transitions[tuple(history[-self.order:])]

    def extend_state(self, states, symbols):
        # the last ``order`` symbols; fewer before step ``order``
        return np.concatenate([states, symbols[:, None]], axis=1)[:, -self.order:]

    def _step_matrix(self, states, t):
        # context columns counted from the end: a carried state or a whole history
        if t < self.order:
            return np.tile(self.initial, (states.shape[0], 1))
        return self.transitions[tuple(states[:, j - self.order] for j in range(self.order))]

    def __repr__(self):
        return f"MarkovMeasure(order={self.order}, N={self.alphabet.size})"


class DeterministicMeasure(SequenceMeasure):
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
        pat = tuple(int(p) for p in pattern)
        if not pat:
            raise ValueError("pattern must be non-empty")
        m = cls(lambda t: pat[(t - 1) % len(pat)], alphabet_size)
        m.pattern = pat
        return m

    def _step_distribution(self, history):
        # Depends on the position only; off-path histories are screened out by
        # conditional_vector / log_marginal, never reached by the engines.
        vec = np.zeros(self.alphabet.size)
        vec[self.alphabet.check(self.generator(len(history) + 1))] = 1.0
        return vec

    def _step_matrix(self, states, t):
        return np.tile(self._step_distribution((0,) * t), (states.shape[0], 1))

    def extend_state(self, states, symbols):
        return states

    def __repr__(self):
        return f"DeterministicMeasure(N={self.alphabet.size})"


class TimeVaryingBinaryMeasure(SequenceMeasure):
    """Binary measure whose next-symbol law depends on the step index only:
    P(x_t = 1 | x_{<t}) = rule(t), t starting at 1."""

    def __init__(self, rule: Callable[[int], float]):
        super().__init__(Alphabet(2))
        self.rule = rule

    @classmethod
    def from_power_law(cls, coefficient: float, power: float) -> "TimeVaryingBinaryMeasure":
        """P(x_t = 1) = coefficient * t**(-power), clipped to [0, 1]."""
        return cls(lambda t: min(1.0, max(0.0, coefficient * float(t) ** -power)))

    def _p(self, t: int) -> float:
        p = float(self.rule(t))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"rule({t}) = {p} outside [0, 1]")
        return p

    def _step_distribution(self, history):
        p = self._p(len(history) + 1)
        return np.array([1.0 - p, p])

    def _step_matrix(self, states, t):
        p = self._p(t + 1)
        return np.tile(np.array([1.0 - p, p]), (states.shape[0], 1))

    def extend_state(self, states, symbols):
        return states

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
            norm[h] = _check_distribution(vec, f"table row {key!r}", "table")
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

    def _step_distribution(self, history):
        if len(history) >= self.horizon:
            raise UndefinedConditionalError(
                f"history of length {len(history)} beyond table horizon {self.horizon}"
            )
        vec = self.table.get(tuple(history))
        if vec is None:
            # Unreachable under the measure (prefix-completeness); engines mask
            # such rows, so any valid distribution works here.
            return np.full(self.alphabet.size, 1.0 / self.alphabet.size)
        return vec

    def __repr__(self):
        return f"ExplicitTableMeasure(N={self.alphabet.size}, horizon={self.horizon})"
