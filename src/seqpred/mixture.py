"""Weighted mixtures of sequence measures.

The mixture marginal is the prior-weighted sum of component marginals,

    mixture(x_1..x_n) = sum_k w_k * component_k(x_1..x_n),

computed by log-sum-exp over the components (linear-domain sums underflow at
long horizons).  This makes multiplicative dominance structural:

    mixture(x) >= w_k * component_k(x)  for every component k,

so the mixture never assigns zero probability where a positively-weighted
component assigns positive probability.  A mixture conditional is the
marginal ratio mixture(h x) / mixture(h) (the defining identity), formed by
``MixtureModel.conditionals`` from the components' log-marginals of h and
their log-conditionals, with one log-sum-exp over the components for
log mixture(h) and every log mixture(h x).  That is the one statement of
the formula: the engines, ``ratio_trace`` and a mixture's own
``_step_matrix`` call it.

Every walk along known symbols is one rule, written once here.
``component_conditionals`` gives each component's conditionals at a batch
of carried states and the one stack of their logs; ``walk_block`` extends
every component's state by a block of symbols in one ``extend_state`` call
each, takes the conditionals at the states before each step in one
``_step_matrix`` call each (one step per row), and adds each step's
log-conditionals of its symbols to the carried log-marginals
(``log_marginals_through``).  The Monte Carlo paths, ``ratio_trace`` and a
mixture nested in another walk through ``walk_block``; the exact tree,
which extends each history by every symbol of positive probability, takes
each level's ``component_conditionals``.

A mixture carries one int64 state row per history, like any measure: a
header (the step t, then each component's state width), the components'
log-marginals as float64 bit patterns, then the components' states.
``extend_state`` is one ``walk_block``, so a mixture nested in another
merges in the exact tree as its components do, and ``sample(n)`` costs
O(n K) component steps.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .logdomain import log_or_neg_inf, log_sum_exp_over_axis
from .measures import DistributionError, SequenceMeasure, _check_distribution, states_before


def log_marginals_through(comp_logm: np.ndarray, log_cond: np.ndarray,
                          symbols: np.ndarray) -> np.ndarray:
    """The (L + 1, M, K) component log-marginals of M histories before each
    of the L symbols of a block and after the last.

    ``comp_logm`` holds the (M, K) log-marginals at the block's start,
    ``symbols`` the (L, M) symbols, as for ``extend_state``, and
    ``log_cond`` the component-major (K, L·M, N) log-conditionals of the
    block's rows in step order.  Each row's log-conditionals of its symbol
    are one flat ``take`` from the (K, L·M·N) view of ``log_cond``.  A
    running sum along the steps, one whole step at a time, adds each step's
    log-conditionals of its symbols to the last step's sums: the adds of a
    walk that extends one symbol at a time, in the same order.
    """
    steps, m = symbols.shape
    k, rows, n = log_cond.shape
    at = np.arange(0, rows * n, n)
    at += symbols.reshape(-1)
    log_p = log_cond.reshape(k, rows * n).take(at, axis=1)              # (K, L·M)
    through = np.concatenate([comp_logm[None], log_p.T.reshape(steps, m, -1)])
    for j in range(1, steps + 1):
        through[j] += through[j - 1]
    return through


def component_conditionals(components: Sequence[SequenceMeasure], states: Sequence[np.ndarray],
                           t) -> tuple[list[np.ndarray], np.ndarray]:
    """Each component's (M, N) conditionals at step t (one int, or one step
    per row) of M histories, and the component-major (K, M, N) stack of
    their logs.  ``states`` holds each component's carried state; any states
    after the K components' are ignored."""
    mats = [c._step_matrix(s, t) for c, s in zip(components, states)]
    # ``np.array`` stacks equal-shaped arrays as ``np.stack`` does, without
    # its Python-level checks, which cost more than the copy on small levels
    return mats, log_or_neg_inf(np.array(mats))


def walk_block(components: Sequence[SequenceMeasure], comp_logm: np.ndarray,
               states: Sequence[np.ndarray], symbols: np.ndarray, t: int):
    """M histories at step t walked through the (L, M) ``symbols`` of a block:
    ``(after, mats, log_cond, through)``.

    ``after`` holds each component's (L, M, W) states after each step (its
    ``extend_state``), ``mats`` each component's (L·M, N) conditionals at the
    states before each step, in step order, ``log_cond`` their (K, L·M, N)
    log stack, and ``through`` the (L + 1, M, K) log-marginals before each
    step and after the last (``log_marginals_through`` from the (M, K)
    ``comp_logm``).  A state that widens takes one symbol at a time (L ==
    1)."""
    steps, m = symbols.shape
    after = [c.extend_state(s, symbols) for c, s in zip(components, states)]
    mats, log_cond = component_conditionals(
        components, [states_before(s, a) for s, a in zip(states, after)],
        np.repeat(np.arange(t, t + steps), m))
    return after, mats, log_cond, log_marginals_through(comp_logm, log_cond, symbols)


class MixtureModel(SequenceMeasure):
    """Finite weighted family of candidate measures."""

    def __init__(self, components: Sequence[SequenceMeasure], weights):
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        sizes = {c.alphabet.size for c in components}
        if len(sizes) != 1:
            raise ValueError(f"components disagree on alphabet size: {sorted(sizes)}")
        super().__init__(components[0].alphabet)
        if np.shape(weights) != (len(components),):
            raise DistributionError("weights", "need exactly one weight per component")
        w = _check_distribution(weights, "prior weights", "weights")
        if (w <= 0).any():
            raise DistributionError("weights", "all prior weights must be > 0")
        self.components = tuple(components)
        self.weights = w
        self.log_weights = np.log(w)

    def __repr__(self):
        return f"MixtureModel({len(self.components)} components, N={self.alphabet.size})"

    # -- the formula ------------------------------------------------------------
    def _prior_terms(self, comp_logm: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The component-major (K, M) terms log w_k + log nu_k(h) of M
        histories from their (M, K) component log-marginals, written
        C-contiguous (into ``out`` when given): the log-sum-exp over the
        components then adds whole contiguous slabs."""
        return np.add(self.log_weights[:, None], comp_logm.T, out=out, order="C")

    def log_marginals(self, comp_logm: np.ndarray) -> np.ndarray:
        """The (M,) mixture log-marginals of M histories from their (M, K)
        component log-marginals."""
        return log_sum_exp_over_axis(self._prior_terms(comp_logm), axis=0)

    def conditionals(self, log_cond: np.ndarray, comp_logm: np.ndarray) -> np.ndarray:
        """The (M, N) mixture conditionals of M histories: a ratio of mixture
        marginals, from the component-major (K, M, N) log-conditionals and
        the (M, K) log-marginals.  A history the mixture rules out gets the
        uniform row.

        One log-sum-exp gives log xi(h) and every log xi(hx): it reduces a
        (K, N + 1, M) array over the components, whose slab 0 holds each
        component's prior term and slab j + 1 the prior term plus symbol j's
        log-conditional, each added one whole (M,) row at a time."""
        k, m, n = log_cond.shape
        terms = np.empty((k, n + 1, m))
        self._prior_terms(comp_logm, out=terms[:, 0])
        np.add(terms[:, :1], log_cond.transpose(0, 2, 1), out=terms[:, 1:])
        log_mix = log_sum_exp_over_axis(terms, axis=0)       # (N + 1, M)
        log_mix_h, log_mix_hx = log_mix[0], log_mix[1:]
        with np.errstate(invalid="ignore"):
            log_mix_hx -= log_mix_h
            # written (M, N) in C order: a Fortran-ordered result slows the
            # per-symbol column reads of ``distances_batch``
            cond = np.exp(log_mix_hx.T, order="C")
        cond[log_mix_h == -np.inf] = 1.0 / self.alphabet.size
        return cond

    # -- the carried state --------------------------------------------------------
    def _pack(self, t, comp_logm: np.ndarray, states: Sequence[np.ndarray]) -> np.ndarray:
        """Rows of step ``t``: one int, or an (M,) array of one step per row."""
        header = np.array([[0, *(s.shape[1] for s in states)]],
                          dtype=np.int64).repeat(comp_logm.shape[0], axis=0)
        header[:, 0] = t
        return np.concatenate([header, comp_logm.view(np.int64), *states],
                              axis=1, dtype=np.int64, casting="same_kind")

    def _unpack(self, states: np.ndarray):
        """(t, the (M, K) component log-marginals, each component's states)."""
        k = len(self.components)
        widths = states[0, 1:k + 1]
        comp_states = np.split(states[:, 2 * k + 1:], np.cumsum(widths)[:-1], axis=1)
        return int(states[0, 0]), states[:, k + 1:2 * k + 1].view(np.float64), comp_states

    def initial_state(self, n: int) -> np.ndarray:
        return self._pack(0, np.zeros((n, len(self.components))),
                          [c.initial_state(n) for c in self.components])

    def extend_state(self, states, symbols):
        t, comp_logm, comp_states = self._unpack(states)
        steps, m = symbols.shape
        after, _, _, logm = walk_block(self.components, comp_logm, comp_states, symbols, t)
        packed = self._pack(np.repeat(np.arange(t + 1, t + steps + 1), m),
                            logm[1:].reshape(steps * m, -1),
                            [a.reshape(steps * m, a.shape[2]) for a in after])
        return packed.reshape(steps, m, -1)

    def _step_matrix(self, states, t):
        _, comp_logm, comp_states = self._unpack(states)
        return self.conditionals(component_conditionals(self.components, comp_states, t)[1],
                                 comp_logm)

    # -- the scalar API -----------------------------------------------------------
    def _walk(self, symbols):
        """As ``SequenceMeasure._walk``, but the log-marginal is the
        log-sum-exp of the components' walked log-marginals."""
        state = self.initial_state(1)
        for x in symbols:
            state = self.extend_state(state, np.array([[x]]))[0]
        return float(self.log_marginals(self._unpack(state)[1])[0]), state
