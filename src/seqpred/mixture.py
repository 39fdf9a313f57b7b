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
their log-conditionals.  That is the one statement of the formula: the
engines, ``ratio_trace`` and a mixture's own ``_step_matrix`` call it.

A mixture carries one int64 state row per history, like any measure: a
header (the step t, then each component's state width), the components'
log-marginals as float64 bit patterns, then the components' states.
``extend_state`` adds each component's log-conditional of the symbol and
extends each component's state, so a mixture nested in another merges in
the exact tree as its components do, and ``sample(n)`` costs O(n K)
component steps.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .logdomain import NEG_INF, log_or_neg_inf, log_sum_exp_over_axis
from .measures import (DistributionError, SequenceMeasure, UndefinedConditionalError,
                       _check_distribution, as_symbols)


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
    def log_marginals(self, comp_logm: np.ndarray) -> np.ndarray:
        """The (M,) mixture log-marginals of M histories from their (M, K)
        component log-marginals."""
        return log_sum_exp_over_axis(self.log_weights[None, :] + comp_logm, axis=1)

    def conditionals(self, log_cond: np.ndarray, comp_logm: np.ndarray) -> np.ndarray:
        """The (M, N) mixture conditionals of M histories: a ratio of mixture
        marginals, from the component-major (K, M, N) log-conditionals and
        the (M, K) log-marginals.  A history the mixture rules out gets the
        uniform row."""
        prior_terms = self.log_weights[None, :] + comp_logm              # (M, K)
        log_mix_h = log_sum_exp_over_axis(prior_terms, axis=1)           # (M,)
        log_mix_hx = log_sum_exp_over_axis(prior_terms.T[:, :, None] + log_cond, axis=0)  # (M, N)
        with np.errstate(invalid="ignore"):
            cond = np.exp(log_mix_hx - log_mix_h[:, None])
        cond[np.isneginf(log_mix_h)] = 1.0 / self.alphabet.size
        return cond

    # -- the carried state --------------------------------------------------------
    def _pack(self, t: int, comp_logm: np.ndarray, states: Sequence[np.ndarray]) -> np.ndarray:
        header = np.array([t, *(s.shape[1] for s in states)], dtype=np.int64)
        return np.concatenate([np.tile(header, (comp_logm.shape[0], 1)),
                               comp_logm.view(np.int64), *states],
                              axis=1, dtype=np.int64, casting="same_kind")

    def _unpack(self, states: np.ndarray):
        """(t, the (M, K) component log-marginals, each component's states)."""
        k = len(self.components)
        widths = states[0, 1:k + 1]
        comp_states = np.split(states[:, 2 * k + 1:], np.cumsum(widths)[:-1], axis=1)
        return int(states[0, 0]), states[:, k + 1:2 * k + 1].view(np.float64), comp_states

    def _component_log_conditionals(self, comp_states, t: int) -> np.ndarray:
        """The component-major (K, M, N) log-conditionals at step t."""
        return log_or_neg_inf(np.stack([c._step_matrix(s, t)
                                        for c, s in zip(self.components, comp_states)]))

    def initial_state(self, n: int) -> np.ndarray:
        return self._pack(0, np.zeros((n, len(self.components))),
                          [c.initial_state(n) for c in self.components])

    def extend_state(self, states, symbols):
        t, comp_logm, comp_states = self._unpack(states)
        log_cond = self._component_log_conditionals(comp_states, t)
        log_p = log_cond[:, np.arange(symbols.shape[0]), symbols].T
        return self._pack(t + 1, comp_logm + log_p,
                          [c.extend_state(s, symbols)
                           for c, s in zip(self.components, comp_states)])

    def _step_matrix(self, states, t):
        _, comp_logm, comp_states = self._unpack(states)
        return self.conditionals(self._component_log_conditionals(comp_states, t), comp_logm)

    # -- the scalar API -----------------------------------------------------------
    def _walk(self, symbols):
        """As ``SequenceMeasure._walk``, but the log-marginal is the
        log-sum-exp of the components' walked log-marginals."""
        state = self.initial_state(1)
        for x in symbols:
            state = self.extend_state(state, np.array([x]))
        return float(self.log_marginals(self._unpack(state)[1])[0]), state

    def posterior_weights(self, history) -> np.ndarray:
        """Per-component posterior mass w_k * component_k(h) / mixture(h).

        Diagnostic only; the engines never integrate these forward.
        """
        h = as_symbols(history, self.alphabet)
        log_h, state = self._walk(h)
        if log_h == NEG_INF:
            raise UndefinedConditionalError(f"history {h} has zero probability under the mixture")
        return np.exp(self.log_weights + self._unpack(state)[1][0] - log_h)
