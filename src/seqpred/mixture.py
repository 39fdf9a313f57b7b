"""Weighted mixtures of sequence measures.

The mixture marginal is the prior-weighted sum of component marginals,

    mixture(x_1..x_n) = sum_k w_k * component_k(x_1..x_n),

computed by log-sum-exp over the components (linear-domain sums underflow at
long horizons).  This makes multiplicative dominance structural:

    mixture(x) >= w_k * component_k(x)  for every component k,

so the mixture never assigns zero probability where a positively-weighted
component assigns positive probability.  A mixture conditional is the
marginal ratio mixture(h x) / mixture(h) (the defining identity), each
marginal summed from the start, never carried forward by incremental updates.
A mixture is itself a SequenceMeasure, so ``conditional_vector`` and
``sample`` are the base class's; sampling n symbols costs O(n^2 K) component
steps.  The engines compute the mixture in batch and do not call these.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .logdomain import NEG_INF, log_sum_exp
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

    def log_marginal(self, string) -> float:
        xs = as_symbols(string, self.alphabet)
        return log_sum_exp(self.log_weights + self._component_log_marginals(xs))

    def _component_log_marginals(self, xs) -> np.ndarray:
        return np.array([c.log_marginal(xs) for c in self.components])

    def _step_distribution(self, history):
        h = tuple(history)
        log_h = self.log_marginal(h)
        if log_h == NEG_INF:
            # a history the mixture rules out: any probability vector will do
            return np.full(self.alphabet.size, 1.0 / self.alphabet.size)
        return np.array([np.exp(self.log_marginal(h + (x,)) - log_h)
                         for x in range(self.alphabet.size)])

    def posterior_weights(self, history) -> np.ndarray:
        """Per-component posterior mass w_k * component_k(h) / mixture(h).

        Diagnostic only; the engines never integrate these forward.
        """
        h = as_symbols(history, self.alphabet)
        terms = self.log_weights + self._component_log_marginals(h)
        log_h = log_sum_exp(terms)
        if log_h == NEG_INF:
            raise UndefinedConditionalError(f"history {h} has zero probability under the mixture")
        return np.exp(terms - log_h)
