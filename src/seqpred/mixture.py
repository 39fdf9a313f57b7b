"""Weighted mixtures of sequence measures.

The mixture marginal is the prior-weighted sum of component marginals,

    mixture(x_1..x_n) = sum_k w_k * component_k(x_1..x_n),

computed by log-sum-exp over the components (linear-domain sums underflow at
long horizons).  This makes multiplicative dominance structural:

    mixture(x) >= w_k * component_k(x)  for every component k,

so the mixture never assigns zero probability where a positively-weighted
component assigns positive probability.  Mixture conditionals are computed as
marginal ratios (the defining identity), never by drifting incremental
updates.  A mixture is itself a SequenceMeasure.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .logdomain import NEG_INF, log_sum_exp
from .measures import (DistributionError, SequenceMeasure, UndefinedConditionalError,
                       _check_distribution, as_symbols, draw_symbols)


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

    def _step_from(self, h: tuple[int, ...], comp_logm: np.ndarray):
        """Next-symbol distribution after ``h``, and in row x of a matrix each
        component's log_marginal(h + (x,)), given ``comp_logm``, their
        log_marginal(h).

        A component that keeps the base-class chain-rule sum gets one more
        term, bitwise what a sum from the start gives; any other is
        recomputed from the start.
        """
        log_h = log_sum_exp(self.log_weights + comp_logm)
        if log_h == NEG_INF:
            raise UndefinedConditionalError(f"history {h} has zero probability under the mixture")
        ext = np.empty((self.alphabet.size, len(self.components)))
        for k, c in enumerate(self.components):
            if type(c).log_marginal is not SequenceMeasure.log_marginal:
                ext[:, k] = [c.log_marginal(h + (x,)) for x in range(self.alphabet.size)]
            elif comp_logm[k] == NEG_INF:
                ext[:, k] = NEG_INF
            else:
                ext[:, k] = [comp_logm[k] + math.log(p) if p > 0.0 else NEG_INF
                             for p in map(float, c._step_distribution(h))]
        out = np.empty(self.alphabet.size)
        for x in range(self.alphabet.size):
            out[x] = np.exp(log_sum_exp(self.log_weights + ext[x]) - log_h)
        return out, ext

    def _step_distribution(self, history):
        h = tuple(history)
        return self._step_from(h, self._component_log_marginals(h))[0]

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw one length-n string; the same draws as the base-class sampler,
        carrying the component log-marginals instead of recomputing them."""
        if n < 1:
            raise ValueError("horizon must be >= 1")
        rng = np.random.default_rng(seed)
        out = np.empty(n, dtype=np.int64)
        h: tuple[int, ...] = ()
        comp_logm = self._component_log_marginals(h)
        for t in range(n):
            probs, ext = self._step_from(h, comp_logm)
            x = int(draw_symbols(probs[None, :], np.array([rng.random()]))[0])
            out[t] = x
            h = h + (x,)
            comp_logm = ext[x]
        return out

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
