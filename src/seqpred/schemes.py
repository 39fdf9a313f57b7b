"""Alternative (non-Bayes) prediction schemes.

Any causal rule mapping a history to an action qualifies.  The engines
evaluate their expected losses alongside the mixture and informed predictors
so the no-free-lunch certificates (no causal scheme beats the informed one;
none significantly beats the mixture one) can be checked against concrete
opponents.  Shipped: a constant action and past-majority vote.

A scheme is a carried state plus an action: it follows the measures' state
protocol (``measures.StateCarrier``: ``initial_state`` and ``extend_state``,
whole history by default), and ``actions`` maps a batch of states to
actions, each one passed through ``loss.action`` so that a scheme plays only
what the loss can play.  The loss may change the actions only through that
rule: the engines check every (scheme, loss) pair on one empty history, then
compute each block's actions once, under the first loss, and cast them to
each other loss's ``action_dtype``.  A subclass that only overrides
``actions`` receives histories; schemes that depend on less carry less.
"""
from __future__ import annotations

import numpy as np

from .columns import argmax_columns
from .losses import LossSpec
from .measures import StateCarrier, Stateless


class PredictionScheme(StateCarrier):
    label: str = "?"
    # the number of symbols the scheme's state is built for; None for any
    alphabet_size: int | None = None

    def actions(self, states: np.ndarray, loss: LossSpec) -> np.ndarray:
        """Actions for a batch of states (one row per history), typed
        ``loss.action_dtype``; ValueError when ``loss`` cannot play them."""
        raise NotImplementedError


class ConstantScheme(Stateless, PredictionScheme):
    """Always play the same action (index for matrix losses, real otherwise)."""

    def __init__(self, action):
        self.action = action
        self.label = f"constant-{action}"

    def actions(self, states, loss):
        return np.full(states.shape[0], loss.action(self.action), dtype=loss.action_dtype)


class MajorityVoteScheme(PredictionScheme):
    """Predict the most frequent past symbol (lowest index on ties, 0 when
    the history is empty).  The state is the per-symbol counts."""

    label = "majority-vote"

    def __init__(self, alphabet_size: int = 2):
        self.alphabet_size = alphabet_size
        self._one_hot = np.eye(alphabet_size, dtype=np.int64)

    def initial_state(self, n):
        return np.zeros((n, self.alphabet_size), dtype=np.int64)

    def extend_state(self, states, symbols):
        # the counts after each symbol: the start plus a running sum of
        # one-hot rows, one whole step at a time
        counts = self._one_hot.take(symbols, axis=0)
        counts[0] += states
        for j in range(1, counts.shape[0]):
            counts[j] += counts[j - 1]
        return counts

    def actions(self, states, loss):
        loss.action(self.alphabet_size - 1)  # every symbol must be playable
        return argmax_columns(states).astype(loss.action_dtype, copy=False)
