"""Alternative (non-Bayes) prediction schemes.

Any causal rule mapping a history to an action qualifies.  The engines
evaluate their expected losses alongside the mixture and informed predictors
so the no-free-lunch certificates (no causal scheme beats the informed one;
none significantly beats the mixture one) can be checked against concrete
opponents.  Shipped: a constant action and past-majority vote.

A scheme sees a history only through its *key*: one integer row per history
that the engines start with ``initial_key`` and extend by one symbol per
step with ``extend_key``.  The default key is the whole history, so a
subclass that only overrides ``actions`` receives histories; schemes that
depend on less carry less.
"""
from __future__ import annotations

import numpy as np

from .losses import LossSpec, MatrixLoss


class PredictionScheme:
    label: str = "?"

    def initial_key(self, n: int) -> np.ndarray:
        """Keys of ``n`` empty histories: one int64 row each."""
        return np.zeros((n, 0), dtype=np.int64)

    def extend_key(self, keys: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Keys of the histories ``keys`` stand for, each followed by its
        symbol.  The default appends the symbol, so the key is the history."""
        return np.concatenate([keys, symbols[:, None]], axis=1)

    def actions(self, keys: np.ndarray, loss: LossSpec) -> np.ndarray:
        """Actions for a batch of keys (one row per history), typed to fit ``loss``."""
        raise NotImplementedError


class ConstantScheme(PredictionScheme):
    """Always play the same action (index for matrix losses, real otherwise)."""

    def __init__(self, action):
        self.action = action
        self.label = f"constant-{action}"

    def action_for(self, loss: LossSpec):
        """The action typed to fit ``loss``; ValueError when it cannot be played."""
        a = float(self.action)
        if isinstance(loss, MatrixLoss):
            if not a.is_integer() or not 0 <= a < loss.n_actions:
                raise ValueError(f"constant action {self.action} is not an action index "
                                 f"of {loss!r}")
            return int(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"constant action {a} outside [0, 1]")
        return a

    def extend_key(self, keys, symbols):
        return keys

    def actions(self, keys, loss):
        a = self.action_for(loss)
        return np.full(keys.shape[0], a, dtype=np.int64 if isinstance(a, int) else float)


class MajorityVoteScheme(PredictionScheme):
    """Predict the most frequent past symbol (lowest index on ties, 0 when
    the history is empty).  The key is the per-symbol counts."""

    label = "majority-vote"

    def __init__(self, alphabet_size: int = 2):
        self.alphabet_size = alphabet_size

    def initial_key(self, n):
        return np.zeros((n, self.alphabet_size), dtype=np.int64)

    def extend_key(self, keys, symbols):
        return keys + np.eye(self.alphabet_size, dtype=np.int64)[symbols]

    def actions(self, keys, loss):
        votes = np.argmax(keys, axis=1)
        if isinstance(loss, MatrixLoss):
            if self.alphabet_size > loss.n_actions:
                raise ValueError("majority vote needs one action per symbol")
            return votes
        return votes.astype(float)
