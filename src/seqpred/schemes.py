"""Alternative (non-Bayes) prediction schemes.

Any causal rule mapping a history to an action qualifies.  The engines
evaluate their expected losses alongside the mixture and informed predictors
so the no-free-lunch certificates (no causal scheme beats the informed one;
none significantly beats the mixture one) can be checked against concrete
opponents.  Shipped: a constant action and past-majority vote.
"""
from __future__ import annotations

import numpy as np

from .losses import LossSpec, MatrixLoss


class PredictionScheme:
    label: str = "?"

    def actions(self, histories: np.ndarray, loss: LossSpec) -> np.ndarray:
        """Actions for a (K, t) batch of histories, typed to fit ``loss``."""
        raise NotImplementedError

    def state_key(self, histories: np.ndarray) -> np.ndarray:
        """Integer columns that fix every later action of each history.

        The default is the whole history, which lets the exact engine merge
        nothing; schemes that depend on less override it.
        """
        return histories


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

    def actions(self, histories, loss):
        a = self.action_for(loss)
        return np.full(histories.shape[0], a, dtype=np.int64 if isinstance(a, int) else float)

    def state_key(self, histories):
        return histories[:, :0]


class MajorityVoteScheme(PredictionScheme):
    """Predict the most frequent past symbol (lowest index on ties, 0 when
    the history is empty)."""

    label = "majority-vote"

    def __init__(self, alphabet_size: int = 2):
        self.alphabet_size = alphabet_size

    def state_key(self, histories):
        """Per-symbol counts, one column per symbol."""
        return np.stack([(histories == s).sum(axis=1) for s in range(self.alphabet_size)],
                        axis=1)

    def actions(self, histories, loss):
        votes = np.argmax(self.state_key(histories), axis=1)
        if isinstance(loss, MatrixLoss):
            if self.alphabet_size > loss.n_actions:
                raise ValueError("majority vote needs one action per symbol")
            return votes
        return votes.astype(float)
