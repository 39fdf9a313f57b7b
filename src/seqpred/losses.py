"""Loss functions and Bayes-optimal action selection.

A loss assigns ell(x, y) in [0, 1] to predicting/acting y when the next
symbol turns out to be x.  Given a posterior rho over symbols, the Bayes
action minimizes the rho-expected loss

    action(rho) = argmin_y  sum_x rho(x) * ell(x, y)

with deterministic tie-breaking to the lowest action index / smallest real
action (ties may be broken arbitrarily; a fixed rule keeps runs reproducible).

Finite-action losses are given as an (N x |actions|) matrix, affinely
rescaled into [0, 1] at construction when needed (the scale is recorded for
report readability).  The named binary losses act on y in [0, 1] and carry
closed-form action rules:

    error      ell = 1 - delta(x, y)        -> 0/1 threshold at 1/2
    absolute   ell = |x - y|                -> same threshold (optima are 0/1)
    alpha      ell = |x - y|**a, a <= 1     -> same threshold
               a > 1                        -> 1 / (1 + (rho0/rho1)^(1/(a-1)))
    quadratic  ell = (x - y)^2              -> rho1
    hellinger  ell = 1 - sqrt(|1 - x - y|)  -> rho1^2 / (rho0^2 + rho1^2)
    log        ell = -ln|1 - x - y|         -> rho1   (unbounded loss)

Each loss class states its own action rule; there is no fallback for a
loss without one.  The test suite checks each closed form against a scan
of the action space (``grid_bayes_action`` in ``tests/oracles.py``).
"""
from __future__ import annotations

import numpy as np

from .columns import argmin_columns
from .measures import POSTERIOR_SUM_TOL, _check_distribution

# exp() overflow guard for the alpha-loss closed form; beyond this the
# action saturates to exactly 0 or 1 (the threshold rule).
_EXP_CLAMP = 700.0


def _out(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """``out``, which must have ``shape``, or a new array of that shape."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}; the actions give {shape}")
    return out


def _threshold_actions(posteriors: np.ndarray) -> np.ndarray:
    """Act 1.0 exactly when rho1 > 1/2, else 0.0: the Bayes rule of every
    binary loss whose optima sit at the endpoints."""
    return (posteriors[:, 1] > 0.5).astype(float)


class LossSpec:
    """Base class; subclasses define loss values and the Bayes action rule."""

    kind: str = "?"
    bounded: bool = True
    n_outcomes: int = 2
    # dtype of a batch of actions
    action_dtype = float

    # -- elementwise loss -------------------------------------------------------
    def loss(self, x, y):
        """ell(x, y), vectorized over numpy inputs."""
        raise NotImplementedError

    # -- batch forms (posteriors as rows of an (M, N) array) ---------------------
    def bayes_actions(self, posteriors: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def expected_losses(self, true_posteriors: np.ndarray, actions: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Expected loss of each action under the matching row of the (M, N)
        ``true_posteriors``.

        ``actions`` is (M,), one action per row, or (P, M), one row of actions
        per predictor, each scored against the same posteriors; the result has
        the shape of ``actions``.  Every form works elementwise per action, so
        a (P, M) call gives the bits of P separate (M,) calls.  The result is
        written into ``out`` when given (ValueError unless it has the shape of
        ``actions``), and ``out`` is returned.

        The binary form weighs each outcome's losses in place: ``loss``
        returns a new array.
        """
        out = _out(out, np.shape(actions))
        x0 = self.loss(0, actions)
        x1 = self.loss(1, actions)
        np.multiply(true_posteriors[:, 0], x0, out=x0)
        np.multiply(true_posteriors[:, 1], x1, out=x1)
        return np.add(x0, x1, out=out)

    # -- scalar conveniences ----------------------------------------------------
    def bayes_action(self, posterior):
        p = self._validated(posterior)
        return self.bayes_actions(p[None, :])[0].item()

    def expected_loss(self, posterior, action) -> float:
        p = self._validated(posterior)
        return float(self.expected_losses(p[None, :], np.asarray([self.action(action)]))[0])

    def action(self, a):
        """``a`` as this loss plays it: a float in [0, 1]; ValueError otherwise."""
        a = float(a)
        if not 0.0 <= a <= 1.0:  # false for NaN too
            raise ValueError(f"action {a} outside [0, 1]")
        return a

    def _validated(self, posterior) -> np.ndarray:
        p = _check_distribution(posterior, "posterior", "posterior", POSTERIOR_SUM_TOL)
        if p.shape != (self.n_outcomes,):
            raise ValueError(f"{self.kind} loss takes a posterior over {self.n_outcomes} "
                             f"outcomes, got {p.shape[0]}")
        return p

    def has_zero_loss_action(self) -> bool:
        """True when every outcome admits a zero-loss action, as it does for
        every binary loss on y in [0, 1]: y = x."""
        return True

    def __repr__(self):
        return f"{type(self).__name__}()"


class MatrixLoss(LossSpec):
    """Finite action set; loss given as an (N x |actions|) table.

    Tables outside [0, 1] are affinely rescaled into it; ``offset`` and
    ``scale`` recover the original units (raw = offset + scale * value).
    """

    kind = "matrix"
    action_dtype = np.int64

    def __init__(self, values):
        raw = np.asarray(values, dtype=float)
        if raw.ndim != 2 or raw.size == 0:
            raise ValueError("loss matrix must be 2-D and non-empty")
        if not np.isfinite(raw).all():
            raise ValueError("loss matrix entries must be finite")
        lo, hi = float(raw.min()), float(raw.max())
        if 0.0 <= lo and hi <= 1.0:
            self.offset, self.scale = 0.0, 1.0
            self.matrix = raw.copy()
        else:
            self.offset = lo
            self.scale = hi - lo if hi > lo else 1.0
            self.matrix = (raw - self.offset) / self.scale
        self.n_outcomes, self.n_actions = self.matrix.shape

    def loss(self, x, y):
        return self.matrix[np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)]

    def _risks(self, posteriors):
        """``posteriors @ matrix``, each row rounded alike in a batch of any
        size.  numpy sends a one-row product to BLAS gemv and a larger one to
        gemm, which round differently (OpenBLAS, on tables with 4 or more
        outcomes or actions), so a lone row is multiplied as two."""
        if posteriors.shape[0] == 1:
            return (np.concatenate([posteriors, posteriors]) @ self.matrix)[:1]
        return posteriors @ self.matrix

    def bayes_actions(self, posteriors):
        # exhaustive scan by action columns; the lowest index wins ties
        return argmin_columns(self._risks(posteriors))

    def expected_losses(self, true_posteriors, actions, out=None):
        """Each action's entry of its row of the risk table, by one flat
        ``take``: ``actions`` must be action indices (``action``'s rule)."""
        out = _out(out, np.shape(actions))
        table = self._risks(true_posteriors)
        at = np.arange(0, table.size, self.n_actions)
        out[...] = table.take(at + np.asarray(actions, dtype=np.int64))
        return out

    def has_zero_loss_action(self) -> bool:
        return bool((self.matrix.min(axis=1) == 0.0).all())

    def action(self, a):
        """``a`` as an int, if it is an action index (an integer-valued number
        in 0..n_actions-1); ValueError otherwise."""
        index = float(a)
        if not (index.is_integer() and 0 <= index < self.n_actions):
            raise ValueError(f"action {a} is not an action index of {self!r}")
        return int(index)

    def __repr__(self):
        return f"MatrixLoss({self.n_outcomes}x{self.n_actions})"


class ErrorLoss(LossSpec):
    """Binary misclassification: predict a bit, lose 1 unless it matches.

    On the continuous action space only y = 0.0 and y = 1.0 can score; any
    other y counts as a miss for both outcomes (the Bayes rule never plays
    one).
    """

    kind = "error"

    def loss(self, x, y):
        return (np.asarray(x, dtype=float) != np.asarray(y, dtype=float)).astype(float)

    bayes_actions = staticmethod(_threshold_actions)


class AbsoluteLoss(LossSpec):
    """ell = |x - y| on y in [0, 1]; optimal actions sit at the endpoints."""

    kind = "absolute"

    def loss(self, x, y):
        return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    bayes_actions = staticmethod(_threshold_actions)


class AlphaLoss(LossSpec):
    """ell = |x - y|**alpha for alpha > 0; exactly 0 at |x - y| = 0 and 1 at
    |x - y| = 1, with no pow taken there.

    For alpha <= 1 the optimum is always an endpoint and coincides with the
    error-loss decision.  For alpha > 1 the closed form is
    1 / (1 + (rho0/rho1)^(1/(alpha-1))), evaluated through the log domain: for
    alpha near 1 the exponent blows up, the logistic saturates, and the rule
    degrades gracefully to the 0/1 threshold instead of overflowing.
    """

    kind = "alpha"

    def __init__(self, alpha: float):
        if not alpha > 0:  # false for NaN too
            raise ValueError("alpha must be > 0")
        self.alpha = float(alpha)

    def loss(self, x, y):
        """|x - y|**alpha.  An array takes no pow where |x - y| is exactly 0 or
        1, as it is for every action 0 or 1: pow(+0, alpha) = +0 and
        pow(1, alpha) = 1 exactly, and numpy's general pow costs several
        times the masked pass.  A scalar, and alpha 0.5, 1 and 2, keep
        ``**``: numpy runs a scalar pow, sqrt, a copy or square for those,
        whose bits ``np.power`` need not give."""
        d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        if d.ndim == 0 or self.alpha in (0.5, 1.0, 2.0):
            return d ** self.alpha
        return np.power(d, self.alpha, out=d, where=(d != 0.0) & (d != 1.0))

    def bayes_actions(self, posteriors):
        if self.alpha <= 1.0:
            return _threshold_actions(posteriors)
        with np.errstate(divide="ignore"):
            t = (np.log(posteriors[:, 0]) - np.log(posteriors[:, 1])) / (self.alpha - 1.0)
        # the logistic of every t, then the saturated ends over it
        with np.errstate(over="ignore"):
            out = np.exp(t)
        out += 1.0
        np.divide(1.0, out, out=out)
        np.copyto(out, 0.0, where=t >= _EXP_CLAMP)   # rho1 vanishingly small -> act 0
        np.copyto(out, 1.0, where=t <= -_EXP_CLAMP)  # rho0 vanishingly small -> act 1
        return out

    def __repr__(self):
        return f"AlphaLoss({self.alpha})"


class QuadraticLoss(LossSpec):
    """ell = (x - y)^2; the Bayes action is the posterior mean rho1."""

    kind = "quadratic"

    def loss(self, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return d * d

    def bayes_actions(self, posteriors):
        return posteriors[:, 1].copy()


class HellingerLoss(LossSpec):
    """ell = 1 - sqrt(|1 - x - y|); Bayes action rho1^2 / (rho0^2 + rho1^2)."""

    kind = "hellinger"

    def loss(self, x, y):
        return 1.0 - np.sqrt(np.abs(1.0 - np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))

    def bayes_actions(self, posteriors):
        sq = posteriors * posteriors
        return sq[:, 1] / (sq[:, 0] + sq[:, 1])


class LogLoss(LossSpec):
    """ell = -ln|1 - x - y|, unbounded above.

    The Bayes action is rho1, so the expected loss is the log score
    -E ln rho(x).  Bounded-loss regret certificates do not apply; the
    loss-excess identity (excess == cumulative KL) replaces them.
    """

    kind = "log"
    bounded = False

    def loss(self, x, y):
        with np.errstate(divide="ignore"):
            return -np.log(np.abs(1.0 - np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))

    def bayes_actions(self, posteriors):
        return posteriors[:, 1].copy()

    def expected_losses(self, true_posteriors, actions, out=None):
        """Per outcome x of mass rho(x) and probability p: -rho(x) ln p where
        rho(x) > 0, inf where also p <= 0, and 0 where rho(x) is not > 0.
        Each outcome's term is one ``log`` written in place; the two terms
        then add into ``out``."""
        y = np.asarray(actions, dtype=float)
        out = _out(out, y.shape)
        first = np.subtract(1.0, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            for mass, prob, term in ((true_posteriors[:, 0], first, first),
                                     (true_posteriors[:, 1], y, out)):
                ruled_out = prob <= 0.0
                np.log(prob, out=term)
                np.multiply(-mass, term, out=term)
                np.copyto(term, np.inf, where=ruled_out)
                np.copyto(term, 0.0, where=~(mass > 0.0))
        # the terms add in outcome order.  A sum from +0.0 would differ only
        # where both terms are -0.0; a term is -0.0 only where its p >= 1, and
        # p = 1 - y and p = y are never both >= 1
        return np.add(first, out, out=out)


NAMED_LOSSES = {
    "error": ErrorLoss,
    "absolute": AbsoluteLoss,
    "quadratic": QuadraticLoss,
    "hellinger": HellingerLoss,
    "log": LogLoss,
}
