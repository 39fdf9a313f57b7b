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

``grid_bayes_action`` scans y over a uniform grid and is the independent
check on every closed form (and the fallback for losses without one).
"""
from __future__ import annotations

import numpy as np

from .measures import POSTERIOR_SUM_TOL, _check_distribution

# exp() overflow guard for the alpha-loss closed form; beyond this the
# action saturates to exactly 0 or 1 (the threshold rule).
_EXP_CLAMP = 700.0


def _threshold_actions(posteriors: np.ndarray) -> np.ndarray:
    """Act 1.0 exactly when rho1 > 1/2, else 0.0: the Bayes rule of every
    binary loss whose optima sit at the endpoints."""
    return (posteriors[:, 1] > 0.5).astype(float)


class DegenerateLossError(ValueError):
    """A 2x2 loss matrix in which one prediction direction never matters."""


class LossSpec:
    """Base class; subclasses define loss values and the Bayes action rule."""

    kind: str = "?"
    bounded: bool = True
    n_outcomes: int = 2

    # -- elementwise loss -------------------------------------------------------
    def loss(self, x, y):
        """ell(x, y), vectorized over numpy inputs."""
        raise NotImplementedError

    # -- batch forms (posteriors as rows of an (M, N) array) ---------------------
    def bayes_actions(self, posteriors: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def expected_losses(self, true_posteriors: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Expected loss of each action under the matching row of the (M, N)
        ``true_posteriors``.

        ``actions`` is (M,), one action per row, or (P, M), one row of actions
        per predictor, each scored against the same posteriors; the result has
        the shape of ``actions``.  Every form works elementwise per action, so
        a (P, M) call gives the bits of P separate (M,) calls.
        """
        x0 = self.loss(0, actions)
        x1 = self.loss(1, actions)
        return true_posteriors[:, 0] * x0 + true_posteriors[:, 1] * x1

    # -- scalar conveniences ----------------------------------------------------
    def bayes_action(self, posterior):
        p = self._validated(posterior)
        return self.bayes_actions(p[None, :])[0].item()

    def expected_loss(self, posterior, action) -> float:
        p = self._validated(posterior)
        self._check_action(action)
        return float(self.expected_losses(p[None, :], np.asarray([action]))[0])

    def _validated(self, posterior) -> np.ndarray:
        p = _check_distribution(posterior, "posterior", "posterior", POSTERIOR_SUM_TOL)
        if p.shape != (self.n_outcomes,):
            raise ValueError(f"{self.kind} loss takes a posterior over {self.n_outcomes} "
                             f"outcomes, got {p.shape[0]}")
        return p

    def _check_action(self, action) -> None:
        if not 0.0 <= float(action) <= 1.0:
            raise ValueError(f"action {action} outside [0, 1]")

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

    def bayes_actions(self, posteriors):
        # exhaustive scan; argmin takes the lowest index on ties
        return np.argmin(posteriors @ self.matrix, axis=1)

    def expected_losses(self, true_posteriors, actions):
        table = true_posteriors @ self.matrix
        return table[np.arange(table.shape[0]), np.asarray(actions, dtype=np.int64)]

    def has_zero_loss_action(self) -> bool:
        return bool((self.matrix.min(axis=1) == 0.0).all())

    def _check_action(self, action) -> None:
        a = int(action)
        if not 0 <= a < self.n_actions:
            raise ValueError(f"action index {action} outside 0..{self.n_actions - 1}")

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
        return np.where(np.asarray(x, dtype=float) == np.asarray(y, dtype=float), 0.0, 1.0)

    bayes_actions = staticmethod(_threshold_actions)


class AbsoluteLoss(LossSpec):
    """ell = |x - y| on y in [0, 1]; optimal actions sit at the endpoints."""

    kind = "absolute"

    def loss(self, x, y):
        return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    bayes_actions = staticmethod(_threshold_actions)


class AlphaLoss(LossSpec):
    """ell = |x - y|**alpha for alpha > 0.

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
        return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** self.alpha

    def bayes_actions(self, posteriors):
        if self.alpha <= 1.0:
            return _threshold_actions(posteriors)
        with np.errstate(divide="ignore"):
            t = (np.log(posteriors[:, 0]) - np.log(posteriors[:, 1])) / (self.alpha - 1.0)
        out = np.empty(posteriors.shape[0])
        hi = t >= _EXP_CLAMP   # rho1 vanishingly small -> act 0
        lo = t <= -_EXP_CLAMP  # rho0 vanishingly small -> act 1
        mid = ~(hi | lo)
        out[hi] = 0.0
        out[lo] = 1.0
        out[mid] = 1.0 / (1.0 + np.exp(t[mid]))
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

    def expected_losses(self, true_posteriors, actions):
        y = np.asarray(actions, dtype=float)
        out = np.zeros(true_posteriors.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, prob in ((0, 1.0 - y), (1, y)):
                mass = true_posteriors[:, x]
                term = np.where(mass > 0.0, -mass * np.log(prob), 0.0)
                out = out + np.where((mass > 0.0) & (prob <= 0.0), np.inf, term)
        return out


def threshold_gamma(matrix) -> float:
    """Threshold for the binary Bayes rule under a 2x2 matrix loss.

    The action rule predicts 1 exactly when rho1 exceeds

        gamma = (l01 - l00) / (l01 - l00 + l10 - l11).

    Raises DegenerateLossError when the denominator is <= 0, i.e. when one
    prediction direction can never be preferred.
    """
    m = matrix.matrix if isinstance(matrix, MatrixLoss) else np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("threshold_gamma needs a 2x2 loss matrix")
    num = m[0, 1] - m[0, 0]
    den = (m[0, 1] - m[0, 0]) + (m[1, 0] - m[1, 1])
    if den <= 0:
        raise DegenerateLossError(f"degenerate 2x2 loss: threshold denominator {den} <= 0")
    return float(num / den)


def grid_bayes_action(loss: LossSpec, posterior, resolution: float = 1e-5):
    """Minimize the expected loss by scanning the action space directly.

    For matrix losses this scans the columns; for continuous losses it scans
    y = 0, resolution, ..., 1.  Ties go to the first (smallest) candidate.
    Deliberately independent of the closed-form rules it is used to check.
    """
    p = loss._validated(posterior)
    if isinstance(loss, MatrixLoss):
        expected = p @ loss.matrix
        return int(np.argmin(expected))
    ys = np.arange(0.0, 1.0 + resolution / 2, resolution)
    ys[-1] = 1.0
    expected = np.zeros_like(ys)
    for x, mass in enumerate(p):
        if mass > 0.0:
            expected += mass * loss.loss(x, ys)
    return float(ys[int(np.argmin(expected))])


NAMED_LOSSES = {
    "error": ErrorLoss,
    "absolute": AbsoluteLoss,
    "quadratic": QuadraticLoss,
    "hellinger": HellingerLoss,
    "log": LogLoss,
}
