"""Distances between next-symbol posterior vectors.

For probability vectors y (true) and z (predicted) over N symbols:

    absolute            sum_i |y_i - z_i|
    square              sum_i (y_i - z_i)^2
    hellinger           sum_i (sqrt(y_i) - sqrt(z_i))^2
    kl                  sum'_i y_i * ln(y_i / z_i)
    abs_divergence      sum'_i y_i * |ln(y_i / z_i)|

where sum' skips indices with y_i == 0 exactly (avoiding 0*ln 0; zero
probability is an exact sentinel upstream, so the test is exact).  If some
z_i == 0 where y_i > 0, kl and abs_divergence are +inf -- a distinguished
value that propagates into reports rather than raising.  This cannot happen
for a mixture that contains the true measure with positive weight
(dominance), but user-supplied substitutes may trigger it.

The companion ``ratio_term`` is sum'_i (sqrt(z_i) - sqrt(y_i))^2, the
y-expectation of (sqrt(z/y) - 1)^2: the Hellinger terms on the support of y
alone, so it never exceeds hellinger, which never exceeds kl.

Inputs are single-step conditional vectors, which are well scaled even when
path marginals are tiny, so everything here is linear-domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .columns import sum_columns
from .measures import POSTERIOR_SUM_TOL, _check_distribution

DISTANCE_NAMES = ("absolute", "square", "hellinger", "kl", "abs_divergence")
# the rows of ``distances_batch``: the five distances, then the ratio term
DISTANCE_KEYS = DISTANCE_NAMES + ("ratio_term",)


@dataclass(frozen=True)
class StepDistances:
    """The five instantaneous distances at one history."""

    absolute: float
    square: float
    hellinger: float
    kl: float
    abs_divergence: float


def _pair(true_vec, predicted_vec) -> tuple[np.ndarray, np.ndarray]:
    y = _check_distribution(true_vec, "true posterior", "true_vec", POSTERIOR_SUM_TOL)
    z = _check_distribution(predicted_vec, "predicted posterior", "predicted_vec",
                            POSTERIOR_SUM_TOL)
    if y.shape != z.shape:
        raise ValueError("posterior vectors must have equal length")
    return y, z


def instant_distances(true_vec, predicted_vec) -> StepDistances:
    """All five distances between one pair of posterior vectors."""
    y, z = _pair(true_vec, predicted_vec)
    batch = distances_batch(y[None, :], z[None, :])
    return StepDistances(
        absolute=float(batch["absolute"][0]),
        square=float(batch["square"][0]),
        hellinger=float(batch["hellinger"][0]),
        kl=float(batch["kl"][0]),
        abs_divergence=float(batch["abs_divergence"][0]),
    )


def ratio_term(true_vec, predicted_vec) -> float:
    """sum'_i (sqrt(z_i) - sqrt(y_i))^2 over the support of y."""
    y, z = _pair(true_vec, predicted_vec)
    return float(ratio_term_batch(y[None, :], z[None, :])[0])


# -- vectorized forms used by the evaluation engines ---------------------------

def distances_batch(Y: np.ndarray, Z: np.ndarray,
                    out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The five distances and the ratio term of row-aligned (M, N) batches of
    posterior vectors (no validation), by ``DISTANCE_KEYS``: the rows of
    ``out``, a (6, M) array (a new one when None), which this fills.

    One pass writes every per-symbol term into a (6, M, N) array, in place,
    and one column sum adds them into ``out``.  The ratio term is the
    Hellinger term on the support of Y, since (sqrt(z) - sqrt(y))^2 has the
    bits of (sqrt(y) - sqrt(z))^2.  The masks of the support and of the
    infinite terms are written only where some y_i is not > 0, or some
    z_i == 0 on the support.
    """
    terms = np.empty((len(DISTANCE_KEYS),) + Y.shape)   # (distance, M, N)
    absolute, square, hellinger, kl, abs_div, ratio = terms
    np.subtract(Y, Z, out=square)
    np.abs(square, out=absolute)
    np.multiply(square, square, out=square)
    np.sqrt(Y, out=hellinger)
    np.subtract(hellinger, np.sqrt(Z, out=ratio), out=hellinger)
    np.multiply(hellinger, hellinger, out=hellinger)
    np.copyto(ratio, hellinger)
    support = Y > 0.0
    infinite = support & (Z == 0.0)
    log_ratio = abs_div
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(np.divide(Y, Z, out=log_ratio), out=log_ratio)
    if not support.all():
        np.copyto(ratio, 0.0, where=~support)
        np.copyto(log_ratio, 0.0, where=~support)
    np.multiply(Y, log_ratio, out=kl)
    np.multiply(Y, np.abs(log_ratio, out=abs_div), out=abs_div)
    # an infinite term's log ratio is +inf, or NaN for z = -0.0
    if infinite.any():
        np.copyto(kl, np.inf, where=infinite)
        np.copyto(abs_div, np.inf, where=infinite)
    return dict(zip(DISTANCE_KEYS, sum_columns(terms, out=out)))


def ratio_term_batch(Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum'_i (sqrt(z_i) - sqrt(y_i))^2 of each row pair: ``distances_batch``'s
    ratio term."""
    return distances_batch(Y, Z)["ratio_term"]
