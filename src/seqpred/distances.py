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
y-expectation of (sqrt(z/y) - 1)^2; it never exceeds hellinger, which never
exceeds kl.

Inputs are single-step conditional vectors, which are well scaled even when
path marginals are tiny, so everything here is linear-domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import POSTERIOR_SUM_TOL, _check_distribution

DISTANCE_NAMES = ("absolute", "square", "hellinger", "kl", "abs_divergence")


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

def _sum_columns(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (symbol) axis by adding whole columns left to right,
    ((t0 + t1) + t2) + ..., at every alphabet size.

    ``terms.sum(axis=-1)`` adds each row pairwise from 8 symbols on and pays
    one inner-loop call per row; a column add is one call for all rows.
    """
    out = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        out = out + terms[..., j]
    return out


def distances_batch(Y: np.ndarray, Z: np.ndarray) -> dict[str, np.ndarray]:
    """Distances for row-aligned batches of posterior vectors (no validation)."""
    terms = np.empty((len(DISTANCE_NAMES),) + Y.shape)   # (distance, M, N)
    diff = Y - Z
    np.abs(diff, out=terms[0])
    np.multiply(diff, diff, out=terms[1])
    sqrt_gap = np.sqrt(Y) - np.sqrt(Z)
    np.multiply(sqrt_gap, sqrt_gap, out=terms[2])
    support = Y > 0.0
    infinite = support & (Z == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(Y / Z)
    log_ratio = np.where(support & ~infinite, log_ratio, 0.0)
    terms[3] = np.where(infinite, np.inf, Y * log_ratio)
    terms[4] = np.where(infinite, np.inf, Y * np.abs(log_ratio))
    return dict(zip(DISTANCE_NAMES, _sum_columns(terms)))


def ratio_term_batch(Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    sqrt_gap = np.sqrt(Z) - np.sqrt(Y)
    return _sum_columns(np.where(Y > 0.0, sqrt_gap * sqrt_gap, 0.0))
