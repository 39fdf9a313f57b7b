"""Log-domain probability arithmetic.

Path probabilities underflow linear float64 well before horizon 50, so every
marginal in this package is carried as a natural-log probability.  Impossible
events are an exact ``-inf`` sentinel (never a tiny float): several summation
conventions downstream need to *detect* zero probability, not approximate it.
"""
from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def log_sum_exp_over_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Vectorized log(sum(exp(.))) along ``axis``; rows of all -inf map to -inf."""
    arr = np.asarray(arr, dtype=float)
    m = arr.max(axis=axis, keepdims=True)
    safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.exp(arr - safe).sum(axis=axis)
        out = np.squeeze(safe, axis=axis) + np.log(s)
    return np.where(np.isneginf(np.squeeze(m, axis=axis)), NEG_INF, out)


def log_or_neg_inf(p) -> np.ndarray:
    """Elementwise log that maps exact zeros to -inf without warnings."""
    with np.errstate(divide="ignore"):
        return np.log(p)
