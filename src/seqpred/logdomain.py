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
    """Vectorized log(sum(exp(.))) over ``axis``; entries whose values along
    it are all -inf map to -inf.

    The reduction takes one whole slab (one index of ``axis``) at a time:
    the maximum, then the exponentials added in index order.  A caller
    reducing over K components passes a C-contiguous component-major array
    and ``axis=0``, so each slab is one contiguous run of memory.  numpy's
    own ``max`` and ``sum`` over a short last axis run one inner loop per
    row, and its sum adds pairwise from 8 entries on; over the slabs the sum
    is in index order for every K.
    """
    slabs = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    # three slab-sized buffers, each written in place: the running maximum
    # (then the shift), the total (then the result) and one term.  An empty
    # entry is shifted by 0, when there is one, so its total is 0 and its
    # log -inf.
    shift = np.array(slabs[0])
    for slab in slabs[1:]:
        np.maximum(shift, slab, out=shift)
    empty = shift == NEG_INF
    if empty.any():
        shift[empty] = 0.0
    total, term = np.empty_like(shift), np.empty_like(shift)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.exp(np.subtract(slabs[0], shift, out=total), out=total)
        for slab in slabs[1:]:
            total += np.exp(np.subtract(slab, shift, out=term), out=term)
        np.log(total, out=total)
        total += shift
    return total


def log_or_neg_inf(p) -> np.ndarray:
    """Elementwise log that maps exact zeros to -inf without warnings."""
    with np.errstate(divide="ignore"):
        return np.log(p)
