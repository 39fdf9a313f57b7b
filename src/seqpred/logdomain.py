"""Log-domain probability arithmetic.

Path probabilities underflow linear float64 well before horizon 50, so every
marginal in this package is carried as a natural-log probability.  Impossible
events are an exact ``-inf`` sentinel (never a tiny float): several summation
conventions downstream need to *detect* zero probability, not approximate it.
"""
from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
# the floor of every exponent in ``log_sum_exp_over_axis``: exp(-700) is
# about 1e-304, a normal double.  numpy's exp runs an order of magnitude
# slower where its results underflow to 0, and two where they are subnormal
EXP_FLOOR = -700.0


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

    Each exponent (a slab minus the maximum) is floored at ``EXP_FLOOR``
    before its ``exp``, and the totals keep the bits of the unfloored sum.
    In every entry that is not all -inf, the slab holding the maximum adds
    exactly exp(0) = 1, and the floor moves only terms below exp(-700),
    about 1e-304.  Added to a partial sum of 1 or more, such a term moves
    nothing.  Before the 1, the floored and unfloored partial sums can
    differ only while both are far below the rounding unit of 1 (a term
    large enough to absorb a floored one absorbs either), so adding the 1
    gives exactly 1 either way.  An all -inf entry, whose terms are NaN, is
    written -inf after the log; NaN and +inf propagate as without the floor.
    """
    slabs = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    # three slab-sized buffers, each written in place: the running maximum
    # (the shift), the total (then the result) and one term
    shift = np.array(slabs[0])
    for slab in slabs[1:]:
        np.maximum(shift, slab, out=shift)

    def floored_exp(slab, out):
        np.subtract(slab, shift, out=out)
        np.maximum(out, EXP_FLOOR, out=out)
        return np.exp(out, out=out)

    total, term = np.empty_like(shift), np.empty_like(shift)
    # an empty entry's terms are NaN (-inf - -inf), and so is its total
    with np.errstate(invalid="ignore"):
        floored_exp(slabs[0], total)
        for slab in slabs[1:]:
            total += floored_exp(slab, term)
        np.log(total, out=total)
        total += shift
    empty = shift == NEG_INF
    if empty.any():
        total[empty] = NEG_INF
    return total


def log_or_neg_inf(p) -> np.ndarray:
    """Elementwise log that maps exact zeros to -inf without warnings."""
    with np.errstate(divide="ignore"):
        return np.log(p)
