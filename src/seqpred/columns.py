"""Reductions over a short axis, one whole column at a time.

The engines reduce over the K mixture components or the N symbols at every
history, and K and N are small while the number of histories M is large.
numpy reducing an (M, N) array over its short last axis runs one inner loop
per row; adding, comparing or selecting whole (M,) columns runs N loops in
all.  So every reduction over components or symbols in the per-block and
per-step paths takes whole columns (or whole component slabs, as
``logdomain.log_sum_exp_over_axis`` does), in index order:

* a sum adds ((c0 + c1) + c2) + ..., the order numpy's sum over a
  contiguous last axis uses up to 7 entries (it adds pairwise from 8 on);
* an arg-min or arg-max keeps each row's first best entry, or its first
  NaN, as ``np.argmin`` and ``np.argmax`` do: a later column wins a row
  only when it is strictly better.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def sum_columns(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the last axis, adding whole columns left to right, into
    ``out`` when given; returns the sums."""
    if terms.shape[-1] == 1:
        return np.positive(terms[..., 0], out=out)
    out = np.add(terms[..., 0], terms[..., 1], out=out)
    for j in range(2, terms.shape[-1]):
        out += terms[..., j]
    return out


def _first_best(table: np.ndarray, better: Callable, best_of: Callable) -> np.ndarray:
    """Each row's index of its first best entry in an (M, A) table, by
    ``better`` (strict) with running best ``best_of``; a NaN counts as best,
    so a row with one gets the index of its first NaN."""
    # only a float table holds NaNs; np.isnan would cast an integer one
    has_nan = table.dtype.kind == "f" and bool(np.isnan(table).any())
    best = table[:, 0]
    arg = np.zeros(table.shape[0], dtype=np.int64)
    for j in range(1, table.shape[1]):
        col = table[:, j]
        take = better(col, best)
        if has_nan:
            # a row's first NaN; best_of keeps a NaN best, which nothing beats
            take |= np.isnan(col) & ~np.isnan(best)
        np.copyto(arg, j, where=take)
        best = best_of(best, col)
    return arg


def argmin_columns(table: np.ndarray) -> np.ndarray:
    """The bits of ``np.argmin(table, axis=1)``, by whole columns."""
    return _first_best(table, np.less, np.minimum)


def argmax_columns(table: np.ndarray) -> np.ndarray:
    """The bits of ``np.argmax(table, axis=1)``, by whole columns."""
    return _first_best(table, np.greater, np.maximum)
