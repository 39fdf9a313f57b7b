"""The whole-column reductions against the numpy forms they replace, bit for
bit: the mixture log-sum-exp (and its floored exponents against the
unfloored sum), the arg-min of a matrix loss, the majority vote and the
symbol draw."""
import math

import numpy as np
import pytest

from seqpred.columns import argmax_columns, argmin_columns, sum_columns
from seqpred.logdomain import log_sum_exp_over_axis
from seqpred.losses import ErrorLoss, MatrixLoss
from seqpred.measures import BernoulliMeasure, MarkovMeasure, draw_symbols
from seqpred.mixture import MixtureModel
from seqpred.schemes import MajorityVoteScheme

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

NEG_INF = -math.inf
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)


def numpy_log_sum_exp(arr, axis):
    """The numpy form: ``max`` and ``sum`` over ``axis``."""
    m = arr.max(axis=axis, keepdims=True)
    safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.exp(arr - safe).sum(axis=axis)
        out = np.squeeze(safe, axis=axis) + np.log(s)
    return np.where(np.isneginf(np.squeeze(m, axis=axis)), NEG_INF, out)


def unfloored_log_sum_exp(arr, axis):
    """``log_sum_exp_over_axis`` before it floored its exponents: the slab
    maximum, an empty entry shifted by 0, the exponentials in index order."""
    slabs = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    shift = np.array(slabs[0])
    for slab in slabs[1:]:
        np.maximum(shift, slab, out=shift)
    shift[shift == NEG_INF] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        total = np.exp(slabs[0] - shift)
        for slab in slabs[1:]:
            total = total + np.exp(slab - shift)
        return np.log(total) + shift


def numpy_draw_symbols(probs, u):
    """The numpy form: a cumsum, a count and a reversed argmax over axis 1."""
    cdf = np.cumsum(probs, axis=1)
    drawn = (u[:, None] >= cdf).sum(axis=1)
    last_positive = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return np.minimum(drawn, last_positive)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def history_major(draw, max_k):
    """An (M, K) float array with some all--inf rows and columns."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, max_k))
    arr = draw(hnp.arrays(np.float64, (m, k),
                          elements=st.floats(-800.0, 800.0) | st.just(NEG_INF)))
    arr[draw(st.lists(st.integers(0, m - 1), max_size=2))] = NEG_INF
    arr[:, draw(st.lists(st.integers(0, k - 1), max_size=2))] = NEG_INF
    return arr


# gaps below a slab maximum at and around the exponent floor (-700): exp of
# -708.5 is subnormal, of -745.1 the least subnormal, of -745.2 zero
FLOOR_GAPS = st.sampled_from([0.0, 1.0, 699.9, 700.0, 700.1, 708.5, 745.1, 745.2, 1e4])


@st.composite
def floor_prone(draw):
    """A (K, M) array, K in 1..9, whose entries sit 0 to 1e4 below their
    column's maximum (one slab per column holds it, others may tie), with
    -inf, NaN and +inf entries and some all -inf columns."""
    k = draw(st.integers(1, 9))
    m = draw(st.integers(1, 12))
    top = draw(hnp.arrays(np.float64, m, elements=st.floats(-800.0, 800.0)))
    gaps = draw(hnp.arrays(np.float64, (k, m), elements=FLOOR_GAPS | st.floats(0.0, 1e4)))
    gaps[draw(hnp.arrays(np.int64, m, elements=st.integers(0, k - 1))), np.arange(m)] = 0.0
    arr = top - gaps
    special = draw(hnp.arrays(np.int64, (k, m), elements=st.integers(0, 12)))
    arr[special == 10] = NEG_INF
    arr[special == 11] = math.nan
    arr[special == 12] = math.inf
    arr[:, draw(st.lists(st.integers(0, m - 1), max_size=2))] = NEG_INF
    return arr


class TestLogSumExp:
    @SETTINGS
    @hypothesis.given(floor_prone(), st.integers(1, 3))
    def test_floored_exponents_keep_the_unfloored_bits(self, arr, n):
        # as a (K, M) array and as a component-major (K, M, N) stack
        stack = np.ascontiguousarray(np.repeat(arr[:, :, None], n, axis=2))
        for a in (arr, stack):
            got = log_sum_exp_over_axis(a, axis=0)
            assert got.shape == a.shape[1:]
            assert [v.hex() for v in got.ravel().tolist()] == \
                [v.hex() for v in unfloored_log_sum_exp(a, axis=0).ravel().tolist()]

    @SETTINGS
    @hypothesis.given(history_major(max_k=7))
    def test_component_slabs_match_numpy_over_the_last_axis_up_to_7(self, arr):
        # numpy sums a contiguous last axis in order below 8 entries
        slab = log_sum_exp_over_axis(np.ascontiguousarray(arr.T), axis=0)
        assert same_bits(slab, numpy_log_sum_exp(arr, axis=1))

    @SETTINGS
    @hypothesis.given(history_major(max_k=12), st.integers(2, 4))
    def test_component_major_stacks_match_numpy_over_axis_0(self, arr, n):
        # a (K, M, N) stack of N >= 2 symbols; numpy sums a (K, 1, 1) stack
        # over axis 0 as one contiguous run, pairwise from 8 entries on
        stack = np.ascontiguousarray(np.repeat(arr.T[:, :, None], n, axis=2))
        stack[:, :, 0] -= 1.0
        assert same_bits(log_sum_exp_over_axis(stack, axis=0),
                         numpy_log_sum_exp(stack, axis=0))

    @SETTINGS
    @hypothesis.given(history_major(max_k=7), st.integers(2, 4))
    def test_mixture_matches_the_numpy_form_up_to_7_components(self, comp_logm, n):
        k = comp_logm.shape[1]
        uniform = MarkovMeasure(np.full((n, n), 1.0 / n), np.full(n, 1.0 / n))
        mix = MixtureModel([uniform] * k, np.full(k, 1.0 / k))
        rng = np.random.default_rng(k * 100 + n)
        log_cond = np.log(rng.dirichlet(np.ones(n), size=(k, comp_logm.shape[0])))
        prior_terms = mix.log_weights[None, :] + comp_logm
        log_mix_h = numpy_log_sum_exp(prior_terms, axis=1)
        log_mix_hx = numpy_log_sum_exp(prior_terms.T[:, :, None] + log_cond, axis=0)
        with np.errstate(invalid="ignore"):
            want = np.exp(log_mix_hx - log_mix_h[:, None])
        want[np.isneginf(log_mix_h)] = 1.0 / n
        assert same_bits(mix.log_marginals(comp_logm), log_mix_h)
        assert same_bits(mix.conditionals(log_cond, comp_logm), want)

    def test_nine_components_add_in_order(self):
        # numpy's sum over a last axis of 9 adds pairwise; the slabs add
        # ((t0 + t1) + t2) + ... + t8, as xi(hx) always has
        rng = np.random.default_rng(9)
        k = 9
        weights = rng.dirichlet(np.ones(k))
        mix = MixtureModel([BernoulliMeasure(p) for p in np.linspace(0.1, 0.9, k)], weights)
        comp_logm = rng.uniform(-50.0, 0.0, (2000, k))
        comp_logm[:5] = NEG_INF
        prior_terms = mix.log_weights[None, :] + comp_logm
        m = prior_terms.max(axis=1)
        safe = np.where(np.isneginf(m), 0.0, m)
        with np.errstate(invalid="ignore", divide="ignore"):
            total = sum_columns(np.exp(prior_terms - safe[:, None]))
            want = np.where(np.isneginf(m), NEG_INF, safe + np.log(total))
        assert same_bits(mix.log_marginals(comp_logm), want)
        log_cond = np.log(rng.dirichlet(np.ones(2), size=(k, 2000)))
        with np.errstate(invalid="ignore"):
            cond = mix.conditionals(log_cond, comp_logm)
        hx = log_sum_exp_over_axis(prior_terms.T[:, :, None] + log_cond, axis=0)
        with np.errstate(invalid="ignore"):
            want_cond = np.exp(hx - want[:, None])
        want_cond[:5] = 0.5
        assert same_bits(cond, want_cond)


TIE_PRONE = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, NEG_INF, math.nan])


class TestArgBest:
    @SETTINGS
    @hypothesis.given(hnp.arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 6)),
                                 elements=TIE_PRONE))
    def test_float_tables_match_numpy_with_ties_and_nan(self, table):
        assert same_bits(argmin_columns(table), np.argmin(table, axis=1))
        assert same_bits(argmax_columns(table), np.argmax(table, axis=1))

    @SETTINGS
    @hypothesis.given(hnp.arrays(np.int64, st.tuples(st.integers(1, 9), st.integers(2, 6)),
                                 elements=st.integers(0, 3)))
    def test_majority_vote_matches_numpy(self, counts):
        scheme = MajorityVoteScheme(counts.shape[1])
        want = np.argmax(counts, axis=1)
        assert same_bits(scheme.actions(counts, MatrixLoss(np.eye(counts.shape[1]))), want)
        if counts.shape[1] == 2:
            assert same_bits(scheme.actions(counts, ErrorLoss()), want.astype(float))

    @SETTINGS
    @hypothesis.given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_matrix_loss_bayes_actions_match_numpy(self, n, a, seed):
        rng = np.random.default_rng(seed)
        # repeated columns and rows of equal entries make ties
        matrix = rng.integers(0, 3, (n, a)) / 2.0
        matrix[:, -1] = matrix[:, 0]
        loss = MatrixLoss(matrix)
        posteriors = rng.dirichlet(np.ones(n), size=7)
        posteriors[0] = 1.0 / n
        posteriors[1, 0] = math.nan
        want = np.argmin(loss._risks(posteriors), axis=1)
        assert same_bits(loss.bayes_actions(posteriors), want)
        assert loss.bayes_actions(posteriors)[1] == 0   # the NaN row's first NaN


class TestDrawSymbols:
    PROBS = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0])
    U = st.sampled_from([0.0, 0.5, 0.9999999999999999]) | st.floats(0.0, 1.0, exclude_max=True)

    @SETTINGS
    @hypothesis.given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(2, 6)),
                                 elements=PROBS), st.data())
    def test_matches_the_numpy_form(self, probs, data):
        probs[0] = 0.0   # an all-zero row draws the last symbol
        u = data.draw(hnp.arrays(np.float64, probs.shape[0], elements=self.U))
        assert same_bits(draw_symbols(probs, u), numpy_draw_symbols(probs, u))

    def test_rounded_cdf_and_zero_symbols(self):
        # ten 0.1s sum below 1; a zero symbol sits inside and at the end
        probs = np.array([[0.1] * 5 + [0.0] + [0.1] * 5 + [0.0],
                          [0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        u = np.array([0.9999999999999999, 0.0])
        assert draw_symbols(probs, u).tolist() == [10, 1]
        assert same_bits(draw_symbols(probs, u), numpy_draw_symbols(probs, u))
