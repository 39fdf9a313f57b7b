"""The gather rule against the numpy forms it replaces, bit for bit: every
row gather a ``take(idx, axis=0)`` and every repeated row a
``row[None].repeat(n, axis=0)`` (``_Rows.take``, a Markov chain's context
rows, majority vote's one-hot rows, ``_rows_by_step``, Bernoulli's step
matrix, a nested mixture's state header), and the exact engine's batched
per-level product against one ``weights @ series`` dot per series.  Each
result must have the old form's bits, shape and dtype, and be writable."""
import math

import numpy as np
import pytest

from seqpred.engine import _level_sums, _Rows
from seqpred.measures import BernoulliMeasure, MarkovMeasure, _rows_by_step
from seqpred.mixture import MixtureModel
from seqpred.schemes import MajorityVoteScheme

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)


def same_array(new, old):
    """The same bits, shape and dtype, and ``new`` is writable."""
    return (new.dtype == old.dtype and new.shape == old.shape
            and new.tobytes() == old.tobytes() and new.flags.writeable)


def old_markov_step_matrix(chain, states, t):
    """The tuple-of-context-columns form."""
    one_step = isinstance(t, (int, np.integer))
    if one_step and t < chain.order:
        return np.tile(chain.initial, (states.shape[0], 1))
    mats = chain.transitions[tuple(states[:, j - chain.order] for j in range(chain.order))]
    if not one_step:
        mats[t < chain.order] = chain.initial
    return mats


def old_majority_extend(scheme, states, symbols):
    """The fancy-indexed one-hot form."""
    counts = np.eye(scheme.alphabet_size, dtype=np.int64)[symbols]
    counts[0] += states
    for j in range(1, counts.shape[0]):
        counts[j] += counts[j - 1]
    return counts


def old_rows_by_step(t, n, row_at):
    if isinstance(t, (int, np.integer)):
        return np.tile(row_at(int(t)), (n, 1))
    steps, inverse = np.unique(t, return_inverse=True)
    return np.stack([row_at(s) for s in steps.tolist()])[inverse]


def random_chain(rng, order, n):
    table = rng.random((n,) * (order + 1)) + 0.05
    table /= table.sum(axis=-1, keepdims=True)
    initial = rng.random(n) + 0.05
    return MarkovMeasure(table, initial / initial.sum(), order=order)


class TestRowTake:
    @SETTINGS
    @hypothesis.given(st.integers(1, 40), st.integers(0, 60), st.lists(st.integers(0, 3),
                      min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_take_matches_the_fancy_index(self, m, picks, widths, seed):
        # state widths 0 to 3, a zero-width (M, 0) state among them
        rng = np.random.default_rng(seed)
        rows = _Rows(rng.normal(size=(m, 3)),
                     tuple([rng.integers(-5, 2**40, size=(m, w)) for w in widths]))
        idx = rng.integers(0, m, size=picks)
        got = rows.take(idx)
        assert same_array(got.comp_logm, rows.comp_logm[idx])
        assert len(got.states) == len(widths)
        for new, state in zip(got.states, rows.states):
            assert same_array(new, state[idx])


class TestMarkovContext:
    @SETTINGS
    @hypothesis.given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 40),
                      st.integers(0, 2), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_one_step(self, order, n, m, extra, t, seed):
        # a carried state of ``order`` columns or a wider history; before
        # step ``order`` the repeated initial row
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, order, n)
        states = rng.integers(0, n, size=(m, order + extra))
        assert same_array(chain._step_matrix(states, t),
                          old_markov_step_matrix(chain, states, t))

    @SETTINGS
    @hypothesis.given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 40),
                      st.integers(0, 2**32 - 1))
    def test_one_step_per_row_rewrites_the_padding_rows(self, order, n, m, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, order, n)
        states = rng.integers(0, n, size=(m, order))
        t = rng.integers(0, order + 3, size=m)
        got = chain._step_matrix(states, t)
        assert same_array(got, old_markov_step_matrix(chain, states, t))
        assert (got[t < order] == chain.initial).all()

    def test_every_context_reads_its_own_row(self):
        chain = random_chain(np.random.default_rng(3), 3, 3)
        contexts = np.array(np.unravel_index(np.arange(27), (3, 3, 3))).T
        assert same_array(chain._step_matrix(contexts, 3),
                          chain.transitions.reshape(27, 3))


class TestMajorityVote:
    @SETTINGS
    @hypothesis.given(st.integers(2, 5), st.integers(1, 12), st.integers(0, 30),
                      st.integers(0, 2**32 - 1))
    def test_block_extension_matches_the_fancy_index(self, n, steps, m, seed):
        rng = np.random.default_rng(seed)
        scheme = MajorityVoteScheme(n)
        states = rng.integers(0, 50, size=(m, n))
        symbols = rng.integers(0, n, size=(steps, m))
        assert same_array(scheme.extend_state(states, symbols),
                          old_majority_extend(scheme, states, symbols))


class TestRepeatedRows:
    @SETTINGS
    @hypothesis.given(st.integers(0, 50), st.integers(2, 4), st.integers(0, 8),
                      st.integers(0, 2**32 - 1))
    def test_rows_by_step(self, n, size, t, seed):
        rng = np.random.default_rng(seed)
        table = rng.random((12, size))

        def row_at(step):
            return table[step].copy()

        assert same_array(_rows_by_step(t, n, row_at), old_rows_by_step(t, n, row_at))
        steps = rng.integers(0, 12, size=max(n, 1))        # an empty stack fails either way
        assert same_array(_rows_by_step(steps, steps.size, row_at),
                          old_rows_by_step(steps, steps.size, row_at))

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_bernoulli_step_matrix(self, n):
        coin = BernoulliMeasure(0.3)
        assert same_array(coin._step_matrix(np.zeros((n, 0), dtype=np.int64), 4),
                          np.tile(coin._vec, (n, 1)))

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_mixture_state_header(self, n):
        rng = np.random.default_rng(n)
        mix = MixtureModel([BernoulliMeasure(0.2), random_chain(rng, 3, 2),
                            random_chain(rng, 2, 2)], [0.3, 0.3, 0.4])
        comp_logm = rng.normal(size=(n, 3))
        states = [np.zeros((n, 0), dtype=np.int64), rng.integers(0, 2, size=(n, 3)),
                  rng.integers(0, 2, size=(n, 2))]
        for t in (5, rng.integers(0, 9, size=n)):
            header = np.tile(np.array([0, 0, 3, 2], dtype=np.int64), (n, 1))
            header[:, 0] = t
            old = np.concatenate([header, comp_logm.view(np.int64), *states], axis=1)
            assert same_array(mix._pack(t, comp_logm, states), old)


class TestLevelSums:
    SPECIAL = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-310, 1e300])

    @SETTINGS
    @hypothesis.given(st.integers(1, 2000), st.integers(1, 40), st.integers(0, 2000),
                      st.integers(0, 60), st.integers(0, 2**32 - 1))
    def test_batched_product_matches_one_dot_per_series(self, n, series, offset, specials,
                                                         seed):
        # a level is a column slice of a (series, M) block, as in the engine,
        # its values with infinities and NaNs, its weights with zeros
        rng = np.random.default_rng(seed)
        block = rng.normal(scale=10.0, size=(series, offset + n + 3))
        block.flat[rng.integers(0, block.size, size=specials)] = rng.choice(
            self.SPECIAL, size=specials)
        level = block[:, offset:offset + n]
        weights = rng.random(n) * (rng.random(n) > 0.1)
        with np.errstate(invalid="ignore", over="ignore"):    # 0 * inf, inf - inf
            old = np.array([weights @ row for row in level])
            assert same_array(_level_sums(level, weights), old)
