"""Differential property tests.

The exact engine against the rational oracle: Hypothesis draws small
Bernoulli mixtures with rational parameters (1 to 4 components, horizon up
to 6); the engine runs on their float values and
``oracles.enumerate_bernoulli_mixture`` on the rationals themselves.  The
threshold losses (error, absolute) are left out: the side of 1/2 a tied
posterior lands on depends on float rounding.

Carried measure states against whole histories: both engines on small
binary mixtures, once with each family's own state and once with every
component behind the base-class whole-history state.
"""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from seqpred.engine import exact_evaluate, monte_carlo_evaluate
from seqpred.losses import ErrorLoss, HellingerLoss, LogLoss, MatrixLoss, QuadraticLoss
from seqpred.measures import (
    BernoulliMeasure,
    DeterministicMeasure,
    ExplicitTableMeasure,
    MarkovMeasure,
    SequenceMeasure,
    TimeVaryingBinaryMeasure,
)
from seqpred.mixture import MixtureModel
from seqpred.schemes import ConstantScheme, MajorityVoteScheme

from oracles import enumerate_bernoulli_mixture

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import strategies as st  # noqa: E402

TOL = 1e-9
DISTANCES = ("absolute", "square", "hellinger", "kl", "abs_divergence", "ratio_term")
LOSSES = {"quadratic": QuadraticLoss(), "hellinger": HellingerLoss(), "log": LogLoss()}


@st.composite
def bernoulli_mixtures(draw):
    k = draw(st.integers(1, 4))
    thetas = []
    for _ in range(k):
        den = draw(st.integers(1, 12))
        thetas.append(Fraction(draw(st.integers(0, den)), den))
    raw = [draw(st.integers(1, 9)) for _ in range(k)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    return thetas, weights, draw(st.integers(0, k - 1)), draw(st.integers(1, 6))


# the same examples on every run, and no example database written to disk
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(bernoulli_mixtures())
def test_exact_engine_matches_the_rational_oracle(case):
    thetas, weights, true_index, horizon = case
    mixture = MixtureModel([BernoulliMeasure(float(t)) for t in thetas],
                           [float(w) for w in weights])
    rep = exact_evaluate(mixture, true_index, LOSSES, horizon)
    want = enumerate_bernoulli_mixture(thetas, weights, true_index, horizon)
    for key in DISTANCES:
        assert rep.per_step[key].tolist() == pytest.approx(want["per_step"][key], abs=TOL), key
        assert rep.total(key) == pytest.approx(want["totals"][key], abs=TOL), key
    assert rep.kl_direct == pytest.approx(want["kl_direct"], abs=TOL)
    for label in LOSSES:
        for who in ("mixture", "informed"):
            assert rep.total(f"{who}_loss[{label}]") == pytest.approx(
                want["losses"][label][who], abs=TOL), (who, label)


# -- carried measure states against whole histories ------------------------------

PROBS = (0.0, 0.2, 0.25, 0.5, 0.7, 1.0)
CARRIED_LOSSES = {"error": ErrorLoss(), "quadratic": QuadraticLoss(), "log": LogLoss(),
                  "wide": MatrixLoss([[0.0, 1.0, 0.4], [1.0, 0.0, 0.45]])}
MC_FIELDS = ("per_step", "se_per_step", "se_cumulative")


class _WholeHistory(SequenceMeasure):
    """``measure`` behind the base-class state and step matrix: the whole
    history, read row by row through ``_step_distribution``."""

    def __init__(self, measure):
        super().__init__(measure.alphabet)
        self.measure = measure
        self.is_deterministic = measure.is_deterministic

    def _step_distribution(self, history):
        return self.measure._step_distribution(history)


def _coin(p):
    return [1.0 - p, p]


@st.composite
def binary_measures(draw, horizon):
    """A Bernoulli, time-varying, order-1/2 Markov (zero transitions
    allowed), deterministic or explicit-table measure on two symbols."""
    kind = draw(st.sampled_from(("bernoulli", "time-varying", "markov", "deterministic",
                                 "table")))
    prob = st.sampled_from(PROBS)
    if kind == "bernoulli":
        return BernoulliMeasure(draw(prob))
    if kind == "time-varying":
        power = draw(st.sampled_from((0.5, 1.0, 2.0)))
        return TimeVaryingBinaryMeasure.from_power_law(draw(prob), power)
    if kind == "markov":
        order = draw(st.integers(1, 2))
        rows = [_coin(draw(prob)) for _ in range(2**order)]
        return MarkovMeasure(np.reshape(rows, (2,) * order + (2,)), _coin(draw(prob)), order)
    if kind == "deterministic":
        return DeterministicMeasure.from_pattern(draw(st.lists(st.integers(0, 1), min_size=1,
                                                               max_size=3)))
    table = {h: _coin(draw(prob)) for t in range(horizon) for h in product((0, 1), repeat=t)}
    return ExplicitTableMeasure(table, 2)


@st.composite
def carried_mixtures(draw):
    horizon = draw(st.integers(1, 5))
    comps = draw(st.lists(binary_measures(horizon), min_size=1, max_size=4))
    raw = np.array([draw(st.integers(1, 9)) for _ in comps], dtype=float)
    # 100 and 700 paths: blocks of 40 and of 5 steps
    samples = draw(st.sampled_from((100, 700)))
    return comps, raw / raw.sum(), draw(st.integers(0, len(comps) - 1)), horizon, samples


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(carried_mixtures())
def test_carried_states_match_whole_histories(case):
    comps, weights, true_index, horizon, samples = case
    carried = MixtureModel(comps, weights)
    whole = MixtureModel([_WholeHistory(c) for c in comps], weights)
    schemes = [ConstantScheme(0), MajorityVoteScheme(2)]

    mc = [monte_carlo_evaluate(mix, true_index, CARRIED_LOSSES, horizon, samples=samples,
                               seed=5, schemes=schemes) for mix in (carried, whole)]
    for field in MC_FIELDS:
        for key, row in getattr(mc[1], field).items():
            assert getattr(mc[0], field)[key].tolist() == row.tolist(), (field, key)
    assert (mc[0].kl_direct, mc[0].kl_direct_se) == (mc[1].kl_direct, mc[1].kl_direct_se)

    # the exact engine merges carried states, so only the order of its
    # weighted sums may differ from the unmerged whole-history tree
    ex = [exact_evaluate(mix, true_index, CARRIED_LOSSES, horizon, schemes=schemes)
          for mix in (carried, whole)]
    assert ex[0].node_visits <= ex[1].node_visits
    for key, row in ex[1].per_step.items():
        np.testing.assert_allclose(ex[0].per_step[key], row, rtol=0, atol=1e-12, err_msg=key)
    assert ex[0].kl_direct == pytest.approx(ex[1].kl_direct, abs=1e-12)
