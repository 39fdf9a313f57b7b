"""Differential property test: the exact engine against the rational oracle.

Hypothesis draws small Bernoulli mixtures with rational parameters (1 to 4
components, horizon up to 6); the engine runs on their float values and
``oracles.enumerate_bernoulli_mixture`` on the rationals themselves.  The
threshold losses (error, absolute) are left out: the side of 1/2 a tied
posterior lands on depends on float rounding.
"""
from fractions import Fraction

import pytest

from seqpred.engine import exact_evaluate
from seqpred.losses import HellingerLoss, LogLoss, QuadraticLoss
from seqpred.measures import BernoulliMeasure
from seqpred.mixture import MixtureModel

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
