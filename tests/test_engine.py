import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from seqpred.engine import (
    BudgetExceededError,
    exact_evaluate,
    monte_carlo_evaluate,
    ratio_trace,
)
from seqpred.losses import AbsoluteLoss, ErrorLoss, HellingerLoss, LogLoss, MatrixLoss, QuadraticLoss
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

from oracles import counterexample_offsymbol_ratio, enumerate_bernoulli_mixture

THREE_COIN_LOSSES = [ErrorLoss(), AbsoluteLoss(), QuadraticLoss(), HellingerLoss(), LogLoss()]

# Frozen from the exact-rational enumeration oracle (tests/oracles.py) over
# all histories at horizon 10; mixture-posterior threshold ties resolved to
# action 0 (the deterministic tie rule).
ORACLE_10 = {
    "absolute": 2.8976045987173924,
    "square": 0.6841984848259359,
    "hellinger": 0.3986906386965598,
    "kl": 0.7550637722666118,
    "abs_divergence": 2.7271081157449815,
    "ratio_term": 0.3986906386965598,
}
ORACLE_10_LOSSES = {
    "error": (2.3056471039999464, 2.0000000000000098),
    "absolute": (2.3056471039999464, 2.0000000000000098),
    "quadratic": (1.9420992424129675, 1.5999999999999979),
    "hellinger": (2.186329389146995, 1.7537887487646646),
    "log": (5.759088007648443, 5.0040242353819515),
}
ORACLE_10_KL_DIRECT = 0.7550637722665828
# True-measure mass of histories whose mixture posterior sits exactly on the
# 1/2 threshold (in exact arithmetic).  Float evaluation may resolve those
# histories to either side; each flip moves the expected threshold-loss by at
# most |mu1 - mu0| = 0.6 times the history weight.
ORACLE_10_TIE_MASS = 1.6013952
TIE_TOL = 0.6 * ORACLE_10_TIE_MASS + 1e-9


def three_coin_mixture():
    return MixtureModel(
        [BernoulliMeasure(0.2), BernoulliMeasure(0.5), BernoulliMeasure(0.8)],
        [1 / 3, 1 / 3, 1 - 2 / 3])


def collapse_mixture():
    return MixtureModel([BernoulliMeasure(0.0), BernoulliMeasure(1.0)], [0.5, 0.5])


class TestExactEngine:
    def test_single_component_mixture_is_degenerate(self):
        mix = MixtureModel([BernoulliMeasure(0.3)], [1.0])
        rep = exact_evaluate(mix, 0, [ErrorLoss(), QuadraticLoss()], 6)
        for key in ("absolute", "square", "hellinger", "kl", "abs_divergence", "ratio_term"):
            np.testing.assert_allclose(rep.per_step[key], 0.0, atol=1e-15)
        assert rep.kl_direct == pytest.approx(0.0, abs=1e-15)
        for lab in rep.loss_labels:
            np.testing.assert_allclose(rep.per_step[f"mixture_loss[{lab}]"],
                                       rep.per_step[f"informed_loss[{lab}]"], atol=1e-15)

    def test_collapse_two_leaf_hand_enumeration(self):
        rep = exact_evaluate(collapse_mixture(), 1, [ErrorLoss()], 1)
        assert rep.total("kl") == pytest.approx(math.log(2), abs=1e-15)

    def test_collapse_kl_stays_at_log2_every_horizon(self):
        rep = exact_evaluate(collapse_mixture(), 1, [ErrorLoss(), LogLoss()], 12)
        for t in range(12):
            assert abs(rep.cumulative["kl"][t] - math.log(2)) <= 1e-12
        assert rep.total("absolute") == pytest.approx(1.0, abs=1e-12)
        assert rep.log_inv_true_weight == pytest.approx(math.log(2), abs=1e-15)

    def test_three_coins_match_enumeration_oracle(self):
        rep = exact_evaluate(three_coin_mixture(), 0, THREE_COIN_LOSSES, 10)
        for key, want in ORACLE_10.items():
            assert rep.total(key) == pytest.approx(want, abs=1e-9)
        assert rep.kl_direct == pytest.approx(ORACLE_10_KL_DIRECT, abs=1e-9)
        for lab, (l_mix, l_inf) in ORACLE_10_LOSSES.items():
            tol = TIE_TOL if lab in ("error", "absolute") else 1e-9
            assert rep.total(f"mixture_loss[{lab}]") == pytest.approx(l_mix, abs=tol)
            assert rep.total(f"informed_loss[{lab}]") == pytest.approx(l_inf, abs=1e-9)

    def test_oracle_helper_reproduces_frozen_values(self):
        got = enumerate_bernoulli_mixture(
            [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)],
            [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)], 0, 10)
        for key, want in ORACLE_10.items():
            assert got["totals"][key] == pytest.approx(want, abs=1e-12)
        assert got["tie_mass"] == pytest.approx(ORACLE_10_TIE_MASS, abs=1e-12)
        assert got["kl_direct"] == pytest.approx(ORACLE_10_KL_DIRECT, abs=1e-12)
        for lab, (l_mix, l_inf) in ORACLE_10_LOSSES.items():
            assert got["losses"][lab]["mixture"] == pytest.approx(l_mix, abs=1e-12)
            assert got["losses"][lab]["informed"] == pytest.approx(l_inf, abs=1e-12)

    def test_per_step_series_match_oracle(self):
        rep = exact_evaluate(three_coin_mixture(), 0, [], 8)
        got = enumerate_bernoulli_mixture(
            [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)],
            [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)], 0, 8)
        for key in ORACLE_10:
            np.testing.assert_allclose(rep.per_step[key], got["per_step"][key], atol=1e-12)

    def test_three_symbol_markov_against_linear_enumeration(self):
        a = MarkovMeasure([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]],
                          initial=[0.4, 0.3, 0.3])
        b = MarkovMeasure([[0.3, 0.4, 0.3], [0.45, 0.2, 0.35], [0.26, 0.5, 0.24]],
                          initial=[0.4, 0.2, 0.4])
        mix = MixtureModel([a, b], [0.4, 0.6])
        loss = MatrixLoss([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        rep = exact_evaluate(mix, 0, [loss], 4)

        # linear-domain brute force over all 3^4 strings
        def marg(m, xs):
            p = 1.0
            h = ()
            for x in xs:
                p *= float(m._step_distribution(h)[x])
                h += (x,)
            return p

        kl = 0.0
        l_mix_tot = 0.0
        for t in range(1, 5):
            for hist in product((0, 1, 2), repeat=t - 1):
                w = marg(a, hist)
                mh = 0.4 * marg(a, hist) + 0.6 * marg(b, hist)
                true = a._step_distribution(hist)
                mix_vec = [(0.4 * marg(a, hist + (x,)) + 0.6 * marg(b, hist + (x,))) / mh
                           for x in range(3)]
                kl += w * sum(float(true[i]) * math.log(float(true[i]) / mix_vec[i])
                              for i in range(3) if true[i] > 0)
                act = int(np.argmin([sum(mix_vec[i] * loss.matrix[i, y] for i in range(3))
                                     for y in range(3)]))
                l_mix_tot += w * sum(float(true[i]) * loss.matrix[i, act] for i in range(3))
        assert rep.total("kl") == pytest.approx(kl, abs=1e-12)
        assert rep.total("mixture_loss[matrix]") == pytest.approx(l_mix_tot, abs=1e-12)

    def test_budget_error_names_fallback_samples(self):
        with pytest.raises(BudgetExceededError, match="monte_carlo_evaluate"):
            exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 12, node_budget=100)

    def test_deterministic_truth_prunes_the_tree(self):
        mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1]), BernoulliMeasure(0.5)],
                           [0.1, 0.9])
        rep = exact_evaluate(mix, 0, [ErrorLoss()], 30)
        assert rep.node_visits == 31  # one history per level
        assert rep.mu_is_deterministic

    def test_cumulative_series_non_decreasing(self):
        for mix, idx, n in ((three_coin_mixture(), 0, 10), (collapse_mixture(), 1, 12)):
            rep = exact_evaluate(mix, idx, THREE_COIN_LOSSES, n)
            for key, series in rep.cumulative.items():
                assert (np.diff(series) >= -1e-12).all(), key

    def test_bit_for_bit_reproducibility(self):
        r1 = exact_evaluate(three_coin_mixture(), 0, THREE_COIN_LOSSES, 9)
        r2 = exact_evaluate(three_coin_mixture(), 0, THREE_COIN_LOSSES, 9)
        for key in r1.per_step:
            assert np.array_equal(r1.per_step[key], r2.per_step[key])
        assert r1.kl_direct == r2.kl_direct


@pytest.fixture(scope="module")
def records_report():
    return exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 8,
                          collect_records=True, schemes=[ConstantScheme(0)])


class TestHistoryRecords:
    def test_record_count_is_full_binary_tree(self, records_report):
        # a record stands for `multiplicity` histories sharing one state
        records = records_report.records
        for t in range(1, 9):
            assert sum(r.multiplicity for r in records if r.step == t) == 2**(t - 1)
        assert sum(r.multiplicity for r in records) == 2**8 - 1

    def test_weights_sum_to_one_per_step(self, records_report):
        for t in range(1, 9):
            total = sum(r.weight for r in records_report.records if r.step == t)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_per_history_distance_sandwich(self, records_report):
        # absdiv - kl <= abs <= sqrt(2 kl) for every enumerated history
        for rec in records_report.records:
            d = rec.distances
            assert d.abs_divergence - d.kl <= d.absolute + 1e-12
            assert d.absolute <= math.sqrt(max(2 * d.kl, 0.0)) + 1e-12

    def test_loss_gap_view(self, records_report):
        rec = records_report.records[0]
        assert rec.loss_gap["error"] == pytest.approx(
            rec.losses["error"][0] - rec.losses["error"][1], abs=0)


def _brute_force_totals(mixture, true_index, loss, horizon):
    """Per-history float loop over every binary string: marginals as
    products of ``_step_distribution`` along the path, the mixture
    conditional as a ratio of linear-domain mixture marginals."""
    comps, w = mixture.components, mixture.weights
    truth = comps[true_index]

    def marg(m, h):
        p = 1.0
        for i, x in enumerate(h):
            p *= float(m._step_distribution(h[:i])[x])
        return p

    tot = dict.fromkeys(("kl", "absolute", "square", "hellinger", "mixture", "informed",
                         "majority"), 0.0)
    kl_direct = 0.0
    for t in range(horizon + 1):
        for h in product((0, 1), repeat=t):
            weight = marg(truth, h)
            if weight == 0.0:
                continue
            mix_h = sum(wk * marg(c, h) for wk, c in zip(w, comps))
            if t == horizon:
                kl_direct += weight * math.log(weight / mix_h)
                continue
            y = truth._step_distribution(h)
            z = [sum(wk * marg(c, h + (x,)) for wk, c in zip(w, comps)) / mix_h for x in (0, 1)]
            tot["kl"] += weight * sum(y[i] * math.log(y[i] / z[i]) for i in (0, 1) if y[i] > 0)
            tot["absolute"] += weight * sum(abs(y[i] - z[i]) for i in (0, 1))
            tot["square"] += weight * sum((y[i] - z[i]) ** 2 for i in (0, 1))
            tot["hellinger"] += weight * sum((math.sqrt(y[i]) - math.sqrt(z[i])) ** 2
                                             for i in (0, 1))

            def loss_of(act):
                return sum(y[i] * loss.matrix[i, act] for i in (0, 1))

            def bayes(post):
                risks = [sum(post[i] * loss.matrix[i, a] for i in (0, 1))
                         for a in range(loss.n_actions)]
                return risks.index(min(risks))

            tot["mixture"] += weight * loss_of(bayes(z))
            tot["informed"] += weight * loss_of(bayes(y))
            tot["majority"] += weight * loss_of(int(h.count(1) > h.count(0)))
    return tot, kl_direct


class _CoinWithoutStateKey(SequenceMeasure):
    """A coin that keeps the base-class ``state_key`` (the whole history)."""

    def __init__(self, theta):
        super().__init__(BernoulliMeasure(theta).alphabet)
        self._vec = np.array([1.0 - theta, theta])

    def _step_distribution(self, history):
        return self._vec


class TestStateMerging:
    H = 6
    LOSS = MatrixLoss([[0.0, 0.83, 0.37], [0.91, 0.06, 0.52]])

    @staticmethod
    def _components():
        rng = np.random.default_rng(5)
        table = {}
        for t in range(TestStateMerging.H):
            for h in product((0, 1), repeat=t):
                p = float(rng.uniform(0.05, 0.95))
                table[h] = [1.0 - p, p]
        table[(1, 1)] = [1.0, 0.0]  # a zero the other components never have
        return [
            # dyadic rows make many paths' log-marginals bitwise equal, so a
            # key that forgot the older context symbol would merge wrongly
            MarkovMeasure([[[0.75, 0.25], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
                          initial=[0.5, 0.5], order=2),
            TimeVaryingBinaryMeasure(lambda t: 0.25 if t % 2 else 0.5),
            ExplicitTableMeasure(table, 2),
        ]

    @pytest.mark.parametrize("members", [(0, 1, 2), (0, 1)], ids=["with-table", "no-table"])
    def test_merged_engine_matches_per_history_brute_force(self, members):
        comps = [self._components()[i] for i in members]
        mix = MixtureModel(comps, np.full(len(comps), 1.0 / len(comps)))
        rep = exact_evaluate(mix, 0, {"m": self.LOSS}, self.H,
                             schemes=[MajorityVoteScheme(2)])
        want, kl_direct = _brute_force_totals(mix, 0, self.LOSS, self.H)
        for key in ("kl", "absolute", "square", "hellinger"):
            assert rep.total(key) == pytest.approx(want[key], abs=1e-12), key
        assert rep.total("mixture_loss[m]") == pytest.approx(want["mixture"], abs=1e-12)
        assert rep.total("informed_loss[m]") == pytest.approx(want["informed"], abs=1e-12)
        assert rep.total("scheme_loss[majority-vote|m]") == pytest.approx(want["majority"],
                                                                          abs=1e-12)
        assert rep.kl_direct == pytest.approx(kl_direct, abs=1e-12)
        full_tree = 2**(self.H + 1) - 1
        if 2 in members:
            # the table keys on the whole history: nothing merges
            assert rep.node_visits == full_tree
        else:
            assert rep.node_visits < full_tree

    def test_subclass_without_state_key_walks_the_full_tree(self):
        def run(first):
            mix = MixtureModel([first, BernoulliMeasure(0.5)], [0.5, 0.5])
            return exact_evaluate(mix, 0, [ErrorLoss(), QuadraticLoss()], 8,
                                  schemes=[ConstantScheme(0)])

        plain, merged = run(_CoinWithoutStateKey(0.2)), run(BernoulliMeasure(0.2))
        assert plain.node_visits == 2**9 - 1
        assert merged.node_visits < plain.node_visits
        for key in plain.cumulative:
            np.testing.assert_allclose(merged.cumulative[key], plain.cumulative[key],
                                       rtol=0, atol=1e-12)

    def test_float_state_key_is_rejected(self):
        class FloatKeyCoin(_CoinWithoutStateKey):
            def state_key(self, histories, t):
                return histories.astype(float)

        mix = MixtureModel([FloatKeyCoin(0.2), BernoulliMeasure(0.5)], [0.5, 0.5])
        with pytest.raises(TypeError):
            exact_evaluate(mix, 0, [ErrorLoss()], 3)


class TestAlternativeSchemes:
    def test_informed_predictor_is_never_beaten(self):
        schemes = [ConstantScheme(0), MajorityVoteScheme(2)]
        rep = exact_evaluate(three_coin_mixture(), 0,
                             [ErrorLoss(), QuadraticLoss()], 8, schemes=schemes)
        for lab in ("error", "quadratic"):
            l_inf = rep.total(f"informed_loss[{lab}]")
            for scheme in ("constant-0", "majority-vote"):
                assert l_inf <= rep.total(f"scheme_loss[{scheme}|{lab}]") + 1e-12

    def test_constant_scheme_loss_is_expected_constant(self):
        rep = exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 5,
                             schemes=[ConstantScheme(0)])
        # constant 0 under the error loss loses exactly mu1 = 0.2 per step
        np.testing.assert_allclose(rep.per_step["scheme_loss[constant-0|error]"], 0.2,
                                   atol=1e-12)


class TestMonteCarlo:
    def test_degenerate_truth_is_zero_variance_and_exact(self):
        mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1]), BernoulliMeasure(0.5)],
                           [0.5, 0.5])
        mc = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 10, samples=200, seed=1)
        ex = exact_evaluate(mix, 0, [ErrorLoss()], 10)
        for key in mc.per_step:
            np.testing.assert_allclose(mc.per_step[key], ex.per_step[key], atol=1e-12)
            np.testing.assert_allclose(mc.se_per_step[key], 0.0, atol=1e-12)

    def test_agrees_with_exact_within_three_se(self):
        mix = three_coin_mixture()
        mc = monte_carlo_evaluate(mix, 0, THREE_COIN_LOSSES, 10, samples=4000, seed=99)
        ex = exact_evaluate(mix, 0, THREE_COIN_LOSSES, 10)
        points = outside = 0
        for key in mc.per_step:
            for t in range(10):
                points += 1
                gap = abs(mc.per_step[key][t] - ex.per_step[key][t])
                outside += gap > 3 * mc.se_per_step[key][t] + 1e-12
        assert points == 10 * len(mc.per_step)
        assert outside / points <= 0.05

    def test_seed_determinism(self):
        mix = three_coin_mixture()
        a = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 6, samples=500, seed=7)
        b = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 6, samples=500, seed=7)
        for key in a.per_step:
            assert np.array_equal(a.per_step[key], b.per_step[key])
            assert np.array_equal(a.se_cumulative[key], b.se_cumulative[key])

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="100"):
            monte_carlo_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 4, samples=10, seed=0)

    def test_counterexample_run_is_finite_and_on_the_zero_path(self):
        mix = MixtureModel([TimeVaryingBinaryMeasure.from_power_law(0.5, 3.0),
                            TimeVaryingBinaryMeasure.from_power_law(0.5, 2.0)], [0.5, 0.5])
        mc = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 1000, samples=200, seed=4)
        assert np.isfinite(mc.total("kl"))
        assert mc.total("kl") <= math.log(2)  # entropy bound, large margin


class TestRatioTrace:
    def test_single_component_is_identically_one(self):
        mix = MixtureModel([BernoulliMeasure(0.3)], [1.0])
        np.testing.assert_allclose(ratio_trace(mix, 0, [0, 1, 0, 1]), 1.0, atol=1e-15)

    def test_counterexample_grows_linearly_at_the_off_symbol(self):
        mix = MixtureModel([TimeVaryingBinaryMeasure.from_power_law(0.5, 3.0),
                            TimeVaryingBinaryMeasure.from_power_law(0.5, 2.0)], [0.5, 0.5])
        tr = ratio_trace(mix, 0, [0] * 1000, symbol=1)
        want = counterexample_offsymbol_ratio(1000)
        np.testing.assert_allclose(tr, want, rtol=1e-10)
        assert tr[999] / tr[99] == pytest.approx(10.0, rel=0.05)
        slope = (math.log(tr[999]) - math.log(tr[99])) / (math.log(1000) - math.log(100))
        assert 0.95 <= slope <= 1.05

    def test_two_coin_ratio_approaches_one_monotonically(self):
        mix = MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.8)], [0.5, 0.5])
        tr = ratio_trace(mix, 0, [0] * 60)
        gaps = np.abs(tr - 1.0)
        assert (np.diff(gaps) <= 1e-15).all()
        assert gaps[-1] < 1e-12

    def test_zero_probability_symbol_is_a_domain_error(self):
        mix = MixtureModel([BernoulliMeasure(1.0), BernoulliMeasure(0.5)], [0.5, 0.5])
        with pytest.raises(ValueError, match="zero true-measure probability"):
            ratio_trace(mix, 0, [0, 0])
