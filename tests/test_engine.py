import math
import warnings
from types import SimpleNamespace
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

from seqpred import engine
from seqpred.bounds import InstantChecks, check_instant_bounds, check_instant_distance_bounds
from seqpred.engine import (
    BLOCK_ROWS,
    BudgetExceededError,
    _Rows,
    _StepEvaluator,
    _means_and_standard_errors,
    _merge_equal_rows,
    _widens,
    exact_evaluate,
    monte_carlo_evaluate,
    ratio_trace,
)
from seqpred.logdomain import log_or_neg_inf, log_sum_exp_over_axis
from seqpred.losses import (
    AbsoluteLoss,
    AlphaLoss,
    ErrorLoss,
    HellingerLoss,
    LogLoss,
    MatrixLoss,
    QuadraticLoss,
)
from seqpred.measures import (
    BernoulliMeasure,
    DeterministicMeasure,
    ExplicitTableMeasure,
    MarkovMeasure,
    SequenceMeasure,
    TimeVaryingBinaryMeasure,
    draw_symbols,
    states_before,
)
from seqpred.mixture import MixtureModel, walk_block
from seqpred.schemes import ConstantScheme, MajorityVoteScheme, PredictionScheme

from oracles import (
    counterexample_offsymbol_ratio,
    distance_terms,
    enumerate_bernoulli_mixture,
    left_to_right_row_sums,
    reference_conditional,
)

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
                p *= float(reference_conditional(m, h)[x])
                h += (x,)
            return p

        kl = 0.0
        l_mix_tot = 0.0
        for t in range(1, 5):
            for hist in product((0, 1, 2), repeat=t - 1):
                w = marg(a, hist)
                mh = 0.4 * marg(a, hist) + 0.6 * marg(b, hist)
                true = reference_conditional(a, hist)
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


def _keep_levels(levels):
    """A test-side observer: appends every level it sees to ``levels``,
    with each node's rebuilt history."""
    def observer(step, weights, multiplicity, values, history):
        levels.append(SimpleNamespace(step=step, weights=weights, multiplicity=multiplicity,
                                      values=values,
                                      histories=[history(i) for i in range(weights.size)]))
    return observer


@pytest.fixture(scope="module")
def records_report():
    levels = []
    report = exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 8,
                            schemes=[ConstantScheme(0)], observer=_keep_levels(levels))
    return report, levels


class TestHistoryRecords:
    def test_record_count_is_full_binary_tree(self, records_report):
        # the observer sees every step; a row stands for `multiplicity`
        # histories sharing one state
        _, levels = records_report
        assert [r.step for r in levels] == list(range(1, 9))
        for r in levels:
            assert r.multiplicity.sum() == 2**(r.step - 1)
            assert len(r.histories) == r.weights.size
            assert all(len(h) == r.step - 1 for h in r.histories)
        assert sum(r.multiplicity.sum() for r in levels) == 2**8 - 1

    def test_weights_sum_to_one_per_step(self, records_report):
        for r in records_report[1]:
            assert r.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_level_arrays_give_the_per_step_series(self, records_report):
        report, levels = records_report
        for r in levels:
            for key, series in report.per_step.items():
                assert r.values[key].shape == r.weights.shape
                assert float(r.weights @ r.values[key]) == series[r.step - 1]

    def test_per_history_distance_sandwich(self, records_report):
        # absdiv - kl <= abs <= sqrt(2 kl) for every enumerated history
        for rec in records_report[1]:
            v = rec.values
            assert (v["abs_divergence"] - v["kl"] <= v["absolute"] + 1e-12).all()
            assert (v["absolute"] <= np.sqrt(np.maximum(2 * v["kl"], 0.0)) + 1e-12).all()


def _first_seen_histories(mixture, true_index, schemes, depth):
    """Brute force over whole histories: every positive-probability history
    of ``depth`` symbols, in the unmerged walk's order (last symbol slowest),
    each walked alone from the empty history to its merge key.  Returns the
    first history of each distinct key, in order of first appearance, and
    how many histories share each key."""
    ev = _StepEvaluator(mixture, true_index, {}, schemes)
    first, count = {}, {}
    for reversed_history in product(range(mixture.alphabet.size), repeat=depth):
        history = list(reversed_history[::-1])
        comp_logm = np.zeros((1, len(ev.components)))
        states = [c.initial_state(1) for c in ev.components]
        scheme_states = [s.initial_state(1) for s in ev.schemes]
        for t, x in enumerate(history):
            true_cond, log_cond = ev.conditionals(states, t)
            if true_cond[0, x] <= 0.0:
                break
            comp_logm = comp_logm + log_cond[:, :, x].T
            states = [c.extend_state(st, np.array([[x]]))[0]
                      for c, st in zip(ev.components, states)]
            scheme_states = [s.extend_state(st, np.array([[x]]))[0]
                             for s, st in zip(ev.schemes, scheme_states)]
        else:
            key = np.concatenate(_Rows(comp_logm, tuple(states + scheme_states)).key_parts(),
                                 axis=1).tobytes()
            first.setdefault(key, history)
            count[key] = count.get(key, 0) + 1
    return list(first.values()), [count[key] for key in first]


class TestParentLinks:
    H = 8
    TERNARY_LOSS = MatrixLoss([[0.0, 0.8, 0.4], [0.9, 0.1, 0.5], [0.3, 0.7, 0.05]])

    @staticmethod
    def _case(case):
        """(components, loss, alphabet size, horizon) of one input."""
        if case == "ternary":
            # order-1 chains over three symbols: the zero transitions 0 -> 1
            # (the middle symbol) and 2 -> 0 prune the tree; dyadic rows merge
            return [
                MarkovMeasure([[0.5, 0.0, 0.5], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
                              initial=[0.25, 0.5, 0.25]),
                MarkovMeasure([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5], [0.5, 0.25, 0.25]],
                              initial=[0.5, 0.25, 0.25]),
            ], TestParentLinks.TERNARY_LOSS, 3, 6
        rng = np.random.default_rng(9)
        table = {h: [1.0 - p, p] for t in range(TestParentLinks.H)
                 for h in product((0, 1), repeat=t) for p in [float(rng.uniform(0.05, 0.95))]}
        comps = [
            # zero transitions prune the tree; dyadic rows merge many paths
            MarkovMeasure([[[0.75, 0.25], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]],
                          initial=[0.5, 0.5], order=2),
            TimeVaryingBinaryMeasure(lambda t: 0.25 if t % 2 else 0.5),
        ]
        if case == "with-table":
            comps.append(ExplicitTableMeasure(table, 2))
        return comps, TestStateMerging.LOSS, 2, TestParentLinks.H

    @pytest.mark.parametrize("case", ["no-table", "with-table", "ternary"])
    def test_rebuilt_histories_are_the_first_seen_ones(self, case):
        comps, loss, n_sym, horizon = self._case(case)
        mix = MixtureModel(comps, np.full(len(comps), 1.0 / len(comps)))
        schemes = [MajorityVoteScheme(n_sym)]
        levels = []
        checks = InstantChecks(["m"])

        def observer(*level):
            _keep_levels(levels)(*level)
            checks(*level)

        rep = exact_evaluate(mix, 0, {"m": loss}, horizon, schemes=schemes, observer=observer)
        assert [r.step for r in levels] == list(range(1, horizon + 1))
        assert levels[0].histories == [[]]
        merged = False
        for r in levels:
            want, counts = _first_seen_histories(mix, 0, schemes, r.step - 1)
            assert r.histories == want, r.step
            assert r.multiplicity.tolist() == counts, r.step
            merged |= max(counts) > 1
        assert merged != (case == "with-table")   # the table keys on the whole history
        # every reported location is a rebuilt history of its level, and
        # the empty history renders as "(empty)"
        locations = {f"t={r.step} history={''.join(map(str, h)) or '(empty)'}"
                     for r in levels for h in r.histories}
        results = check_instant_bounds(checks, rep, "m")[:-1] + check_instant_distance_bounds(checks)
        assert {r.location for r in results} <= locations
        assert "t=1 history=(empty)" in locations


def _brute_force_totals(mixture, true_index, loss, horizon):
    """Per-history float loop over every binary string: marginals as
    products of ``oracles.reference_conditional`` along the path, the mixture
    conditional as a ratio of linear-domain mixture marginals."""
    comps, w = mixture.components, mixture.weights
    truth = comps[true_index]

    def marg(m, h):
        p = 1.0
        for i, x in enumerate(h):
            p *= float(reference_conditional(m, h[:i])[x])
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
            y = reference_conditional(truth, h)
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


class _HistoryStateCoin(SequenceMeasure):
    """A coin that keeps the base-class state (the whole history) and reads
    its rows from the reference conditional, one history at a time."""

    def __init__(self, theta):
        self.coin = BernoulliMeasure(theta)
        super().__init__(self.coin.alphabet)

    def _step_matrix(self, states, t):
        return np.array([reference_conditional(self.coin, h) for h in states.tolist()])


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

        plain, merged = run(_HistoryStateCoin(0.2)), run(BernoulliMeasure(0.2))
        assert plain.node_visits == 2**9 - 1
        assert merged.node_visits < plain.node_visits
        for key in plain.cumulative:
            np.testing.assert_allclose(merged.cumulative[key], plain.cumulative[key],
                                       rtol=0, atol=1e-12)

    def test_float_state_key_is_rejected(self):
        class FloatStateCoin(_HistoryStateCoin):
            def extend_state(self, states, symbols):
                return super().extend_state(states, symbols).astype(float)

        mix = MixtureModel([FloatStateCoin(0.2), BernoulliMeasure(0.5)], [0.5, 0.5])
        with pytest.raises(TypeError):
            exact_evaluate(mix, 0, [ErrorLoss()], 3)



def _unique_merge(keys, mult):
    """The np.unique(axis=0) merge the engine used before its stable lexsort."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    merged = np.bincount(rank[inverse.reshape(-1)], weights=mult, minlength=order.size)
    return first[order], merged


def _merge_cases():
    rng = np.random.default_rng(11)
    dup = rng.integers(-3, 3, size=(600, 3))
    dup[::7, 1] = np.iinfo(np.int64).min        # signed extremes sort by sign
    dup[::11, 2] = np.iinfo(np.int64).max
    zeros = np.array([[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5], [-0.0, 1.5]]).view(np.int64)
    distinct = rng.permutation(40)[:, None] - 20
    return {
        # the witness against a linear row hash: rows (x, INT64_MIN, INT64_MAX)
        # and (x, 0, -1) differ by 2**63 in two columns, so ``keys @ odd``
        # gives them one value for every choice of odd multipliers and salt
        "heavy-duplication": (dup, rng.uniform(0.0, 1e6, dup.shape[0])),
        "signed-zero-bits": (zeros, np.array([1.0, 2.0, 4.0, 8.0])),
        "one-column": (rng.integers(-4, 4, size=(200, 1)), np.ones(200)),
        "one-row": (np.array([[5, -7, 0]]), np.array([3.0])),
        "all-equal": (np.full((50, 2), -9), rng.uniform(0.0, 1.0, 50)),
        "all-distinct": (distinct, rng.uniform(0.0, 1.0, distinct.shape[0])),
    }


class TestMergeEqualRows:
    @pytest.mark.parametrize("case", list(_merge_cases()))
    def test_matches_the_unique_merge_exactly(self, case):
        keys, mult = _merge_cases()[case]
        first, merged = _merge_equal_rows([keys], mult)
        want_first, want_merged = _unique_merge(keys, mult)
        assert np.array_equal(first, want_first)
        assert np.array_equal(merged, want_merged)
        assert merged.dtype == np.float64

    def test_signed_zeros_stay_apart(self):
        keys, mult = _merge_cases()["signed-zero-bits"]
        first, merged = _merge_equal_rows([keys], mult)
        assert first.tolist() == [0, 1]
        assert merged.tolist() == [5.0, 10.0]

    def test_a_failed_check_rehashes_with_the_next_salt(self, monkeypatch):
        keys, mult = _merge_cases()["heavy-duplication"]
        row_hash, attempts = engine._row_hash, []

        def colliding_first_salt(keys, attempt):
            # the first salt puts every row in one group; the exact check fails
            attempts.append(attempt)
            h = row_hash(keys, attempt)
            return np.zeros_like(h) if attempt == 0 else h

        monkeypatch.setattr(engine, "_row_hash", colliding_first_salt)
        first, merged = _merge_equal_rows([keys], mult)
        want_first, want_merged = _unique_merge(keys, mult)
        assert attempts == [0, 1]
        assert np.array_equal(first, want_first)
        assert merged.tobytes() == want_merged.tobytes()

    def test_collisions_under_every_salt_raise(self, monkeypatch):
        keys, mult = _merge_cases()["heavy-duplication"]
        monkeypatch.setattr(engine, "_row_hash",
                            lambda keys, attempt: np.zeros(keys[0].shape[0], dtype=np.uint64))
        with pytest.raises(RuntimeError, match="collided"):
            _merge_equal_rows([keys], mult)

    def test_a_zero_width_part_between_two_holds_nothing(self):
        """The key is the parts side by side; a part of width 0 adds nothing."""
        keys, mult = _merge_cases()["heavy-duplication"]
        parts = [keys[:, :1], np.empty((keys.shape[0], 0), dtype=np.int64), keys[:, 1:]]
        first, merged = _merge_equal_rows(parts, mult)
        want_first, want_merged = _unique_merge(keys, mult)
        assert np.array_equal(first, want_first)
        assert merged.tobytes() == want_merged.tobytes()

    def test_a_float_part_raises_type_error(self):
        keys, mult = _merge_cases()["one-column"]
        with pytest.raises(TypeError):
            _merge_equal_rows([keys, keys.astype(float)], mult)

    def test_matches_the_unique_merge_on_random_keys(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        # the extremes, and the bit patterns of +0.0 and -0.0 (-0.0 is INT64_MIN)
        special = np.array([lo, hi, lo + 1, hi - 1, 0, -1, 1,
                            *np.array([0.0, -0.0, 1.5, -1.5]).view(np.int64)])

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(1, 3000), st.integers(1, 8), st.integers(1, 3000),
                          st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
        def check(n, cols, distinct, special_frac, seed):
            rng = np.random.default_rng(seed)
            pool = rng.integers(lo, hi, size=(min(distinct, n), cols), endpoint=True)
            is_special = rng.random(pool.shape) < special_frac
            pool[is_special] = rng.choice(special, size=int(is_special.sum()))
            keys = pool[rng.integers(0, pool.shape[0], size=n)]      # forced duplicates
            mult = rng.uniform(0.0, 1e6, n)
            first, merged = _merge_equal_rows([keys], mult)
            want_first, want_merged = _unique_merge(keys, mult)
            assert np.array_equal(first, want_first)
            assert merged.dtype == np.float64
            assert merged.tobytes() == want_merged.tobytes()

        check()


def _per_predictor_step(ev, histories, t, comp_logm, scheme_states):
    """The step kernel as it was before fusion: history-major (M, K, N)
    log-conditionals reduced over axis 1, distance terms summed left to right
    in Python, and one ``bayes_actions`` and ``expected_losses`` call per
    predictor.  Returns (log_cond, mix_cond, {series: values})."""
    mats = [c._step_matrix(histories, t) for c in ev.components]
    y = mats[ev.true_index]
    with np.errstate(divide="ignore"):
        log_cond = np.stack([np.log(m) for m in mats], axis=1)
    prior_terms = ev.mixture.log_weights[None, :] + comp_logm
    log_mix_h = log_sum_exp_over_axis(prior_terms, axis=1)
    log_mix_hx = log_sum_exp_over_axis(prior_terms[:, :, None] + log_cond, axis=1)
    z = np.exp(log_mix_hx - log_mix_h[:, None])

    values = {k: np.array(left_to_right_row_sums(v)) for k, v in distance_terms(y, z).items()}
    for label, loss in ev.losses.items():
        values[f"mixture_loss[{label}]"] = loss.expected_losses(y, loss.bayes_actions(z))
        values[f"informed_loss[{label}]"] = loss.expected_losses(y, loss.bayes_actions(y))
        for scheme, states in zip(ev.schemes, scheme_states):
            values[f"scheme_loss[{scheme.label}|{label}]"] = loss.expected_losses(
                y, scheme.actions(states, loss))
    return log_cond, z, values


def _hex(values):
    return [float(v).hex() for v in values]


def _random_table(rng, n_sym, depth, zero_at=None):
    """An explicit conditional table over every history shorter than depth."""
    table = {}
    for t in range(depth):
        for h in product(range(n_sym), repeat=t):
            vec = rng.uniform(0.05, 1.0, n_sym)
            table[h] = vec / vec.sum()
    if zero_at is not None:
        table[zero_at] = np.eye(n_sym)[0]
    return table


def _kernel_case(name):
    """(mixture, true index, {label: loss}, schemes, depth) of one kernel case."""
    rng = np.random.default_rng(17)
    if name == "binary":
        comps = [MarkovMeasure([[[1.0, 0.0], [0.3, 0.7]], [[0.55, 0.45], [0.0, 1.0]]],
                               initial=[0.4, 0.6], order=2),
                 BernoulliMeasure(0.3),
                 TimeVaryingBinaryMeasure.from_power_law(0.5, 2.0),
                 ExplicitTableMeasure(_random_table(rng, 2, 6, zero_at=(1, 0)), 2),
                 DeterministicMeasure.from_pattern([0, 1, 1])]
        mix = MixtureModel(comps, [0.3, 0.2, 0.2, 0.2, 0.1])
        losses = {"error": ErrorLoss(), "absolute": AbsoluteLoss(), "quadratic": QuadraticLoss(),
                  "hellinger": HellingerLoss(), "log": LogLoss(), "alpha-0.5": AlphaLoss(0.5),
                  "alpha-1": AlphaLoss(1.0), "alpha-1.5": AlphaLoss(1.5),
                  "alpha-3": AlphaLoss(3.0),
                  "wide": MatrixLoss([[0.0, 1.0, 0.4], [1.0, 0.0, 0.45]])}
        return mix, 0, losses, [ConstantScheme(0), MajorityVoteScheme(2)], 6
    if name == "ternary":
        comps = [MarkovMeasure(rng.dirichlet(np.ones(3), size=(3, 3)), [0.2, 0.5, 0.3], order=2),
                 MarkovMeasure([[0.6, 0.3, 0.1], [0.0, 0.5, 0.5], [0.1, 0.2, 0.7]],
                               initial=[1 / 3] * 3),
                 ExplicitTableMeasure(_random_table(rng, 3, 4, zero_at=(2,)), 3)]
        mix = MixtureModel(comps, [0.5, 0.3, 0.2])
        losses = {"rescaled": MatrixLoss([[0.0, 2.0, 1.0], [1.5, -1.0, 0.5], [0.5, 0.25, 0.0]]),
                  "wide": MatrixLoss([[0.0, 1.0, 0.5, 0.3], [1.0, 0.0, 0.5, 0.9],
                                      [0.5, 1.0, 0.0, 0.2]])}
        return mix, 0, losses, [ConstantScheme(1), MajorityVoteScheme(3)], 4
    if name == "twelve-coins":
        thetas = np.linspace(0.04, 0.96, 12)
        mix = MixtureModel([BernoulliMeasure(float(p)) for p in thetas], np.full(12, 1 / 12))
        losses = {"error": ErrorLoss(), "quadratic": QuadraticLoss(), "log": LogLoss()}
        return mix, 5, losses, [MajorityVoteScheme(2)], 6
    # nine symbols: a pairwise row sum differs from left-to-right adds here
    comps = [MarkovMeasure(rng.dirichlet(np.ones(9), size=9), rng.dirichlet(np.ones(9))),
             MarkovMeasure(np.full((9, 9), 1 / 9), np.full(9, 1 / 9))]
    mix = MixtureModel(comps, [0.6, 0.4])
    losses = {"square": MatrixLoss(rng.uniform(0.0, 1.0, (9, 9)))}
    return mix, 0, losses, [ConstantScheme(4), MajorityVoteScheme(9)], 3


def _kernel_levels(ev, n_sym, depth):
    """Every level of the unmerged tree of positive-probability histories:
    yields (histories, t, comp_logm, scheme_states, reference step)."""
    histories = np.zeros((1, 0), dtype=np.int64)
    comp_logm = np.zeros((1, len(ev.components)))
    states = [s.initial_state(1) for s in ev.schemes]
    for t in range(depth):
        ref = _per_predictor_step(ev, histories, t, comp_logm, states)
        yield histories, t, comp_logm, states, ref
        log_cond = ref[0]
        sym = np.repeat(np.arange(n_sym), histories.shape[0])
        rows = np.tile(np.arange(histories.shape[0]), n_sym)
        comp_logm = comp_logm[rows] + log_cond[rows, :, sym]
        live = np.isfinite(comp_logm[:, ev.true_index])
        histories = np.hstack([histories[rows], sym[:, None]])[live]
        states = [s.extend_state(st[rows], sym[None])[0][live]
                  for s, st in zip(ev.schemes, states)]
        comp_logm = comp_logm[live]


class TestFusedStepKernel:
    """``_StepEvaluator.conditionals`` and ``evaluate`` give the bits of the
    per-predictor kernel."""

    CASES = ("binary", "ternary", "twelve-coins", "nine-symbol")

    @pytest.mark.parametrize("case", CASES)
    def test_step_matches_the_per_predictor_loop_bit_for_bit(self, case):
        mix, true_index, losses, schemes, depth = _kernel_case(case)
        ev = _StepEvaluator(mix, true_index, losses, schemes)
        widths = []
        for histories, t, comp_logm, states, ref in _kernel_levels(ev, mix.alphabet.size, depth):
            ref_log_cond, ref_mix, ref_values = ref
            # every shipped measure reads its state from a whole history too
            true_cond, log_cond = ev.conditionals([histories] * len(mix.components), t)
            values = ev.evaluate(true_cond, log_cond, comp_logm, states)
            mix_cond = ev.mixture.conditionals(log_cond, comp_logm)
            assert log_cond.shape == (len(mix.components),) + true_cond.shape
            assert np.array_equal(log_cond.transpose(1, 0, 2).view(np.int64),
                                  ref_log_cond.view(np.int64))
            assert np.array_equal(mix_cond.view(np.int64), ref_mix.view(np.int64))
            assert values.shape == (len(ev.keys), histories.shape[0])
            assert list(ref_values) == ev.keys
            for key, row in zip(ev.keys, values):
                assert _hex(row) == _hex(ref_values[key]), (t, key)
            widths.append(histories.shape[0])
        assert widths[0] == 1 and max(widths) > 8

    def test_cases_reach_infinite_and_zero_mass_log_losses(self):
        mix, true_index, losses, schemes, depth = _kernel_case("binary")
        ev = _StepEvaluator(mix, true_index, losses, schemes)
        seen = {"inf": False, "zero-mass": False}
        for histories, t, comp_logm, states, ref in _kernel_levels(ev, 2, depth):
            true_cond = mix.components[true_index]._step_matrix(histories, t)
            seen["zero-mass"] |= bool((true_cond == 0.0).any())
            seen["inf"] |= bool(np.isposinf(ref[2]["scheme_loss[constant-0|log]"]).any())
        assert seen == {"inf": True, "zero-mass": True}

    @staticmethod
    def _two_lse_conditionals(mixture, log_cond, comp_logm):
        """``MixtureModel.conditionals`` before its one log-sum-exp: log xi(h)
        and log xi(hx) reduced apart, by the masked log-sum-exp of that
        form, and exp written in the layout of the (M, N) difference."""
        def lse(arr):
            shift = arr.max(axis=0)
            empty = np.isneginf(shift)
            shift[empty] = 0.0
            with np.errstate(invalid="ignore", divide="ignore"):
                total = np.exp(arr[0] - shift)
                for slab in arr[1:]:
                    total = total + np.exp(slab - shift)
                total = np.log(total) + shift
            total[empty] = -np.inf
            return total

        prior_terms = np.add(mixture.log_weights[:, None], comp_logm.T, order="C")
        log_mix_h = lse(prior_terms)
        log_mix_hx = lse(prior_terms[:, :, None] + log_cond)
        with np.errstate(invalid="ignore"):
            cond = np.exp(log_mix_hx - log_mix_h[:, None])
        cond[np.isneginf(log_mix_h)] = 1.0 / mixture.alphabet.size
        return cond

    @pytest.mark.parametrize("m", [1, 4096])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 8, 9])
    def test_one_log_sum_exp_gives_the_two_reduction_bits(self, k, n, m):
        rng = np.random.default_rng(100 * k + 10 * n + m)
        uniform = MarkovMeasure(np.full((n, n), 1.0 / n), np.full(n, 1.0 / n))
        mixture = MixtureModel([uniform] * k, rng.dirichlet(np.ones(k)))
        with np.errstate(divide="ignore"):
            log_cond = np.log(rng.dirichlet(np.ones(n), size=(k, m)))
            comp_logm = np.log(rng.random((m, k))) * rng.integers(1, 60, size=(m, 1))
        # zero conditionals, components that rule a history out, and
        # histories every component rules out (the mixture's too)
        log_cond[rng.random(log_cond.shape) < 0.2] = -np.inf
        comp_logm[rng.random(comp_logm.shape) < 0.3] = -np.inf
        ruled_out = rng.random(m) < 0.1
        ruled_out[0] = m > 1
        comp_logm[ruled_out] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mixture.conditionals(log_cond, comp_logm)
        want = self._two_lse_conditionals(mixture, log_cond, comp_logm)
        assert got.shape == (m, n) and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert (got[ruled_out] == 1.0 / n).all()


class TestAlternativeSchemes:
    def test_informed_predictor_is_never_beaten(self):
        schemes = [ConstantScheme(0), MajorityVoteScheme(2)]
        rep = exact_evaluate(three_coin_mixture(), 0,
                             [ErrorLoss(), QuadraticLoss()], 8, schemes=schemes)
        for lab in ("error", "quadratic"):
            l_inf = rep.total(f"informed_loss[{lab}]")
            for scheme in ("constant-0", "majority-vote"):
                assert l_inf <= rep.total(f"scheme_loss[{scheme}|{lab}]") + 1e-12

    def test_schemes_play_only_what_the_loss_can_play(self):
        narrow = MatrixLoss([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        states = MajorityVoteScheme(3).initial_state(4)
        # three symbols to vote for, two action columns
        with pytest.raises(ValueError, match="not an action index"):
            MajorityVoteScheme(3).actions(states, narrow)
        assert ConstantScheme(1.0).actions(states, narrow).dtype == np.int64
        assert ConstantScheme(1).actions(states, ErrorLoss()).dtype == np.float64
        with pytest.raises(ValueError, match="not an action index"):
            ConstantScheme(0.5).actions(states, narrow)

    def test_constant_scheme_loss_is_expected_constant(self):
        rep = exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 5,
                             schemes=[ConstantScheme(0)])
        # constant 0 under the error loss loses exactly mu1 = 0.2 per step
        np.testing.assert_allclose(rep.per_step["scheme_loss[constant-0|error]"], 0.2,
                                   atol=1e-12)


class _HistoryMajority(PredictionScheme):
    """Majority vote that keeps the default state (the whole history) and
    counts the symbols of the history itself."""

    label = "history-majority"

    def __init__(self, alphabet_size):
        self.alphabet_size = alphabet_size

    def actions(self, states, loss):
        counts = np.stack([(states == s).sum(axis=1) for s in range(self.alphabet_size)], axis=1)
        return np.argmax(counts, axis=1).astype(loss.action_dtype)


class TestCarriedSchemeKeys:
    CASES = {
        "coins": (three_coin_mixture, THREE_COIN_LOSSES),
        "markov-3": (lambda: MixtureModel(
            [MarkovMeasure([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]], [0.2, 0.3, 0.5]),
             MarkovMeasure([[1 / 3] * 3] * 3, [1 / 3] * 3)], [0.4, 0.6]),
            [MatrixLoss([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 1.0, 0.0]])]),
    }

    @staticmethod
    def _assert_same_series(rep, fields):
        for lab in rep.loss_labels:
            carried = f"scheme_loss[majority-vote|{lab}]"
            history = f"scheme_loss[history-majority|{lab}]"
            for name in fields:
                got = getattr(rep, name)
                assert np.array_equal(got[carried], got[history]), (name, lab)

    @pytest.mark.parametrize("case", list(CASES))
    def test_default_history_key_matches_carried_counts_exactly(self, case):
        mixture, losses = self.CASES[case]
        n = mixture().alphabet.size
        schemes = [MajorityVoteScheme(n), _HistoryMajority(n)]
        ex = exact_evaluate(mixture(), 0, losses, 7, schemes=schemes)
        self._assert_same_series(ex, ("per_step", "cumulative"))
        mc = monte_carlo_evaluate(mixture(), 0, losses, 40, samples=200, seed=3, schemes=schemes)
        self._assert_same_series(mc, ("per_step", "cumulative", "se_per_step", "se_total"))

    def test_whole_history_key_merges_nothing(self):
        rep = exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 6,
                             schemes=[_HistoryMajority(2)])
        assert rep.node_visits == 2**7 - 1

    def test_float_scheme_key_is_rejected(self):
        class FloatStateScheme(_HistoryMajority):
            def initial_state(self, n):
                return np.zeros((n, 1))

        with pytest.raises(TypeError):
            exact_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 3,
                           schemes=[FloatStateScheme(2)])


def _standard_errors(vals):
    """The standard errors as numpy's ``std`` gives them: inf where a row holds
    a non-finite value."""
    with np.errstate(invalid="ignore"):
        se = vals.std(axis=-1, ddof=1) / math.sqrt(vals.shape[-1])
    se[~np.isfinite(se)] = math.inf
    return se


def _per_step_monte_carlo(mixture, true_index, losses, horizon, samples, seed, schemes):
    """The Monte Carlo loop before blocking: one ``evaluate`` call per step,
    whole histories from a (samples, horizon) buffer as every component's
    state, running sums added per step and the true path's log-probability
    summed on its own.  Returns (series names, {field: (series, horizon)},
    the (series,) standard errors of the totals, kl_direct, kl_direct_se)."""
    ev = _StepEvaluator(mixture, true_index, losses, schemes)
    rng = np.random.default_rng(seed)
    histories = np.empty((samples, horizon), dtype=np.int64)
    states = [s.initial_state(samples) for s in ev.schemes]
    comp_logm = np.zeros((samples, len(ev.components)))
    log_true_path = np.zeros(samples)
    running = np.zeros((len(ev.keys), samples))
    rows = np.arange(samples)
    out = {"per_step": [], "se_per_step": []}
    for t in range(horizon):
        true_cond, log_cond = ev.conditionals([histories[:, :t]] * len(ev.components), t)
        vals = ev.evaluate(true_cond, log_cond, comp_logm, states)
        out["per_step"].append(vals.mean(axis=1))
        out["se_per_step"].append(_standard_errors(vals))
        running += vals
        nxt = draw_symbols(true_cond, rng.random(samples))
        log_true_path = log_true_path + np.log(true_cond[rows, nxt])
        comp_logm = comp_logm + log_cond[:, rows, nxt].T
        histories[:, t] = nxt
        states = [s.extend_state(st, nxt[None])[0] for s, st in zip(ev.schemes, states)]
    ratios = log_true_path - log_sum_exp_over_axis(ev.mixture.log_weights[None, :] + comp_logm,
                                                   axis=1)
    return (ev.keys, {k: np.array(v).T for k, v in out.items()}, _standard_errors(running),
            float(ratios.mean()), float(_standard_errors(ratios[None, :])[0]))


def _blocked_case(name):
    """(mixture, true index, {label: loss}, schemes) of one blocking case."""
    losses = {"error": ErrorLoss(), "log": LogLoss(),
              "wide": MatrixLoss([[0.0, 1.0, 0.4], [1.0, 0.0, 0.45]])}
    schemes = [ConstantScheme(0), MajorityVoteScheme(2)]
    # the order-2 chain's state widens to two symbols by step 2
    chain = MarkovMeasure([[[0.9, 0.1], [0.0, 1.0]], [[0.35, 0.65], [0.6, 0.4]]],
                          initial=[0.5, 0.5], order=2)
    comps = [chain, BernoulliMeasure(0.3), TimeVaryingBinaryMeasure.from_power_law(0.5, 1.0),
             DeterministicMeasure.from_pattern([0, 1, 1])]
    if name.startswith("table"):
        table = _random_table(np.random.default_rng(23), 2, 7, zero_at=(0, 1))
        comps = [ExplicitTableMeasure(table, 2), *comps]
    if name == "history-key":
        schemes.append(_HistoryMajority(2))
    # "table-other": the chain is the truth, the whole-history table is not
    true_index = 1 if name == "table-other" else 0
    return MixtureModel(comps, np.full(len(comps), 1.0 / len(comps))), true_index, losses, schemes


class TestBlockedMonteCarlo:
    """Blocks of steps give the bits of the per-step loop."""

    # (case, samples, horizon, rows of each evaluate call): 40, 13 and 1
    # steps per block; whole-history states (the table, true or not, and
    # the scheme keys) widen every step, which holds every block to one step
    CASES = [("mixed", 100, 50, [4000, 1000]),
             ("mixed", 300, 50, [3900] * 3 + [3300]),
             ("mixed", 5000, 12, [5000] * 12),
             ("table", 100, 7, [100] * 7),
             ("table-other", 100, 7, [100] * 7),
             ("history-key", 300, 20, [300] * 20)]

    @pytest.mark.parametrize("case, samples, horizon, block_rows", CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_matches_the_per_step_loop_bit_for_bit(self, monkeypatch, case, samples, horizon,
                                                   block_rows):
        assert BLOCK_ROWS == 4096
        mix, true_index, losses, schemes = _blocked_case(case)
        seen = []
        evaluate = _StepEvaluator.evaluate

        def counting(ev, true_cond, *args):
            seen.append(true_cond.shape[0])
            return evaluate(ev, true_cond, *args)

        monkeypatch.setattr(_StepEvaluator, "evaluate", counting)
        mc = monte_carlo_evaluate(mix, true_index, losses, horizon, samples=samples, seed=8,
                                  schemes=schemes)
        assert seen == block_rows
        names, want, se_total, kl_direct, kl_direct_se = _per_step_monte_carlo(
            mix, true_index, losses, horizon, samples, 8, schemes)
        assert list(mc.per_step) == names
        for field, rows in want.items():
            for key, row in zip(names, rows):
                assert _hex(getattr(mc, field)[key]) == _hex(row), (field, key)
        assert [mc.total_se(key).hex() for key in names] == _hex(se_total)
        assert float(mc.kl_direct).hex() == kl_direct.hex()
        assert float(mc.kl_direct_se).hex() == kl_direct_se.hex()
        # the constant scheme's log loss is infinite on every path
        assert mc.total_se("scheme_loss[constant-0|log]") == math.inf

    def test_standard_errors_are_taken_once_per_block_and_per_total(self, monkeypatch):
        """One ``_means_and_standard_errors`` call per block (the per-step
        means and SEs), then one for every series' total and one for
        ``kl_direct`` and its SE."""
        calls = []

        def counting(vals):
            calls.append(vals.shape)
            return _means_and_standard_errors(vals)

        monkeypatch.setattr(engine, "_means_and_standard_errors", counting)
        mix, true_index, losses, schemes = _blocked_case("mixed")
        mc = monte_carlo_evaluate(mix, true_index, losses, 50, samples=300, seed=8,
                                  schemes=schemes)
        series = len(mc.per_step)
        assert calls == [(series, 13, 300)] * 3 + [(series, 11, 300), (series, 300), (1, 300)]

    def test_bernoulli_paths_carry_no_history(self, monkeypatch):
        """Bernoulli components carry no state: no array grows with the
        horizon.  The true coin takes one width-0 call per step, on the
        paths, to draw; then every coin one per block, on the block's rows."""
        calls = []
        step_matrix = BernoulliMeasure._step_matrix

        def recording(measure, states, t):
            calls.append((measure.theta, states.shape))
            return step_matrix(measure, states, t)

        monkeypatch.setattr(BernoulliMeasure, "_step_matrix", recording)
        # 100 paths, 40 steps a block: horizon 60 is two blocks
        monte_carlo_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 60, samples=100, seed=1)
        truth = [(0.2, (100, 0))] * 40
        block = [(0.2, (4000, 0)), (0.5, (4000, 0)), (0.8, (4000, 0))]
        assert calls == (truth + block + [(0.2, (100, 0))] * 20
                         + [(0.2, (2000, 0)), (0.5, (2000, 0)), (0.8, (2000, 0))])


def _carrier_families():
    """{family: (carrier, alphabet size)}: every state-carrier family."""
    rng = np.random.default_rng(29)
    chain_2 = MarkovMeasure(rng.dirichlet(np.ones(2), size=(2, 2)), [0.35, 0.65], order=2)
    inner = [BernoulliMeasure(0.3), TimeVaryingBinaryMeasure.from_power_law(0.5, 1.0),
             MarkovMeasure(rng.dirichlet(np.ones(2), size=(2, 2)), [0.6, 0.4], order=2)]
    return {
        "bernoulli": (BernoulliMeasure(0.3), 2),
        "markov-1": (MarkovMeasure(rng.dirichlet(np.ones(3), size=3), [0.2, 0.5, 0.3]), 3),
        "markov-2": (chain_2, 2),
        "time-varying": (TimeVaryingBinaryMeasure.from_power_law(0.5, 1.0), 2),
        "deterministic": (DeterministicMeasure.from_pattern([0, 1, 1]), 2),
        "table": (ExplicitTableMeasure(_random_table(rng, 2, 7), 2), 2),
        "nested-mixture": (MixtureModel(inner, [0.2, 0.5, 0.3]), 2),
        "majority-vote": (MajorityVoteScheme(3), 3),
        "constant": (ConstantScheme(1), 2),
        "whole-history": (_HistoryStateCoin(0.3), 2),
    }


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestBlockForm:
    """One block call gives the bits of L one-step calls: ``extend_state``
    over a block of symbols, ``_step_matrix`` over the block's rows with
    one step per row, and a measure's ``walk_block``: its states,
    conditionals, log stack and log-marginals.  A whole-history state widens
    every step, so its block is one step."""

    HISTORIES, STEPS = 6, 5
    WIDENING = ("table", "whole-history")

    # a block from step 0, 1 or 3: the order-2 chain's rows fall on both
    # sides of t < order in the first two
    @pytest.mark.parametrize("start_step", [0, 1, 3])
    @pytest.mark.parametrize("family", list(_carrier_families()))
    def test_one_block_call_is_l_one_step_calls(self, family, start_step):
        carrier, n_sym = _carrier_families()[family]
        assert _widens(carrier) == (family in self.WIDENING)
        steps = 1 if family in self.WIDENING else self.STEPS
        symbols = np.random.default_rng(start_step).integers(
            0, n_sym, size=(start_step + steps, self.HISTORIES))
        state = carrier.initial_state(self.HISTORIES)
        for row in symbols[:start_step]:
            state = carrier.extend_state(state, row[None])[0]
        start, block = state, symbols[start_step:]
        after = carrier.extend_state(start, block)
        is_measure = isinstance(carrier, SequenceMeasure)
        mats, stepped = [], []
        logm = [np.random.default_rng(7).normal(size=(self.HISTORIES, 1))]
        for j, row in enumerate(block):
            if is_measure:
                mats.append(carrier._step_matrix(state, start_step + j))
                log_p = log_or_neg_inf(mats[-1])[np.arange(self.HISTORIES), row]
                logm.append(logm[-1] + log_p[:, None])
            state = carrier.extend_state(state, row[None])[0]
            stepped.append(state)
            assert _same_bits(after[j], state), j
        if is_measure:
            step_of_row = np.repeat(np.arange(start_step, start_step + steps), self.HISTORIES)
            got = carrier._step_matrix(states_before(start, after), step_of_row)
            assert _same_bits(got, np.concatenate(mats))
            walked, (got,), log_cond, through = walk_block([carrier], logm[0], [start], block,
                                                           start_step)
            assert _same_bits(walked[0], np.stack(stepped))
            assert _same_bits(got, np.concatenate(mats))
            assert _same_bits(log_cond, np.concatenate([log_or_neg_inf(m) for m in mats])[None])
            assert _same_bits(through, np.stack(logm))
        if family in self.WIDENING:
            with pytest.raises(ValueError, match="one symbol at a time"):
                carrier.extend_state(start, np.zeros((2, self.HISTORIES), dtype=np.int64))


class TestDrawStream:
    """A Monte Carlo block draws its uniforms at once: ``rng.random((L,
    S))`` gives the doubles of L successive ``rng.random(S)`` calls, and
    leaves the generator where they leave it."""

    @pytest.mark.parametrize("steps, samples", [(1, 100), (8, 500), (40, 100), (3, 5001)])
    def test_a_block_of_uniforms_is_the_per_step_stream(self, steps, samples):
        by_block, by_step = np.random.default_rng(11), np.random.default_rng(11)
        block = by_block.random((steps, samples))
        assert block.tobytes() == np.stack([by_step.random(samples)
                                            for _ in range(steps)]).tobytes()
        assert by_block.random(7).tobytes() == by_step.random(7).tobytes()


def _per_level_exact(mixture, true_index, losses, horizon, schemes, node_budget, observer):
    """The exact walk before blocking: one ``evaluate`` call per tree level,
    each series dotted with the level's weights, and the observer called
    before the level is extended.  Returns (series names, (series, horizon)
    per-step values, kl_direct, node visits)."""
    ev = _StepEvaluator(mixture, true_index, losses, schemes)
    per_step = np.zeros((len(ev.keys), horizon))
    rows, links, mult, visits = ev.start(1), [], np.ones(1), 0
    for t in range(horizon):
        visits += mult.shape[0]
        if visits > node_budget:
            raise BudgetExceededError(visits, node_budget)
        true_cond, log_cond = ev.conditionals(rows.states, t)
        values = ev.evaluate(true_cond, log_cond, rows.comp_logm, ev.scheme_states(rows))
        weights = mult * np.exp(rows.comp_logm[:, true_index])
        for row, series in enumerate(values):
            per_step[row, t] = weights @ series
        observer(t + 1, weights, mult, dict(zip(ev.keys, values)),
                 partial(engine._first_history, links, t))
        symbols, parents = np.nonzero(true_cond.T > 0.0)
        rows = _Rows(rows.comp_logm[parents] + log_cond[:, parents, symbols].T,
                     tuple([c.extend_state(st[parents], symbols[None])[0]
                            for c, st in zip(ev.carriers, rows.states)]))
        keep, mult = _merge_equal_rows([np.concatenate(rows.key_parts(), axis=1)], mult[parents])
        rows = rows.take(keep)
        links.append((parents[keep], symbols[keep]))
    visits += mult.shape[0]
    if visits > node_budget:
        raise BudgetExceededError(visits, node_budget)
    kl_direct = float((mult * np.exp(rows.comp_logm[:, true_index])) @ ev.log_ratio(rows))
    return ev.keys, per_step, kl_direct, visits


def _hex_levels(levels):
    """A test-side observer: appends the bits of every level it sees to
    ``levels``, with each node's rebuilt history."""
    def observer(step, weights, multiplicity, values, history):
        levels.append((step, _hex(weights), _hex(multiplicity),
                       {key: _hex(row) for key, row in values.items()},
                       [history(i) for i in range(weights.size)]))
    return observer


def _blocked_exact_case(name):
    """(mixture, true index, {label: loss}, schemes, horizon) of one blocked
    exact case."""
    if name == "matrix-level-0":
        # three symbols, four and five actions: the one-node level 0 shares a
        # multi-row product; its row alone rounds differently on OpenBLAS
        rng = np.random.default_rng(32)
        comps = [MarkovMeasure(rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.ones(3))),
                 MarkovMeasure(rng.dirichlet(np.ones(3), size=(3, 3)), rng.dirichlet(np.ones(3)),
                               order=2)]
        losses = {"wide": MatrixLoss(rng.uniform(0.0, 1.0, (3, 4))),
                  "wider": MatrixLoss(rng.uniform(0.0, 1.0, (3, 5)))}
        return (MixtureModel(comps, [0.45, 0.55]), 0, losses,
                [ConstantScheme(1), MajorityVoteScheme(3)], 5)
    # the table holds histories shorter than 7
    return (*_blocked_case(name), 7 if name == "table" else 9)


class TestBlockedExact:
    """Blocks of tree levels give the bits of the per-level walk."""

    # (case, BLOCK_ROWS, rows of each evaluate call).  The mixed tree's levels
    # hold 1, 2, 4, 7, 12, 21, 37, 65 and 114 nodes: with 16 rows a block,
    # levels 0-3 share one, level 4 closes alone because level 5 does not
    # fit, and levels 5-8, each wider than a block, stand alone.  The table's
    # whole-history state does not close blocks; a whole-history scheme state
    # closes every block after one level.
    CASES = [("mixed", 16, [14, 12, 21, 37, 65, 114]),
             ("mixed", 4096, [263]),
             ("table", 4096, [112]),
             ("history-key", 4096, [1, 2, 4, 7, 12, 21, 37, 65, 114]),
             ("matrix-level-0", 4096, [121])]

    @pytest.mark.parametrize("case, block_rows, evaluated", CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_matches_the_per_level_walk_bit_for_bit(self, monkeypatch, case, block_rows,
                                                    evaluated):
        mix, true_index, losses, schemes, horizon = _blocked_exact_case(case)
        monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
        seen = []
        evaluate = _StepEvaluator.evaluate

        def counting(ev, true_cond, *args):
            seen.append(true_cond.shape[0])
            return evaluate(ev, true_cond, *args)

        monkeypatch.setattr(_StepEvaluator, "evaluate", counting)
        got_levels, want_levels = [], []
        rep = exact_evaluate(mix, true_index, losses, horizon, schemes=schemes,
                             observer=_hex_levels(got_levels))
        blocks, seen[:] = list(seen), []
        names, per_step, kl_direct, visits = _per_level_exact(
            mix, true_index, losses, horizon, schemes, engine.DEFAULT_NODE_BUDGET,
            _hex_levels(want_levels))
        assert blocks == evaluated
        assert list(rep.per_step) == names
        for key, row in zip(names, per_step):
            assert _hex(rep.per_step[key]) == _hex(row), key
        assert rep.kl_direct.hex() == kl_direct.hex()
        assert rep.node_visits == visits
        # every level once, in level order, with the bits of the per-level walk
        assert len(got_levels) == len(want_levels) == horizon
        for got, want in zip(got_levels, want_levels):
            assert got == want, want[0]

    def test_an_observer_may_keep_every_level_value_array(self, monkeypatch):
        """Each block is evaluated into an array of its own: an observer that
        keeps the views it is handed finds them unchanged after the walk."""
        mix, true_index, losses, schemes, horizon = _blocked_exact_case("mixed")
        monkeypatch.setattr(engine, "BLOCK_ROWS", 16)          # six blocks
        kept = []

        def keep(step, weights, multiplicity, values, history):
            kept.append((values, {key: row.copy() for key, row in values.items()}))

        exact_evaluate(mix, true_index, losses, horizon, schemes=schemes, observer=keep)
        assert len(kept) == horizon
        assert len({id(next(iter(values.values())).base) for values, _ in kept}) == 6
        for values, copies in kept:
            for key, row in values.items():
                assert _same_bits(row, copies[key]), key

    # visits reach 1, 3, 7, 14, 26, 47, 84, 149 and 263 over the levels and
    # 463 with the leaves: budgets 2 and 5 trip inside the first block, 40 at
    # a block of its own, 462 at the leaves
    @pytest.mark.parametrize("budget", [2, 5, 40, 462])
    def test_budget_trips_at_the_same_visit_count(self, monkeypatch, budget):
        mix, true_index, losses, schemes, horizon = _blocked_exact_case("mixed")
        monkeypatch.setattr(engine, "BLOCK_ROWS", 16)
        with pytest.raises(BudgetExceededError) as want:
            _per_level_exact(mix, true_index, losses, horizon, schemes, budget,
                             lambda *level: None)
        with pytest.raises(BudgetExceededError) as got:
            exact_evaluate(mix, true_index, losses, horizon, schemes=schemes,
                           node_budget=budget)
        assert str(got.value) == str(want.value)


class _Counting:
    """A carrier that records the symbols' shape of every ``extend_state``
    call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def extend_state(self, states, symbols):
        self.calls.append(symbols.shape)
        return super().extend_state(states, symbols)


class _CountingCoin(_Counting, BernoulliMeasure):
    pass


class _CountingConstant(_Counting, ConstantScheme):
    pass


class _CountingHistory(_Counting, _HistoryMajority):
    pass


def test_the_tree_never_extends_a_state_that_carries_nothing():
    """A carrier whose state starts at width 0 and does not widen is extended
    only by the ``_widens`` probe, one (1, 1) symbol block; a whole-history
    state also starts at width 0 but widens, and is extended at every level.
    Every series, total and ``kl_direct`` keeps the bits of the per-level walk,
    which extends every state."""
    coins = [_CountingCoin(p) for p in (0.2, 0.5, 0.8)]
    chain = MarkovMeasure([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
    mixture = MixtureModel([*coins, chain], [0.4, 0.3, 0.2, 0.1])
    constant, history = _CountingConstant(1), _CountingHistory(2)
    schemes = [constant, MajorityVoteScheme(2), history]
    losses = {"error": ErrorLoss(), "absolute": AbsoluteLoss(), "log": LogLoss()}
    horizon = 6
    rep = exact_evaluate(mixture, 0, losses, horizon, schemes=schemes)
    for carrier in (*coins, constant):
        assert carrier.calls == [(1, 1)], carrier
    assert history.calls == [(1, 1)] + [(1, 2**(t + 1)) for t in range(horizon)]
    names, per_step, kl_direct, visits = _per_level_exact(
        mixture, 0, losses, horizon, schemes, engine.DEFAULT_NODE_BUDGET, lambda *level: None)
    assert list(rep.per_step) == names
    for key, row in zip(names, per_step):
        assert _hex(rep.per_step[key]) == _hex(row), key
        assert _hex(rep.cumulative[key]) == _hex(np.cumsum(row)), key
    assert rep.kl_direct.hex() == kl_direct.hex()
    assert rep.node_visits == visits == 2**(horizon + 1) - 1


def _slices(blocks, block_rows):
    """The rows of each ``_evaluate_slice`` call for evaluate calls of
    ``blocks`` rows: ``block_rows`` at a time, then the remainder."""
    return [min(block_rows, rows - lo) for rows in blocks for lo in range(0, rows, block_rows)]


class TestSlicedEvaluate:
    """``evaluate`` works through its rows ``BLOCK_ROWS`` at a time; a block
    wider than that, down to a one-row remainder, gives the bits of one pass."""

    @staticmethod
    def _counting_slices(monkeypatch):
        seen = []
        kernel = _StepEvaluator._evaluate_slice

        def counting(ev, true_cond, *args):
            seen.append(true_cond.shape[0])
            return kernel(ev, true_cond, *args)

        monkeypatch.setattr(_StepEvaluator, "_evaluate_slice", counting)
        return seen

    # (case, evaluate calls at 16 rows a block).  The mixed tree's levels of
    # 65 and 114 nodes leave remainders of 1 and 2 rows; the matrix case's
    # levels hold 1, 3, 9, 27 and 81 nodes, and 81 leaves one row under its
    # 3x4 and 3x5 matrix losses, which round a lone row apart from a batch
    # unless it is multiplied as one
    CASES = [("mixed", [14, 12, 21, 37, 65, 114]), ("matrix-level-0", [13, 27, 81])]

    @pytest.mark.parametrize("case, blocks", CASES, ids=[c[0] for c in CASES])
    def test_exact_slices_give_the_per_level_bits(self, monkeypatch, case, blocks):
        mix, true_index, losses, schemes, horizon = _blocked_exact_case(case)
        want_levels = []
        names, per_step, kl_direct, visits = _per_level_exact(
            mix, true_index, losses, horizon, schemes, engine.DEFAULT_NODE_BUDGET,
            _hex_levels(want_levels))
        monkeypatch.setattr(engine, "BLOCK_ROWS", 16)
        seen = self._counting_slices(monkeypatch)
        got_levels = []
        rep = exact_evaluate(mix, true_index, losses, horizon, schemes=schemes,
                             observer=_hex_levels(got_levels))
        assert seen == _slices(blocks, 16)
        assert max(seen) <= 16 and seen.count(1) == 1
        assert list(rep.per_step) == names
        for key, row in zip(names, per_step):
            assert _hex(rep.per_step[key]) == _hex(row), key
        assert rep.kl_direct.hex() == kl_direct.hex()
        assert rep.node_visits == visits
        assert got_levels == want_levels

    def test_monte_carlo_slices_give_the_per_step_bits(self, monkeypatch):
        """129 paths, 64 rows a slice: every one-step block is evaluated as
        64, 64 and 1 rows."""
        mix, true_index, losses, schemes = _blocked_case("mixed")
        horizon, samples = 6, 129
        names, want, se_total, kl_direct, kl_direct_se = _per_step_monte_carlo(
            mix, true_index, losses, horizon, samples, 8, schemes)
        monkeypatch.setattr(engine, "BLOCK_ROWS", 64)
        seen = self._counting_slices(monkeypatch)
        mc = monte_carlo_evaluate(mix, true_index, losses, horizon, samples=samples, seed=8,
                                  schemes=schemes)
        assert seen == [64, 64, 1] * horizon
        assert list(mc.per_step) == names
        for field, rows in want.items():
            for key, row in zip(names, rows):
                assert _hex(getattr(mc, field)[key]) == _hex(row), (field, key)
        assert [mc.total_se(key).hex() for key in names] == _hex(se_total)
        assert float(mc.kl_direct).hex() == kl_direct.hex()
        assert float(mc.kl_direct_se).hex() == kl_direct_se.hex()


class TestSchemeAlphabet:
    """A scheme built for another alphabet fails before the walk starts."""

    CASE = TestCarriedSchemeKeys.CASES["markov-3"]          # three symbols
    MESSAGE = "alphabet of 2 symbols; the mixture's has 3"

    def test_exact_engine_names_both_alphabet_sizes(self):
        mixture, losses = self.CASE
        with pytest.raises(ValueError, match=self.MESSAGE):
            exact_evaluate(mixture(), 0, losses, 4, schemes=[MajorityVoteScheme()])

    def test_monte_carlo_names_both_alphabet_sizes(self):
        mixture, losses = self.CASE
        with pytest.raises(ValueError, match=self.MESSAGE):
            monte_carlo_evaluate(mixture(), 0, losses, 4, samples=100, seed=1,
                                 schemes=[MajorityVoteScheme()])


class _WalkWatch(BernoulliMeasure):
    """A coin that counts the step matrices the engines ask it for."""

    def __init__(self, theta):
        super().__init__(theta)
        self.steps = 0

    def _step_matrix(self, states, t):
        self.steps += 1
        return super()._step_matrix(states, t)


class TestUnplayableScheme:
    """A (scheme, loss) pair whose actions the loss cannot play fails before
    the walk starts, on the Python API path that no config checked."""

    LOSSES = {"error": ErrorLoss(), "matrix": MatrixLoss([[0.0, 1.0], [1.0, 0.0]])}

    @pytest.mark.parametrize("engine_name", ["exact", "monte-carlo"])
    def test_fails_before_any_step_matrix(self, engine_name):
        coin = _WalkWatch(0.3)
        mixture = MixtureModel([coin, BernoulliMeasure(0.7)], [0.5, 0.5])
        run = (partial(exact_evaluate, horizon=6) if engine_name == "exact"
               else partial(monte_carlo_evaluate, horizon=6, samples=100, seed=1))
        with pytest.raises(ValueError, match="not an action index"):
            run(mixture, 0, self.LOSSES, schemes=[ConstantScheme(0.5)])
        assert coin.steps == 0


class TestSchemeActionsOncePerBlock:
    def test_one_actions_call_per_block_whatever_the_losses(self):
        calls = []

        class Counted(MajorityVoteScheme):
            def actions(self, states, loss):
                calls.append(states.shape[0])
                return super().actions(states, loss)

        losses = [ErrorLoss(), AbsoluteLoss(), QuadraticLoss(), HellingerLoss()]
        # 100 paths, 40 steps a block: horizon 60 is two blocks
        monte_carlo_evaluate(three_coin_mixture(), 0, losses, 60, samples=100, seed=3,
                             schemes=[Counted()])
        # one playability check per loss on one row, then one call per block
        assert calls == [1] * len(losses) + [4000, 2000]


def _nested_and_flat():
    """One mixture nested in another, and the flat mixture with the same
    marginal.  The inner mixture rules out every history that starts with
    1, which the true coin allows."""
    inner = MixtureModel([DeterministicMeasure.from_pattern([0]),
                          DeterministicMeasure.from_pattern([0, 1])], [0.5, 0.5])
    nested = MixtureModel([BernoulliMeasure(0.5), inner], [0.5, 0.5])
    flat = MixtureModel([BernoulliMeasure(0.5), DeterministicMeasure.from_pattern([0]),
                         DeterministicMeasure.from_pattern([0, 1])], [0.5, 0.25, 0.25])
    return nested, flat


def _nested_and_flat_with_state():
    """A nested mixture whose inner components carry a state that widens
    (an order-2 chain) and a law that depends on t, and its flat form."""
    def inner_components():
        return [TimeVaryingBinaryMeasure.from_power_law(0.5, 1.0),
                MarkovMeasure([[[0.9, 0.1], [0.3, 0.7]], [[0.45, 0.55], [0.2, 0.8]]],
                              initial=[0.35, 0.65], order=2)]
    inner = MixtureModel(inner_components(), [0.4, 0.6])
    nested = MixtureModel([BernoulliMeasure(0.3), inner], [0.5, 0.5])
    flat = MixtureModel([BernoulliMeasure(0.3), *inner_components()], [0.5, 0.2, 0.3])
    return nested, flat


class TestNestedMixture:
    """A mixture component reaches histories it rules out; both engines give
    the totals of the flat mixture with the same marginal."""

    @staticmethod
    def _assert_same_totals(got, want):
        assert got.cumulative.keys() == want.cumulative.keys()
        for key in want.cumulative:
            assert got.total(key) == pytest.approx(want.total(key), abs=1e-12)
        assert got.kl_direct == pytest.approx(want.kl_direct, abs=1e-12)

    @pytest.mark.parametrize("horizon", [1, 6, 10])
    def test_exact_engine(self, horizon):
        nested, flat = _nested_and_flat()
        self._assert_same_totals(exact_evaluate(nested, 0, THREE_COIN_LOSSES, horizon),
                                 exact_evaluate(flat, 0, THREE_COIN_LOSSES, horizon))

    def test_monte_carlo(self):
        nested, flat = _nested_and_flat()
        got, want = (monte_carlo_evaluate(mix, 0, THREE_COIN_LOSSES, 8, samples=100, seed=3)
                     for mix in (nested, flat))
        self._assert_same_totals(got, want)
        for key in want.cumulative:
            assert got.total_se(key) == pytest.approx(want.total_se(key), abs=1e-12)

    def test_nested_form_visits_the_flat_node_count(self):
        # the inner mixture carries its components' states and log-marginals,
        # so the exact tree merges the nested form's histories as the flat one's
        nested, flat = _nested_and_flat()
        got, want = (exact_evaluate(mix, 0, THREE_COIN_LOSSES, 14) for mix in (nested, flat))
        assert got.node_visits == want.node_visits == 42
        self._assert_same_totals(got, want)

    def test_inner_states_that_widen_and_depend_on_t(self):
        nested, flat = _nested_and_flat_with_state()
        self._assert_same_totals(exact_evaluate(nested, 0, THREE_COIN_LOSSES, 9),
                                 exact_evaluate(flat, 0, THREE_COIN_LOSSES, 9))
        got, want = (monte_carlo_evaluate(mix, 0, THREE_COIN_LOSSES, 40, samples=150, seed=4)
                     for mix in (nested, flat))
        self._assert_same_totals(got, want)
        for key in want.cumulative:
            assert got.total_se(key) == pytest.approx(want.total_se(key), abs=1e-12)


class TestMonteCarlo:
    def test_degenerate_truth_is_zero_variance_and_exact(self):
        mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1]), BernoulliMeasure(0.5)],
                           [0.5, 0.5])
        mc = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 10, samples=200, seed=1)
        ex = exact_evaluate(mix, 0, [ErrorLoss()], 10)
        for key in mc.per_step:
            np.testing.assert_allclose(mc.per_step[key], ex.per_step[key], atol=1e-12)
            np.testing.assert_allclose(mc.se_per_step[key], 0.0, atol=1e-12)

    def test_history_dependent_component_sees_the_sampled_path(self):
        # one path only, so Monte Carlo must reproduce the exact values; the
        # order-2 chain reads the two symbols before each step
        mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1, 1]),
                            MarkovMeasure([[[0.9, 0.1], [0.6, 0.4]], [[0.3, 0.7], [0.2, 0.8]]],
                                          [0.5, 0.5], order=2)], [0.5, 0.5])
        mc = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 12, samples=100, seed=1,
                                  schemes=[MajorityVoteScheme(2)])
        ex = exact_evaluate(mix, 0, [ErrorLoss()], 12, schemes=[MajorityVoteScheme(2)])
        for key in mc.per_step:
            np.testing.assert_allclose(mc.per_step[key], ex.per_step[key], rtol=0, atol=1e-12)

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
            assert a.total_se(key) == b.total_se(key)

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="100"):
            monte_carlo_evaluate(three_coin_mixture(), 0, [ErrorLoss()], 4, samples=10, seed=0)

    def test_non_finite_series_has_infinite_se_without_warnings(self):
        # constant action 0 under log loss: -log 0 on every path, every step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = monte_carlo_evaluate(three_coin_mixture(), 0, [LogLoss()], 5, samples=100,
                                      seed=2, schemes=[ConstantScheme(0)])
        key = "scheme_loss[constant-0|log]"
        assert np.isposinf(mc.per_step[key]).all()
        assert np.isposinf(mc.se_per_step[key]).all()
        assert mc.total_se(key) == math.inf
        for other in mc.per_step:
            if other != key:
                assert math.isfinite(mc.total_se(other)), other

    def test_batched_standard_errors_match_per_series(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(8, 150))
        vals[1, 7] = np.inf
        vals[2, 3] = np.nan
        vals[4, 0] = -np.inf
        vals[5, [2, 9]] = [np.inf, -np.inf]
        vals[6, 0] = np.nan
        vals[7, 40] = np.nan
        vals[7, 41] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means, se = _means_and_standard_errors(vals)
        assert (se[[1, 2, 4, 5, 6, 7]] == math.inf).all()
        # one shared sum gives the bits of numpy's own mean and std
        with np.errstate(invalid="ignore"):
            assert _hex(means) == _hex(vals.mean(axis=-1))
            assert _hex(se) == _hex(_standard_errors(vals))
        for row in (0, 3):
            assert se[row] == float(vals[row].std(ddof=1) / math.sqrt(150))
            assert means[row] == float(vals[row].mean())
        # a (series, steps, samples) block reduces over its last axis alike,
        # also as the first steps of a wider run-long array
        run_long = np.zeros((2, 7 * 150))
        run_long[:, :600] = vals.reshape(2, 600)
        for block in (vals.reshape(2, 4, 150), run_long[:, :600].reshape(2, 4, 150)):
            block_means, block_se = _means_and_standard_errors(block)
            assert np.array_equal(block_se, se.reshape(2, 4))
            assert block_means.tobytes() == means.reshape(2, 4).tobytes()

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

    @staticmethod
    def _rebuilt_state(component, history):
        """The component's state after ``history``, rebuilt from the empty
        history: the history itself, but a nested mixture's carried state,
        extended one symbol at a time."""
        if not isinstance(component, MixtureModel):
            return np.array([history])
        state = component.initial_state(1)
        for x in history:
            state = component.extend_state(state, np.array([[x]]))[0]
        return state

    @pytest.mark.parametrize("symbol", [None, 1])
    def test_equals_a_trace_that_rebuilds_each_history(self, symbol):
        # two chains; a chain with a whole-history table (which widens, so
        # the trace walks one step a block) over the 7 steps the table
        # defines; a chain with a nested mixture, walked as one block
        chain = MarkovMeasure([[0.7, 0.3], [0.2, 0.8]], [0.5, 0.5])
        chain_2 = MarkovMeasure([[[0.6, 0.4], [0.5, 0.5]], [[0.1, 0.9], [0.3, 0.7]]],
                                [0.4, 0.6], order=2)
        table = ExplicitTableMeasure(_random_table(np.random.default_rng(5), 2, 7,
                                                   zero_at=(1, 1)), 2)
        nested = MixtureModel([BernoulliMeasure(0.3), chain_2,
                               TimeVaryingBinaryMeasure.from_power_law(0.5, 1.0)],
                              [0.2, 0.5, 0.3])
        for comps, weights, horizon in [([chain, chain_2], [0.3, 0.7], 80),
                                        ([chain, table, chain_2], [0.3, 0.3, 0.4], 7),
                                        ([chain, nested], [0.4, 0.6], 80)]:
            mix = MixtureModel(comps, weights)
            path = chain.sample(horizon, seed=11)
            ev = _StepEvaluator(mix, 0, {}, ())
            comp_logm = np.zeros((1, len(comps)))
            want = []
            for t, x in enumerate(path):
                at = x if symbol is None else symbol
                states = [self._rebuilt_state(c, path[:t].tolist()) for c in comps]
                true_cond, log_cond = ev.conditionals(states, t)
                mix_cond = ev.mixture.conditionals(log_cond, comp_logm)
                want.append(mix_cond[0, at] / true_cond[0, at])
                comp_logm = comp_logm + log_cond[:, :, x].T
            assert np.array_equal(ratio_trace(mix, 0, path, symbol=symbol), want), comps

    def test_zero_probability_symbol_is_a_domain_error(self):
        mix = MixtureModel([BernoulliMeasure(1.0), BernoulliMeasure(0.5)], [0.5, 0.5])
        with pytest.raises(ValueError, match="zero true-measure probability"):
            ratio_trace(mix, 0, [0, 0])

    @pytest.mark.parametrize("path", [[], ""], ids=["list", "string"])
    def test_empty_path_is_an_error_naming_the_path(self, path):
        mix = MixtureModel([BernoulliMeasure(0.3)], [1.0])
        with pytest.raises(ValueError, match="^path must not be empty$"):
            ratio_trace(mix, 0, path)
