import math
from itertools import product

import numpy as np
import pytest

from seqpred.measures import (
    Alphabet,
    BernoulliMeasure,
    DeterministicMeasure,
    DistributionError,
    ExplicitTableMeasure,
    InvalidSymbolError,
    MarkovMeasure,
    TimeVaryingBinaryMeasure,
    UndefinedConditionalError,
    draw_symbols,
)

NEG_INF = float("-inf")


def all_kinds():
    """One representative of every measure family (binary unless noted)."""
    return [
        BernoulliMeasure(0.3),
        BernoulliMeasure(1.0),
        MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5]),
        MarkovMeasure(
            [[[0.9, 0.1], [0.5, 0.5]], [[0.2, 0.8], [0.6, 0.4]]],
            initial=[0.4, 0.6], order=2),
        DeterministicMeasure.from_pattern([0, 1]),
        TimeVaryingBinaryMeasure.from_power_law(0.5, 3.0),
        ExplicitTableMeasure(
            {"": [0.5, 0.5], "0": [0.2, 0.8], "1": [1.0, 0.0],
             "00": [0.5, 0.5], "01": [0.3, 0.7], "10": [0.6, 0.4]},
            alphabet_size=2),
    ]


class TestMarginals:
    def test_uniform_coin(self):
        assert BernoulliMeasure(0.5).log_marginal("0110") == pytest.approx(math.log(1 / 16), abs=1e-12)

    def test_point_measure(self):
        zeros = DeterministicMeasure.from_pattern([0])
        assert zeros.log_marginal("00") == 0.0
        assert zeros.log_marginal("01") == NEG_INF

    def test_markov_chain_rule_product(self):
        m = MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5])
        assert m.log_marginal("011") == pytest.approx(math.log(0.5 * 0.3 * 0.9), abs=1e-12)
        # cross-check: all length-3 strings sum to one
        total = sum(math.exp(m.log_marginal(s)) for s in product((0, 1), repeat=3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_impossible_symbol_gives_exact_neg_inf(self):
        assert BernoulliMeasure(1.0).log_marginal("10") == NEG_INF


class TestConditionals:
    def test_iid_conditional_ignores_history(self):
        m = BernoulliMeasure(0.2)
        for h in ("", "0", "0110"):
            assert m.conditional(h, 1) == pytest.approx(0.2, abs=0)

    def test_time_varying_rule(self):
        # P(1 at step t) = t^-3 / 2; step 2 after one zero
        m = TimeVaryingBinaryMeasure.from_power_law(0.5, 3.0)
        assert m.conditional("0", 1) == pytest.approx(1 / 16, abs=1e-15)

    def test_point_measure_conditional(self):
        zeros = DeterministicMeasure.from_pattern([0])
        assert zeros.conditional("00", 0) == 1.0

    def test_zero_probability_history_rejected(self):
        with pytest.raises(UndefinedConditionalError):
            DeterministicMeasure.from_pattern([0]).conditional_vector("01")
        with pytest.raises(UndefinedConditionalError):
            BernoulliMeasure(1.0).conditional_vector("0")

    def test_invalid_symbol_rejected(self):
        with pytest.raises(InvalidSymbolError):
            BernoulliMeasure(0.5).log_marginal("012")
        with pytest.raises(InvalidSymbolError):
            BernoulliMeasure(0.5).conditional("0", 2)

    @pytest.mark.parametrize("measure", all_kinds(), ids=lambda m: repr(m))
    def test_conditionals_normalized(self, measure):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = int(rng.integers(0, 3))
            h = tuple(int(s) for s in measure.sample(t, seed=int(rng.integers(1 << 30)))[:t]) if t else ()
            vec = measure.conditional_vector(h)
            assert abs(vec.sum() - 1.0) <= 1e-12
            assert (vec >= 0).all()


class TestChainRuleConsistency:
    @pytest.mark.parametrize("measure", all_kinds(), ids=lambda m: repr(m))
    def test_product_of_conditionals_equals_marginal(self, measure):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            xs = tuple(int(v) for v in rng.integers(0, 2, size=n))
            if isinstance(measure, ExplicitTableMeasure) and n >= measure.horizon:
                continue
            direct = measure.log_marginal(xs)
            total, possible = 0.0, True
            for t in range(n):
                prefix_lm = measure.log_marginal(xs[:t])
                if prefix_lm == NEG_INF:
                    possible = False
                    break
                p = measure.conditional(xs[:t], xs[t])
                if p == 0.0:
                    possible = False
                    break
                total += math.log(p)
            if not possible:
                assert direct == NEG_INF
            else:
                assert direct == pytest.approx(total, abs=1e-12)

    def test_marginals_non_increasing_under_extension(self):
        m = MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5])
        rng = np.random.default_rng(3)
        for _ in range(100):
            xs = tuple(int(v) for v in rng.integers(0, 2, size=6))
            for t in range(1, 6):
                assert m.log_marginal(xs[: t + 1]) <= m.log_marginal(xs[:t]) + 1e-15


class TestNormalization:
    @pytest.mark.parametrize("measure,n", [
        (BernoulliMeasure(0.3), 10),
        (MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5]), 10),
        (TimeVaryingBinaryMeasure.from_power_law(0.5, 2.0), 8),
        (DeterministicMeasure.from_pattern([0, 1]), 10),
        (MarkovMeasure([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]],
                       initial=[0.4, 0.3, 0.3]), 7),
    ], ids=["bernoulli", "markov2", "time-varying", "deterministic", "markov3"])
    def test_total_mass_one(self, measure, n):
        size = measure.alphabet.size
        total = math.fsum(
            math.exp(measure.log_marginal(s)) for s in product(range(size), repeat=n))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_degenerate_coin(self):
        assert BernoulliMeasure(1.0).sample(5, seed=0).tolist() == [1] * 5

    def test_deterministic_pattern(self):
        assert DeterministicMeasure.from_pattern([0]).sample(3, seed=9).tolist() == [0, 0, 0]

    def test_fair_coin_frequency_fixture(self):
        # recorded once from seed 1234; binomial se is 0.005, so [0.48, 0.52]
        s = BernoulliMeasure(0.5).sample(10_000, seed=1234)
        assert int(s.sum()) == 5029
        assert 0.48 <= s.mean() <= 0.52

    def test_seed_determinism(self):
        m = MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5])
        assert np.array_equal(m.sample(64, seed=42), m.sample(64, seed=42))

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    def test_iid_frequency_within_four_se(self, theta):
        n = 10_000
        s = BernoulliMeasure(theta).sample(n, seed=77)
        se = math.sqrt(theta * (1 - theta) / n)
        assert abs(s.mean() - theta) <= 4 * se

    def test_markov_conditional_frequency_within_four_se(self):
        m = MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5])
        path = m.sample(10_000, seed=5)
        after0 = path[1:][path[:-1] == 0]
        se = math.sqrt(0.3 * 0.7 / len(after0))
        assert abs(after0.mean() - 0.3) <= 4 * se


class TestValidation:
    def test_alphabet_size(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            BernoulliMeasure(1.2)

    def test_markov_rows_must_normalize(self):
        with pytest.raises(ValueError):
            MarkovMeasure([[0.7, 0.2], [0.1, 0.9]], initial=[0.5, 0.5])

    def test_table_must_be_prefix_complete(self):
        with pytest.raises(ValueError, match="prefix-complete"):
            ExplicitTableMeasure({"": [0.5, 0.5], "0": [0.2, 0.8]}, alphabet_size=2)

    def test_table_horizon_is_enforced(self):
        table = ExplicitTableMeasure({"": [0.4, 0.6], "0": [0.5, 0.5], "1": [0.5, 0.5]},
                                     alphabet_size=2)
        assert table.horizon == 2
        with pytest.raises(UndefinedConditionalError):
            table.conditional_vector("01")

    @pytest.mark.parametrize("build, field", [
        (lambda: ExplicitTableMeasure({"": [0.5, 0.5], "0": [1.0], "1": [0.5, 0.5]}, 2),
         "table"),
        (lambda: ExplicitTableMeasure({"": [0.5, 0.25, 0.25]}, 2), "table"),
        (lambda: MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[1.0]), "initial"),
        (lambda: MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[[0.5, 0.5]]), "initial"),
    ], ids=["table-short-row", "table-long-row", "markov-short-initial", "markov-2d-initial"])
    def test_vectors_must_match_the_alphabet(self, build, field):
        with pytest.raises(DistributionError) as exc:
            build()
        assert exc.value.field == field

    def test_pattern_symbols_are_checked_when_built(self):
        with pytest.raises(InvalidSymbolError, match="outside alphabet of size 2"):
            DeterministicMeasure.from_pattern([0, 1, 2])
        assert DeterministicMeasure.from_pattern([0, 2], alphabet_size=3).log_marginal("02") == 0.0

    def test_time_varying_rule_must_stay_in_unit_interval(self):
        bad = TimeVaryingBinaryMeasure(lambda t: 1.5)
        with pytest.raises(ValueError):
            bad.conditional_vector("")

    @pytest.mark.parametrize("coefficient, power", [
        (math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0), (0.5, -math.inf),
    ], ids=["nan-coefficient", "nan-power", "inf-coefficient", "inf-power"])
    def test_power_law_parameters_must_be_finite(self, coefficient, power):
        with pytest.raises(ValueError, match="finite"):
            TimeVaryingBinaryMeasure.from_power_law(coefficient, power)


class TestDrawSymbols:
    def test_cdf_rounding_below_one_never_draws_a_zero_probability_symbol(self):
        probs = np.array([[0.1] * 10 + [0.0]])
        assert np.cumsum(probs)[-1] < 1.0
        u = np.array([0.9999999999999999])
        assert draw_symbols(probs, u).tolist() == [9]

    def test_leading_zero_is_skipped_at_u_zero(self):
        probs = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        assert draw_symbols(probs, np.zeros(2)).tolist() == [1, 2]

    def test_matches_searchsorted_inside_the_cdf(self):
        probs = np.tile([0.2, 0.3, 0.5], (5, 1))
        u = np.array([0.0, 0.19, 0.2, 0.6, 0.99])
        want = [int(np.searchsorted(np.cumsum(probs[0]), x, side="right")) for x in u]
        assert draw_symbols(probs, u).tolist() == want
