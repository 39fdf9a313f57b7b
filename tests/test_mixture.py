import math
from itertools import product

import numpy as np
import pytest

from oracles import posterior_weights
from seqpred.measures import (BernoulliMeasure, DeterministicMeasure, DistributionError,
                              MarkovMeasure, UndefinedConditionalError, draw_symbols)
from seqpred.mixture import MixtureModel


def two_coin():
    return MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.8)], [0.5, 0.5])


def point_coins():
    return MixtureModel([BernoulliMeasure(0.0), BernoulliMeasure(1.0)], [0.5, 0.5])


class TestMarginal:
    def test_single_component_is_the_component(self):
        mu = BernoulliMeasure(0.3)
        mix = MixtureModel([mu], [1.0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            xs = tuple(int(v) for v in rng.integers(0, 2, size=int(rng.integers(1, 8))))
            assert mix.log_marginal(xs) == pytest.approx(mu.log_marginal(xs), abs=1e-12)

    def test_vanishing_component(self):
        assert point_coins().log_marginal("1") == pytest.approx(math.log(0.5), abs=1e-15)

    def test_two_term_hand_sum(self):
        # 0.5*0.04 + 0.5*0.64 = 0.34, against brute-force summation
        mix = two_coin()
        assert math.exp(mix.log_marginal("11")) == pytest.approx(0.34, abs=1e-15)
        brute = sum(w * math.exp(c.log_marginal("11"))
                    for w, c in zip(mix.weights, mix.components))
        assert math.exp(mix.log_marginal("11")) == pytest.approx(brute, abs=1e-15)


class TestConditional:
    def test_posterior_collapse(self):
        assert point_coins().conditional("1", 1) == 1.0

    def test_single_component(self):
        mu = MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5])
        mix = MixtureModel([mu], [1.0])
        for h in ("", "0", "011"):
            np.testing.assert_allclose(mix.conditional_vector(h), mu.conditional_vector(h),
                                       atol=1e-12)

    def test_hand_bayes_value(self):
        # (0.5*0.2*0.2 + 0.5*0.8*0.8) / (0.5*0.2 + 0.5*0.8) = 0.68
        mix = two_coin()
        assert mix.conditional("1", 1) == pytest.approx(0.68, abs=1e-12)
        # marginal-ratio cross-check
        ratio = math.exp(mix.log_marginal("11") - mix.log_marginal("1"))
        assert mix.conditional("1", 1) == pytest.approx(ratio, abs=1e-15)

    def test_zero_probability_history(self):
        mix = MixtureModel([BernoulliMeasure(1.0)], [1.0])
        with pytest.raises(UndefinedConditionalError):
            mix.conditional_vector("0")

    def test_step_matrix_on_a_ruled_out_history_is_uniform(self):
        # any probability vector is allowed there; the mixture gives the uniform one
        mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1], alphabet_size=3),
                            DeterministicMeasure.from_pattern([0], alphabet_size=3)], [0.5, 0.5])
        ruled_out = mix.extend_state(mix.initial_state(1), np.array([[2]]))[0]
        assert mix._step_matrix(ruled_out, 1).tolist() == [[1 / 3] * 3]
        with pytest.raises(UndefinedConditionalError):
            mix.conditional_vector((2,))


class TestPosteriorWeights:
    def test_empty_history_gives_prior(self):
        np.testing.assert_allclose(posterior_weights(two_coin(), ""), [0.5, 0.5], atol=1e-15)

    def test_collapse(self):
        np.testing.assert_allclose(posterior_weights(point_coins(), "1"), [0.0, 1.0], atol=0)

    def test_hand_value_and_normalization(self):
        w = posterior_weights(two_coin(), "11")
        np.testing.assert_allclose(w, [0.04 / 0.68, 0.64 / 0.68], atol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestDominance:
    @pytest.mark.parametrize("mix", [
        two_coin(),
        point_coins(),
        MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.5), BernoulliMeasure(0.8)],
                     [1 / 3, 1 / 3, 1 - 2 / 3]),
        MixtureModel([MarkovMeasure([[0.7, 0.3], [0.1, 0.9]], initial=[0.5, 0.5]),
                      BernoulliMeasure(0.5)], [0.25, 0.75]),
    ], ids=["two-coin", "point-coins", "three-coin", "markov+coin"])
    def test_mixture_dominates_every_component(self, mix):
        rng = np.random.default_rng(19)
        for _ in range(100):
            xs = tuple(int(v) for v in rng.integers(0, 2, size=int(rng.integers(1, 9))))
            mix_p = math.exp(mix.log_marginal(xs))
            for w, comp in zip(mix.weights, mix.components):
                assert mix_p >= w * math.exp(comp.log_marginal(xs)) - 1e-15

    def test_positive_on_true_support(self):
        mix = MixtureModel([BernoulliMeasure(0.9), BernoulliMeasure(0.5)], [0.1, 0.9])
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = tuple(int(v) for v in rng.integers(0, 2, size=6))
            lm = mix.components[0].log_marginal(xs)
            if lm > -math.inf:
                assert mix.log_marginal(xs) >= math.log(0.1) + lm - 1e-12


class TestMixtureIsAMeasure:
    def test_chain_rule(self):
        mix = two_coin()
        rng = np.random.default_rng(5)
        for _ in range(50):
            xs = tuple(int(v) for v in rng.integers(0, 2, size=6))
            total = sum(math.log(mix.conditional(xs[:t], xs[t])) for t in range(6))
            assert mix.log_marginal(xs) == pytest.approx(total, abs=1e-12)

    def test_normalization(self):
        mix = MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.5), BernoulliMeasure(0.8)],
                           [1 / 3, 1 / 3, 1 - 2 / 3])
        total = math.fsum(math.exp(mix.log_marginal(s)) for s in product((0, 1), repeat=8))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_sampling_runs(self):
        assert len(two_coin().sample(16, seed=3)) == 16


def three_coins():
    return MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.5), BernoulliMeasure(0.8)],
                        [1 / 3, 1 / 3, 1 - 2 / 3])


def sample_from_scratch(mix, n, seed):
    """Draws of a sampler that recomputes every component log-marginal from
    the start at each step."""
    rng = np.random.default_rng(seed)
    h = ()
    for _ in range(n):
        def log_mix(xs):
            return np.logaddexp.reduce(mix.log_weights + np.array([c.log_marginal(xs)
                                                                   for c in mix.components]))
        log_h = log_mix(h)
        probs = np.array([np.exp(log_mix(h + (x,)) - log_h) for x in range(mix.alphabet.size)])
        h += (int(draw_symbols(probs[None, :], np.array([rng.random()]))[0]),)
    return list(h)


class TestSampling:
    MIXTURES = {
        "three-coins": three_coins,
        "markov-3": lambda: MixtureModel(
            [MarkovMeasure([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]], [0.2, 0.3, 0.5]),
             MarkovMeasure([[1 / 3] * 3] * 3, [1 / 3] * 3)], [0.4, 0.6]),
        # a component that dies off-pattern; "nested" has one (a mixture)
        # that overrides log_marginal
        "deterministic": lambda: MixtureModel(
            [DeterministicMeasure.from_pattern([0, 1]), BernoulliMeasure(0.5)], [0.5, 0.5]),
        "nested": lambda: MixtureModel([three_coins(), BernoulliMeasure(0.3)], [0.5, 0.5]),
    }

    @pytest.mark.parametrize("name", list(MIXTURES))
    def test_draws_equal_the_from_scratch_sampler(self, name):
        mix = self.MIXTURES[name]()
        for seed in (0, 1, 2):
            assert mix.sample(60, seed).tolist() == sample_from_scratch(mix, 60, seed)

    def test_sampling_makes_a_fixed_number_of_component_steps_per_symbol(self):
        class CountingCoin(BernoulliMeasure):
            calls = 0

            def _step_matrix(self, states, t):
                CountingCoin.calls += 1
                return super()._step_matrix(states, t)

        k = 3
        mix = MixtureModel([CountingCoin(p) for p in (0.2, 0.5, 0.8)], [1 / 3, 1 / 3, 1 - 2 / 3])
        for n in (50, 400):
            CountingCoin.calls = 0
            mix.sample(n, seed=1)
            # per symbol, one step for the conditional and one to extend the state
            assert CountingCoin.calls == 2 * n * k

    def test_draws_for_a_fixed_seed_are_pinned(self):
        got = "".join(map(str, three_coins().sample(80, seed=0)))
        assert got == "10001111111010101101001110111111011111111111111101111010111010011101101111111111"


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.8)], [0.45, 0.45])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.8)], [0.0, 1.0])

    @pytest.mark.parametrize("weights, reason", [
        ([math.nan, math.nan], "finite"),
        ([math.nan, 1.0], "finite"),
        ([0.5, math.inf], "finite"),
        ([0.5, 0.5, 0.0], "one weight per component"),
    ], ids=["nan", "half-nan", "inf", "wrong-count"])
    def test_weights_must_be_one_finite_weight_per_component(self, weights, reason):
        with pytest.raises(DistributionError, match=reason) as exc:
            MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.8)], weights)
        assert exc.value.field == "weights"

    def test_component_list_non_empty(self):
        with pytest.raises(ValueError):
            MixtureModel([], [])

    def test_alphabets_must_agree(self):
        three = MarkovMeasure([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]],
                              initial=[0.4, 0.3, 0.3])
        with pytest.raises(ValueError, match="alphabet"):
            MixtureModel([BernoulliMeasure(0.5), three], [0.5, 0.5])
