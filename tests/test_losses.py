import math

import numpy as np
import pytest

from seqpred.losses import (
    AbsoluteLoss,
    AlphaLoss,
    DegenerateLossError,
    ErrorLoss,
    HellingerLoss,
    LogLoss,
    MatrixLoss,
    QuadraticLoss,
    grid_bayes_action,
    threshold_gamma,
)

CONTINUOUS_LOSSES = [ErrorLoss(), AbsoluteLoss(), AlphaLoss(0.7), AlphaLoss(1.0),
                     AlphaLoss(1.6), AlphaLoss(3.0), QuadraticLoss(), HellingerLoss(), LogLoss()]


class TestBayesActions:
    def test_error_picks_most_probable_bit(self):
        assert ErrorLoss().bayes_action([0.3, 0.7]) == 1.0

    def test_error_tie_breaks_low(self):
        assert ErrorLoss().bayes_action([0.5, 0.5]) == 0.0

    def test_quadratic_matches_posterior_mass(self):
        assert QuadraticLoss().bayes_action([0.3, 0.7]) == pytest.approx(0.7, abs=0)

    def test_hellinger_symmetric_point(self):
        assert HellingerLoss().bayes_action([0.5, 0.5]) == pytest.approx(0.5, abs=0)

    def test_alpha_closed_form(self):
        # (1 + (0.2/0.8)^(1/2))^-1 = 2/3
        assert AlphaLoss(3.0).bayes_action([0.2, 0.8]) == pytest.approx(2 / 3, abs=1e-15)

    def test_alpha_at_most_one_is_the_error_decision(self):
        for rho1 in np.linspace(0.01, 0.99, 33):
            want = ErrorLoss().bayes_action([1 - rho1, rho1])
            for alpha in (0.3, 0.7, 1.0):
                act = AlphaLoss(alpha).bayes_action([1 - rho1, rho1])
                assert act in (0.0, 1.0)
                assert act == want

    def test_alpha_near_one_saturates_to_threshold(self):
        stiff = AlphaLoss(1.0 + 1e-9)
        assert stiff.bayes_action([0.3, 0.7]) == 1.0
        assert stiff.bayes_action([0.7, 0.3]) == 0.0

    def test_alpha_handles_degenerate_posteriors(self):
        assert AlphaLoss(2.0).bayes_action([1.0, 0.0]) == 0.0
        assert AlphaLoss(2.0).bayes_action([0.0, 1.0]) == 1.0

    def test_unnormalized_posterior_rejected(self):
        with pytest.raises(ValueError):
            QuadraticLoss().bayes_action([0.4, 0.4])


class TestThreshold:
    def test_unit_error_matrix(self):
        assert threshold_gamma([[0, 1], [1, 0]]) == pytest.approx(0.5, abs=0)

    def test_asymmetric_matrix(self):
        assert threshold_gamma([[0, 1], [3, 0]]) == pytest.approx(0.25, abs=0)

    def test_symmetric_off_diagonal_any_scale(self):
        for c in (0.2, 1.0, 7.0):
            assert threshold_gamma([[0, c], [c, 0]]) == pytest.approx(0.5, abs=0)

    def test_action_flips_exactly_at_gamma(self):
        loss = MatrixLoss([[0, 1], [3, 0]])
        gamma = threshold_gamma(loss)
        for rho1 in np.linspace(0.01, 0.99, 197):
            act = loss.bayes_action([1 - rho1, rho1])
            assert act == (1 if rho1 > gamma else 0)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateLossError):
            threshold_gamma([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DegenerateLossError):
            threshold_gamma([[1, 0], [0, 1]])  # denominator negative

    def test_gamma_invariant_under_rescaling(self):
        raw = [[0, 2], [6, 0]]
        assert threshold_gamma(MatrixLoss(raw)) == pytest.approx(threshold_gamma(raw), abs=0)


class TestExpectedLoss:
    def test_error_is_misclassification_mass(self):
        assert ErrorLoss().expected_loss([0.3, 0.7], 1.0) == pytest.approx(0.3, abs=0)

    def test_quadratic_hand_value(self):
        got = QuadraticLoss().expected_loss([0.3, 0.7], 0.7)
        assert got == pytest.approx(0.3 * 0.49 + 0.7 * 0.09, abs=1e-15)
        # equals E (1 - rho(x))^2 when the action is the posterior mass
        assert got == pytest.approx(0.3 * (1 - 0.3) ** 2 + 0.7 * (1 - 0.7) ** 2, abs=1e-15)

    def test_log_score_at_matched_posterior(self):
        assert LogLoss().expected_loss([0.5, 0.5], 0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_log_loss_can_be_infinite(self):
        assert LogLoss().expected_loss([0.3, 0.7], 0.0) == math.inf

    def test_hellinger_closed_form_expected_loss(self):
        rng = np.random.default_rng(8)
        loss = HellingerLoss()
        for _ in range(50):
            mu1, rho1 = rng.uniform(0.05, 0.95, size=2)
            mu = [1 - mu1, mu1]
            rho = np.array([1 - rho1, rho1])
            act = loss.bayes_action(rho)
            norm = math.sqrt(rho[0] ** 2 + rho[1] ** 2)
            want = 1 - (mu[0] * rho[0] + mu[1] * rho[1]) / norm
            assert loss.expected_loss(mu, act) == pytest.approx(want, abs=1e-12)

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            QuadraticLoss().expected_loss([0.5, 0.5], 1.5)
        with pytest.raises(ValueError):
            MatrixLoss([[0, 1], [1, 0]]).expected_loss([0.5, 0.5], 2)


class TestClosedFormVsGrid:
    @pytest.mark.parametrize("loss", CONTINUOUS_LOSSES, ids=lambda l: repr(l))
    def test_grid_minimizer_matches_closed_form(self, loss):
        for rho1 in np.linspace(0.02, 0.98, 25):
            posterior = [1 - rho1, rho1]
            closed = loss.bayes_action(posterior)
            grid = grid_bayes_action(loss, posterior, resolution=1e-5)
            assert abs(closed - grid) <= 2e-5
            achieved = loss.expected_loss(posterior, closed)
            scanned = loss.expected_loss(posterior, grid)
            assert achieved <= scanned + 1e-9


class TestMatrixLoss:
    def test_exhaustive_optimality(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n_out = int(rng.integers(2, 5))
            n_act = int(rng.integers(2, 6))
            loss = MatrixLoss(rng.random((n_out, n_act)))
            p = rng.random(n_out)
            p /= p.sum()
            best = loss.bayes_action(p)
            optimum = loss.expected_loss(p, best)
            for y in range(n_act):
                assert optimum <= loss.expected_loss(p, y) + 1e-15

    def test_tie_breaks_to_lowest_index(self):
        loss = MatrixLoss([[0.2, 0.2, 0.9], [0.4, 0.4, 0.9]])
        assert loss.bayes_action([0.5, 0.5]) == 0

    def test_rescaling_records_affine_map(self):
        loss = MatrixLoss([[0, 1], [3, 0]])
        assert loss.scale == 3.0 and loss.offset == 0.0
        np.testing.assert_allclose(loss.matrix, [[0, 1 / 3], [1, 0]])
        shifted = MatrixLoss([[-1, 2], [0, 1]])
        assert shifted.offset == -1.0 and shifted.scale == 3.0
        assert shifted.matrix.min() == 0.0 and shifted.matrix.max() == 1.0

    def test_tables_already_in_unit_interval_untouched(self):
        loss = MatrixLoss([[0.1, 0.9], [0.5, 0.0]])
        assert loss.scale == 1.0 and loss.offset == 0.0

    def test_zero_loss_action_detection(self):
        assert MatrixLoss([[0, 1], [3, 0]]).has_zero_loss_action()
        assert not MatrixLoss([[0.5, 1], [1, 0]]).has_zero_loss_action()

    def test_posterior_length_checked(self):
        with pytest.raises(ValueError):
            MatrixLoss([[0, 1], [1, 0]]).bayes_action([0.2, 0.3, 0.5])


class TestFlags:
    def test_log_loss_is_unbounded(self):
        assert not LogLoss().bounded
        assert all(l.bounded for l in (ErrorLoss(), AbsoluteLoss(), QuadraticLoss(),
                                       HellingerLoss(), AlphaLoss(2.0)))

    def test_named_losses_are_binary_only(self):
        with pytest.raises(ValueError):
            ErrorLoss().bayes_action([0.2, 0.3, 0.5])

    def test_alpha_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            AlphaLoss(0.0)


class TestValidation:
    """Every scalar entry point checks its posterior: a probability vector
    over the loss's outcomes."""

    SWITCH = MatrixLoss([[0, 1], [1, 0]])

    @pytest.mark.parametrize("loss", CONTINUOUS_LOSSES + [SWITCH], ids=lambda l: repr(l))
    @pytest.mark.parametrize("posterior, reason", [
        ([math.nan, math.nan], "finite"),
        ([math.nan, 1.0], "finite"),
        ([1.0 + 1e-10, 0.0], r"\[0, 1\]"),
    ], ids=["nan", "half-nan", "entry-above-one"])
    def test_non_probability_posteriors_rejected(self, loss, posterior, reason):
        for call in (loss.bayes_action, lambda p: loss.expected_loss(p, 0),
                     lambda p: grid_bayes_action(loss, p, resolution=0.25)):
            with pytest.raises(ValueError, match=reason):
                call(posterior)

    @pytest.mark.parametrize("loss", [ErrorLoss(), SWITCH], ids=lambda l: repr(l))
    def test_wrong_length_posterior_names_the_outcome_count(self, loss):
        for call in (loss.bayes_action, lambda p: loss.expected_loss(p, 0),
                     lambda p: grid_bayes_action(loss, p, resolution=0.25)):
            with pytest.raises(ValueError, match="over 2 outcomes, got 3"):
                call([0.2, 0.3, 0.5])

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            AlphaLoss(alpha)


class TestStackedActions:
    """``expected_losses`` scores a (P, M) action array row by row with the
    bits of P separate (M,) calls: the engine makes one call per loss."""

    @staticmethod
    def _rows(loss, posteriors, per_predictor):
        stacked = loss.expected_losses(posteriors, np.stack(per_predictor))
        assert stacked.shape == (len(per_predictor), posteriors.shape[0])
        for row, actions in zip(stacked, per_predictor):
            want = loss.expected_losses(posteriors, actions)
            assert [float(v).hex() for v in row] == [float(v).hex() for v in want]
        return stacked

    @pytest.mark.parametrize("loss", CONTINUOUS_LOSSES, ids=repr)
    def test_binary_losses(self, loss):
        rng = np.random.default_rng(8)
        p1 = np.concatenate([rng.random(40), [0.0, 1.0, 0.5]])
        posteriors = np.stack([1.0 - p1, p1], axis=1)
        others = np.stack([1.0 - rng.random(43), rng.random(43)], axis=1)
        per_predictor = [loss.bayes_actions(others), loss.bayes_actions(posteriors),
                         np.zeros(43), np.ones(43), rng.random(43)]
        stacked = self._rows(loss, posteriors, per_predictor)
        if isinstance(loss, LogLoss):
            # action 0 against mass on symbol 1 is infinite; against zero mass it is 0
            assert np.isposinf(stacked[2, :40]).all()
            assert stacked[2, 40] == 0.0 and stacked[3, 41] == 0.0

    def test_non_square_matrix_loss(self):
        loss = MatrixLoss([[0.0, 3.0, 1.0, 2.0], [2.5, 0.0, 1.0, -1.0], [1.0, 1.0, 0.0, 0.5]])
        rng = np.random.default_rng(9)
        posteriors = rng.dirichlet(np.ones(3), size=30)
        per_predictor = [loss.bayes_actions(rng.dirichlet(np.ones(3), size=30)),
                         loss.bayes_actions(posteriors),
                         np.full(30, 3), rng.integers(0, 4, 30)]
        self._rows(loss, posteriors, per_predictor)
