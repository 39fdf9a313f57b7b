import math

import numpy as np
import pytest

from oracles import DegenerateLossError, grid_bayes_action, threshold_gamma
from seqpred.losses import (
    AbsoluteLoss,
    AlphaLoss,
    ErrorLoss,
    HellingerLoss,
    LogLoss,
    MatrixLoss,
    QuadraticLoss,
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

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (2, 3)])
    def test_a_row_rounds_alike_alone_and_in_a_batch(self, shape):
        # BLAS multiplies one row (gemv) and several (gemm) with different
        # roundings; a row's risks must not depend on the rows beside it
        rng = np.random.default_rng(7)
        loss = MatrixLoss(rng.random(shape))
        p = rng.dirichlet(np.ones(shape[0]), size=300)
        actions = rng.integers(0, shape[1], size=300)
        batch = loss.expected_losses(p, actions)
        for i in range(300):
            alone = loss.expected_losses(p[i:i + 1], actions[i:i + 1])
            assert alone.tobytes() == batch[i:i + 1].tobytes(), i
            assert loss.expected_loss(p[i], actions[i]) == batch[i], i
        assert np.array_equal([loss.bayes_action(row) for row in p], loss.bayes_actions(p))


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

    @pytest.mark.parametrize("action", [0.7, -1, 2, math.nan],
                             ids=["fractional", "negative", "past-last-column", "nan"])
    def test_matrix_action_must_be_an_index(self, action):
        with pytest.raises(ValueError, match="not an action index"):
            self.SWITCH.expected_loss([0.5, 0.5], action)

    def test_action_is_typed_as_the_loss_plays_it(self):
        assert type(self.SWITCH.action(1.0)) is int
        assert type(ErrorLoss().action(1)) is float
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                ErrorLoss().expected_loss([0.5, 0.5], bad)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestStackedActions:
    """``expected_losses`` scores a (P, M) action array row by row with the
    bits of P separate (M,) calls: the engine makes one call per loss, into
    its rows of the block's values.  The in-place kernels give the bits of
    the forms they replaced, and ``out`` is filled and returned."""

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

    ALL_LOSSES = [*CONTINUOUS_LOSSES, MatrixLoss([[0.0, 3.0, 1.0], [2.5, 0.0, 1.0]])]

    @staticmethod
    def _binary_expected_losses(loss, posteriors, actions):
        """``LossSpec.expected_losses`` before it wrote in place."""
        return posteriors[:, 0] * loss.loss(0, actions) + posteriors[:, 1] * loss.loss(1, actions)

    @staticmethod
    def _log_expected_losses(posteriors, actions):
        """``LogLoss.expected_losses`` before it wrote in place."""
        y = np.asarray(actions, dtype=float)
        out = np.zeros(posteriors.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, prob in ((0, 1.0 - y), (1, y)):
                mass = posteriors[:, x]
                term = np.where(mass > 0.0, -mass * np.log(prob), 0.0)
                out = out + np.where((mass > 0.0) & (prob <= 0.0), np.inf, term)
        return out

    @staticmethod
    def _alpha_actions(alpha, posteriors):
        """``AlphaLoss.bayes_actions`` (alpha > 1) before it wrote in place:
        masked writes of the saturated ends and a gather of the rest."""
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.log(posteriors[:, 0]) - np.log(posteriors[:, 1])) / (alpha - 1.0)
        out = np.empty(posteriors.shape[0])
        hi, lo = t >= 700.0, t <= -700.0
        mid = ~(hi | lo)
        out[hi] = 0.0
        out[lo] = 1.0
        out[mid] = 1.0 / (1.0 + np.exp(t[mid]))
        return out, t

    def test_error_loss_matches_the_where_form(self):
        actions = np.array([0.0, 1.0, 0.3, -0.0, np.nan])
        for x in (0, 1):
            want = np.where(float(x) == actions, 0.0, 1.0)
            assert _hex(ErrorLoss().loss(x, actions)) == _hex(want)
        posteriors = np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.7, 0.3]])
        stacked = np.stack([actions, actions[::-1]])
        assert _hex(ErrorLoss().expected_losses(posteriors, stacked)) == _hex(
            self._binary_expected_losses(ErrorLoss(), posteriors, stacked))

    @pytest.mark.parametrize("loss", CONTINUOUS_LOSSES[:-1], ids=repr)
    def test_binary_form_matches_the_product_form(self, loss):
        rng = np.random.default_rng(11)
        p1 = np.concatenate([rng.random(20), [0.0, 1.0, 0.5, np.nan]])
        posteriors = np.stack([1.0 - p1, p1], axis=1)
        actions = np.stack([rng.random(24), np.r_[rng.random(20), 0.0, 1.0, -0.0, np.nan]])
        with np.errstate(invalid="ignore"):
            assert _hex(loss.expected_losses(posteriors, actions)) == _hex(
                self._binary_expected_losses(loss, posteriors, actions))

    def test_log_loss_matches_the_where_form(self):
        # every pair of masses in {0, NaN, > 0}, against actions whose
        # probabilities p = 1 - y and p = y cover < 0, -0.0, 0, (0, 1), 1, NaN
        masses = [0.0, np.nan, 0.25, 1.0, 5e-324]
        posteriors = np.array([[a, b] for a in masses for b in masses])
        ys = [-0.5, -0.0, 0.0, 1e-20, 0.3, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.5, np.nan]
        actions = np.array([[y] * posteriors.shape[0] for y in ys])
        with np.errstate(invalid="ignore", divide="ignore"):
            assert _hex(LogLoss().expected_losses(posteriors, actions)) == _hex(
                self._log_expected_losses(posteriors, actions))
            for row in actions:
                assert _hex(LogLoss().expected_losses(posteriors, row)) == _hex(
                    self._log_expected_losses(posteriors, row))

    @pytest.mark.parametrize("alpha", [1.0001, 3.0])
    def test_alpha_actions_match_the_masked_form(self, alpha):
        # t = (ln rho0 - ln rho1) / (alpha - 1) at and around +-700 (reached
        # only for alpha near 1; alpha = 3 sweeps around t = 1/2), +-inf (a
        # zero mass) and NaN (two zero masses)
        rho1 = 0.2
        near = rho1 * np.exp(min(700.0 * (alpha - 1.0), 1.0))
        rho0 = near + np.arange(-8, 9) * np.spacing(near)
        rows = [*zip(rho0, [rho1] * rho0.size), *zip([rho1] * rho0.size, rho0),
                (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (np.nan, 0.5), (0.5, 0.5), (5e-324, 1.0),
                (1.0, 5e-324), (0.3, 0.7)]
        posteriors = np.array(rows)
        with np.errstate(invalid="ignore"):
            got = AlphaLoss(alpha).bayes_actions(posteriors)
        want, t = self._alpha_actions(alpha, posteriors)
        assert _hex(got) == _hex(want)
        assert {-np.inf, np.inf} <= set(t.tolist()) and np.isnan(t).any()
        if alpha < 2:
            assert (t == 700.0).any() and (t == -700.0).any()
            assert ((t > 690) & (t < 700)).any() and ((t > -700) & (t < -690)).any()

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=repr)
    def test_out_is_filled_and_returned(self, loss):
        rng = np.random.default_rng(12)
        n = loss.n_outcomes
        posteriors = rng.dirichlet(np.ones(n), size=30)
        if isinstance(loss, MatrixLoss):
            actions = rng.integers(0, loss.n_actions, size=(3, 30))
        else:
            actions = rng.random((3, 30))
        want = loss.expected_losses(posteriors, actions)
        # a row slice of a larger array, as the engine passes
        wide = np.full((6, 30), 7.0)
        out = wide[2:5]
        assert loss.expected_losses(posteriors, actions, out=out) is out
        assert _hex(out) == _hex(want)
        assert (wide[:2] == 7.0).all() and (wide[5:] == 7.0).all()
        one = np.empty(30)
        assert loss.expected_losses(posteriors, actions[1], out=one) is one
        assert _hex(one) == _hex(want[1])

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=repr)
    def test_out_of_another_shape_is_refused(self, loss):
        posteriors = np.full((30, loss.n_outcomes), 1.0 / loss.n_outcomes)
        actions = np.zeros(30, dtype=loss.action_dtype)
        for shape in ((3, 30), (29,), (30, 1)):
            with pytest.raises(ValueError, match="out has shape"):
                loss.expected_losses(posteriors, actions, out=np.empty(shape))
        with pytest.raises(ValueError, match="out has shape"):
            loss.expected_losses(posteriors, np.zeros((3, 30), dtype=loss.action_dtype),
                                 out=np.empty(30))


# each loss's ``loss(x, y)`` as it was written before the masked pow
LOSS_FORMS = {
    ErrorLoss: lambda loss, x, y: (np.asarray(x, dtype=float)
                                   != np.asarray(y, dtype=float)).astype(float),
    AbsoluteLoss: lambda loss, x, y: np.abs(np.asarray(x, dtype=float)
                                            - np.asarray(y, dtype=float)),
    AlphaLoss: lambda loss, x, y: np.abs(np.asarray(x, dtype=float)
                                         - np.asarray(y, dtype=float)) ** loss.alpha,
    QuadraticLoss: lambda loss, x, y: np.square(np.asarray(x, dtype=float)
                                                - np.asarray(y, dtype=float)),
    HellingerLoss: lambda loss, x, y: 1.0 - np.sqrt(np.abs(
        1.0 - np.asarray(x, dtype=float) - np.asarray(y, dtype=float))),
    LogLoss: lambda loss, x, y: -np.log(np.abs(
        1.0 - np.asarray(x, dtype=float) - np.asarray(y, dtype=float))),
    MatrixLoss: lambda loss, x, y: loss.matrix[np.asarray(x, dtype=np.int64),
                                               np.asarray(y, dtype=np.int64)],
}


class TestElementwiseLoss:
    @pytest.mark.parametrize("loss", [*TestStackedActions.ALL_LOSSES, AlphaLoss(0.5),
                                      AlphaLoss(2.0), AlphaLoss(1.0001)], ids=repr)
    def test_scalars_and_0d_arrays_keep_their_values(self, loss):
        if isinstance(loss, MatrixLoss):
            pairs = [(x, y) for x in range(loss.n_outcomes) for y in range(loss.n_actions)]
        else:
            pairs = [(x, y) for x in (0, 1) for y in (0, 1, 0.0, 1.0, 0.5, 0.3, 1e-300)]
        with np.errstate(divide="ignore"):
            for x, y in pairs:
                want = LOSS_FORMS[type(loss)](loss, x, y)
                for args in ((x, y), (np.asarray(x), np.asarray(y)), (x, np.asarray(y))):
                    got = loss.loss(*args)
                    assert np.ndim(got) == 0 and type(got) is type(want), (args, got)
                    assert float(got).hex() == float(want).hex(), (args, got, want)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0001, 3.0])
    def test_alpha_masked_pow_matches_the_power_form(self, alpha):
        # d = |x - y| over 0 (also from x - y = -0.0), 1, 0.5, 1e-300 and NaN,
        # in (M,) and (P, M) arrays, against ``**`` on every element
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        loss = AlphaLoss(alpha)
        form = LOSS_FORMS[AlphaLoss]
        ys = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, np.nan]) \
            | st.floats(0.0, 1.0)

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.sampled_from([0.0, -0.0, 1.0]),
                          hnp.array_shapes(min_dims=1, max_dims=2, max_side=40), st.data())
        def check(x, shape, data):
            y = data.draw(hnp.arrays(np.float64, shape, elements=ys))
            got = loss.loss(x, y)
            assert got.shape == y.shape
            assert _hex(got) == _hex(form(loss, x, y))

        check()
