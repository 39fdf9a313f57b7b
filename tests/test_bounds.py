import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from seqpred import bounds
from seqpred.bounds import (
    B_RULES,
    EXACT_TOL,
    PLATEAU_TOL,
    BoundCheckResult,
    InequalityPoint,
    InstantChecks,
    check_convergence_bounds,
    check_finite_loss_plateau,
    check_instant_bounds,
    check_instant_distance_bounds,
    check_logloss_identity,
    check_loss_bounds,
    grid_verify_proof_inequalities,
    proof_inequality_values,
)
from seqpred.distances import instant_distances
from seqpred.cli import run_experiment
from seqpred.engine import TotalsReport, _label_losses, exact_evaluate, monte_carlo_evaluate
from seqpred.losses import (AbsoluteLoss, AlphaLoss, ErrorLoss, HellingerLoss, LogLoss,
                             MatrixLoss, QuadraticLoss)
from seqpred.measures import BernoulliMeasure, DeterministicMeasure, MarkovMeasure
from seqpred.mixture import MixtureModel
from seqpred.presets import load_preset
from seqpred.schemes import ConstantScheme, MajorityVoteScheme


class _KeepingChecks(InstantChecks):
    """The instant checks, also keeping each level's arrays and every node's
    rebuilt history for the per-node reference loop."""

    def __init__(self, labels):
        super().__init__(labels)
        self.kept = []

    def __call__(self, step, weights, multiplicity, values, history):
        super().__call__(step, weights, multiplicity, values, history)
        self.kept.append(SimpleNamespace(step=step, weights=weights, values=values,
                                         histories=[history(i) for i in range(weights.size)]))


def _observed(mixture, true_index, losses, horizon, **kwargs):
    """An exact run whose ``records`` are the instant checks that observed it."""
    labelled = _label_losses(losses)
    checks = _KeepingChecks([label for label, loss in labelled.items() if loss.bounded])
    report = exact_evaluate(mixture, true_index, labelled, horizon, observer=checks, **kwargs)
    report.records = checks
    return report


@pytest.fixture(scope="module")
def three_coin_report():
    mix = MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.5), BernoulliMeasure(0.8)],
                       [1 / 3, 1 / 3, 1 - 2 / 3])
    return _observed(mix, 0, [ErrorLoss(), QuadraticLoss(), LogLoss()], 10,
                     schemes=[ConstantScheme(0), MajorityVoteScheme(2)])


@pytest.fixture(scope="module")
def collapse_report():
    mix = MixtureModel([BernoulliMeasure(0.0), BernoulliMeasure(1.0)], [0.5, 0.5])
    return _observed(mix, 1, [ErrorLoss(), LogLoss()], 12)


@pytest.fixture(scope="module")
def plateau_report():
    mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1]), BernoulliMeasure(0.5)],
                       [0.1, 0.9])
    return _observed(mix, 0, [MatrixLoss([[0, 1], [3, 0]]), LogLoss()], 30)


@pytest.fixture(scope="module")
def three_symbol_report():
    config = load_preset("three-symbol")
    report = _observed(config.mixture, config.true_index, config.losses, config.horizon,
                       schemes=config.schemes)
    _, results = run_experiment(config)
    # the CLI's own run certifies the same instant checks
    instant = [r for r in results if r.bound_id.startswith(("instant-", "squared-regret"))]
    labels = [lab for lab, loss in report.losses.items() if loss.bounded]
    want = [r for lab in labels for r in check_instant_bounds(report.records, report, lab)]
    assert instant == want + check_instant_distance_bounds(report.records)
    return report


class TestResultSemantics:
    def test_pass_iff_slack_above_negative_tolerance(self):
        assert BoundCheckResult("x", 1.0, 2.0, 1e-9).passed
        assert BoundCheckResult("x", 1.0, 1.0 - 5e-10, 1e-9).passed
        assert not BoundCheckResult("x", 1.0, 1.0 - 5e-9, 1e-9).passed

    def test_line_and_dict(self):
        r = BoundCheckResult("some-bound", 1.0, 2.0, 1e-9, location="t=3")
        assert r.line().startswith("PASS  some-bound:")
        assert "t=3" in r.line()
        d = r.to_dict()
        assert d["pass"] and d["slack"] == 1.0 and d["bound_id"] == "some-bound"

    def test_numpy_sides_are_held_as_floats(self, recwarn):
        # the bound formulas give numpy scalars, whose inf - inf warns and
        # whose repr is not "inf"
        r = BoundCheckResult("x", np.float64(np.inf), np.float64(np.inf), np.float64(1e-9))
        assert [type(v) for v in (r.lhs, r.rhs, r.tolerance)] == [float] * 3
        assert math.isnan(r.slack) and r.passed is False
        floats = [repr(v) for v in r.to_dict().values() if isinstance(v, float)]
        assert floats == ["inf", "inf", "1e-09", "nan"]
        assert not recwarn.list


class TestConvergenceChecks:
    def test_all_pass_on_three_coins(self, three_coin_report):
        results = check_convergence_bounds(three_coin_report)
        assert all(r.passed for r in results)
        by_id = {r.bound_id: r for r in results}
        assert by_id["kl-total<=log-inv-weight"].rhs == pytest.approx(math.log(3), abs=1e-12)
        assert by_id["kl-total<=log-inv-weight"].slack > 0.3  # strictly positive slack
        assert by_id["kl-telescoping-identity"].lhs <= 1e-9

    def test_collapse_bound_is_tight(self, collapse_report):
        by_id = {r.bound_id: r for r in check_convergence_bounds(collapse_report)}
        entropy = by_id["kl-total<=log-inv-weight"]
        assert entropy.passed
        assert abs(entropy.slack) <= 1e-12  # equality witness

    def test_single_component_trivial(self):
        mix = MixtureModel([BernoulliMeasure(0.4)], [1.0])
        rep = exact_evaluate(mix, 0, [ErrorLoss()], 5)
        for r in check_convergence_bounds(rep):
            assert r.passed

    def test_entropy_slack_non_increasing_in_horizon(self, three_coin_report):
        cap = three_coin_report.log_inv_true_weight
        slack = cap - three_coin_report.cumulative["kl"]
        assert (np.diff(slack) <= 1e-15).all()

    def test_deviation_count_matches_manual_count(self, three_coin_report):
        eps = 0.2
        results = check_convergence_bounds(three_coin_report, deviation_epsilon=eps)
        dev = [r for r in results if r.bound_id == "deviation-count"][0]
        manual = int((three_coin_report.per_step["square"] > eps**2).sum())
        assert dev.lhs == manual
        assert dev.rhs == pytest.approx(three_coin_report.total("kl") / eps**2, abs=1e-12)



# per-step values of a hand-built Monte Carlo report over 4 steps: losses
# "error" (bounded, with a zero-loss action) and "log", one scheme "const"
_STEP_VALUES = {"square": 0.05, "kl": 0.1, "ratio_term": 0.02, "hellinger": 0.05,
                "abs_divergence": 0.15, "absolute": 0.2, "mixture_loss[error]": 0.3,
                "informed_loss[error]": 0.2, "scheme_loss[const|error]": 0.4,
                "mixture_loss[log]": 0.8, "informed_loss[log]": 0.7, "scheme_loss[const|log]": 0.9}

# the two checks that compare estimates with an expectation, and the
# estimates whose SE widens each; every other check holds on each sampled
# path, so its Monte Carlo tolerance is the exact one
_WIDENS = {"kl": {"kl-total<=log-inv-weight", "kl-telescoping-identity"},
           "kl_direct": {"kl-telescoping-identity"}}


def _base_tolerance(result):
    return PLATEAU_TOL if result.bound_id.startswith("loss-plateau") else EXACT_TOL


def _statistical_report(se_key, se):
    """A Monte Carlo report whose only non-zero standard error is ``se_key``'s."""
    per_step = {k: np.full(4, v) for k, v in _STEP_VALUES.items()}
    se_total = {k: se if k == se_key else 0.0 for k in per_step}
    return TotalsReport(
        horizon=4, alphabet_size=2, engine="monte-carlo", true_index=0, true_weight=0.5,
        mu_is_deterministic=True, loss_labels=("error", "log"), scheme_labels=("const",),
        losses={"error": ErrorLoss(), "log": LogLoss()}, per_step=per_step,
        cumulative={k: np.cumsum(v) for k, v in per_step.items()}, kl_direct=0.4,
        samples=100, seed=0, se_total=se_total,
        kl_direct_se=se if se_key == "kl_direct" else 0.0)


def _all_checks(report):
    return (check_convergence_bounds(report) + check_loss_bounds(report, "error")
            + [check_logloss_identity(report, "log")])


class TestStatisticalWidening:
    def test_each_total_widens_only_its_checks(self):
        se = 0.01
        for key in (*_STEP_VALUES, "kl_direct"):
            results = _all_checks(_statistical_report(key, se))
            widened = _WIDENS.get(key, set())
            assert {r.bound_id for r in results if r.mode == "statistical"} == _WIDENS["kl"], key
            for r in results:
                if r.bound_id in widened:
                    assert r.tolerance == EXACT_TOL + 3.0 * se, (key, r.bound_id)
                elif r.mode == "statistical":
                    assert r.tolerance == EXACT_TOL, (key, r.bound_id)
                else:
                    assert (r.tolerance, r.mode) == (_base_tolerance(r), "exact"), (key, r.bound_id)
        # the same totals from an exact engine: the base tolerances
        exact = _all_checks(dataclasses.replace(_statistical_report("kl", se), engine="exact",
                                                se_total=None))
        assert [(r.tolerance, r.mode) for r in exact] == [(_base_tolerance(r), "exact") for r in exact]
        # an estimated report: every check passes, and the two are widened
        # by 3 SE of each estimate in them
        mix = MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.8)], [0.5, 0.5])
        mc = monte_carlo_evaluate(mix, 0, [ErrorLoss()], 6, samples=500, seed=11)
        results = check_convergence_bounds(mc) + check_loss_bounds(mc, "error")
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        tolerances = {r.bound_id: (r.tolerance, r.mode) for r in results if r.mode == "statistical"}
        se_kl = mc.total_se("kl")
        assert tolerances == {
            "kl-total<=log-inv-weight": (EXACT_TOL + 3.0 * se_kl, "statistical"),
            "kl-telescoping-identity": (EXACT_TOL + 3.0 * (se_kl + mc.kl_direct_se), "statistical")}

    def test_form_chain_holds_for_every_estimate(self):
        # form1(d, l) <= form2(d, l) for all d, l >= 0: the chain compares two
        # forms of the same estimates, so it keeps the exact tolerance
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.floats(0.0, 1e4), st.floats(0.0, 1e4))
        def check(d, l):
            assert bounds._form1(d, l) <= bounds._form2(d, l) + EXACT_TOL

        check()


def _every_check(report):
    """Every totals check a run makes on ``report``: convergence, each
    bounded loss's regret bounds and each unbounded loss's identity."""
    results = check_convergence_bounds(report)
    for label, loss in report.losses.items():
        results += (check_loss_bounds(report, label) if loss.bounded
                    else [check_logloss_identity(report, label)])
    return results


class TestPathwiseChecks:
    """On a Monte Carlo report every check but the two against an
    expectation holds on the sample itself, at the exact tolerance."""

    def test_a_log_loss_shift_of_1e_6_fails_the_identity(self):
        mix = MixtureModel([BernoulliMeasure(0.2), BernoulliMeasure(0.5), BernoulliMeasure(0.8)],
                           [1 / 3, 1 / 3, 1 - 2 / 3])
        mc = monte_carlo_evaluate(mix, 0, [LogLoss()], 50, samples=200, seed=3)
        assert check_logloss_identity(mc, "log").passed
        shifted = mc.cumulative["mixture_loss[log]"].copy()
        shifted[20:] += 1e-6  # step 21's mixture log loss, and so every later total
        bent = dataclasses.replace(mc, cumulative={**mc.cumulative, "mixture_loss[log]": shifted})
        r = check_logloss_identity(bent, "log")
        assert (r.tolerance, r.mode) == (EXACT_TOL, "exact")
        assert not r.passed and r.lhs == pytest.approx(1e-6, rel=1e-3)

    def test_random_mixtures_pass_at_the_exact_tolerance(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # a probability in (0, 1e-12) or (1 - 1e-12, 1) is left out: there the
        # log loss's action rho1 can round to 0 or 1 while the truth still
        # gives that symbol mass, and the log-loss identity fails on both
        # engines (its lhs is inf or NaN)
        prob = st.sampled_from([0.0, 1e-12, 0.5, 1.0]) | st.floats(1e-12, 1.0 - 1e-12)
        coin = st.builds(BernoulliMeasure, prob)
        chain = st.builds(lambda p, q, r: MarkovMeasure([[1 - p, p], [1 - q, q]], initial=[1 - r, r]),
                          prob, prob, prob)
        losses = [ErrorLoss(), AbsoluteLoss(), QuadraticLoss(), HellingerLoss(), AlphaLoss(2.0),
                  LogLoss()]
        schemes = [ConstantScheme(0), MajorityVoteScheme(2)]

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.lists(coin | chain, min_size=2, max_size=3),
                          st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
                          st.integers(0, 2), st.integers(1, 12), st.integers(0, 2**31 - 1))
        def check(components, raw_weights, true_index, horizon, seed):
            w = np.array(raw_weights[:len(components)])
            mix = MixtureModel(components, w / w.sum())
            mc = monte_carlo_evaluate(mix, true_index % len(components), losses, horizon,
                                      samples=100, seed=seed, schemes=schemes)
            for r in _every_check(mc):
                if r.bound_id not in _WIDENS["kl"]:
                    assert (r.tolerance, r.mode) == (_base_tolerance(r), "exact"), r.bound_id
                    assert r.passed, r.line()

        check()


class TestLossChecks:
    def test_all_pass_on_three_coins(self, three_coin_report):
        for label in ("error", "quadratic"):
            results = check_loss_bounds(three_coin_report, label)
            assert all(r.passed for r in results), [r.line() for r in results if not r.passed]

    def test_regret_chain_values(self, three_coin_report):
        by_id = {r.bound_id: r for r in check_loss_bounds(three_coin_report, "error")}
        gap = (three_coin_report.total("mixture_loss[error]")
               - three_coin_report.total("informed_loss[error]"))
        assert gap >= 0
        kl = three_coin_report.total("kl")
        l_inf = three_coin_report.total("informed_loss[error]")
        form1 = kl + math.sqrt(4 * l_inf * kl + kl * kl)
        assert by_id["regret-bound-sqrt-form[error]"].rhs == pytest.approx(form1, abs=1e-12)
        assert by_id["regret-bound-form-chain[error]"].passed

    def test_alternative_scheme_certificates(self, three_coin_report):
        by_id = {r.bound_id: r for r in check_loss_bounds(three_coin_report, "error")}
        for scheme in ("constant-0", "majority-vote"):
            assert by_id[f"informed-optimality[error|{scheme}]"].passed
            assert by_id[f"no-scheme-much-better[error|{scheme}]"].passed

    def test_unbounded_loss_routed_away(self, three_coin_report):
        with pytest.raises(ValueError, match="unbounded"):
            check_loss_bounds(three_coin_report, "log")

    def test_logloss_identity_exact(self, three_coin_report, collapse_report):
        assert check_logloss_identity(three_coin_report, "log").lhs <= 1e-9
        r = check_logloss_identity(collapse_report, "log")
        assert r.passed
        # both sides equal log 2 on the collapse preset
        gap = (collapse_report.total("mixture_loss[log]")
               - collapse_report.total("informed_loss[log]"))
        assert gap == pytest.approx(math.log(2), abs=1e-12)

    def test_trivial_mixture_has_zero_gap(self):
        mix = MixtureModel([BernoulliMeasure(0.4)], [1.0])
        rep = exact_evaluate(mix, 0, [ErrorLoss()], 5)
        results = check_loss_bounds(rep, "error")
        assert all(r.passed for r in results)
        by_id = {r.bound_id: r for r in results}
        assert by_id["regret-nonneg[error]"].slack == pytest.approx(0.0, abs=1e-15)


class TestPlateauChecks:
    def test_finite_loss_cap_and_plateau(self, plateau_report):
        results = check_loss_bounds(plateau_report, "matrix")
        by_id = {r.bound_id: r for r in results}
        cap = by_id["finite-loss-cap[matrix]"]
        assert cap.passed
        assert cap.rhs == pytest.approx(2 * math.log(10), abs=1e-12)
        # the rescaled asymmetric loss plateaus at exactly 2/3
        assert cap.lhs == pytest.approx(2 / 3, abs=1e-12)
        plate = by_id["loss-plateau[matrix]"]
        assert plate.passed
        assert plate.lhs == 0.0  # increments vanish exactly once the posterior locks on

    def test_plateau_emitted_only_for_deterministic_truth(self, three_coin_report):
        ids = [r.bound_id for r in check_loss_bounds(three_coin_report, "error")]
        assert not any(i.startswith("finite-loss-cap") for i in ids)

    def test_plateau_helper_detects_unsettled_series(self):
        mix = MixtureModel([DeterministicMeasure.from_pattern([0, 1]), BernoulliMeasure(0.5)],
                           [0.1, 0.9])
        rep = exact_evaluate(mix, 0, [MatrixLoss([[0, 1], [3, 0]])], 3)
        plate = [r for r in check_finite_loss_plateau(rep, "matrix")
                 if r.bound_id.startswith("loss-plateau")][0]
        assert not plate.passed  # the series still climbs inside the final quarter


class TestInstantChecks:
    def test_hand_case_half_vs_quarter(self):
        # true (1/2, 1/2), mixture (1/4, 3/4), error loss: both predict through
        # the threshold, so the regret is 0 <= abs distance 1/2 <= sqrt(2 kl)
        dist = instant_distances([0.5, 0.5], [0.25, 0.75])
        values = {k: np.array([v]) for k, v in dataclasses.asdict(dist).items()}
        values.update({"ratio_term": np.zeros(1), "mixture_loss[error]": np.array([0.5]),
                       "informed_loss[error]": np.array([0.5])})
        checks = InstantChecks(["error"])
        checks(1, np.ones(1), np.ones(1), values, lambda i: [])
        mix = MixtureModel([BernoulliMeasure(0.5)], [1.0])
        rep = exact_evaluate(mix, 0, [ErrorLoss()], 1)
        results = check_instant_bounds(checks, rep, "error") + check_instant_distance_bounds(checks)
        by_id = {r.bound_id: r for r in results}
        assert by_id["instant-regret-nonneg[error]"].rhs == pytest.approx(0.0, abs=1e-15)
        assert by_id["instant-regret<=abs[error]"].rhs == pytest.approx(0.5, abs=1e-15)
        assert by_id["instant-abs<=sqrt-2kl"].rhs == pytest.approx(
            math.sqrt(2 * dist.kl), abs=1e-15)
        assert all(r.passed for r in results)

    def test_exhaustive_chains_on_three_coins(self, three_coin_report):
        results = check_instant_bounds(three_coin_report.records, three_coin_report, "error")
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        agg = [r for r in results if r.bound_id.startswith("squared-regret-sum")][0]
        assert agg.rhs == pytest.approx(2 * three_coin_report.total("kl"), abs=1e-12)
        # minimal-slack locations are reported
        assert all(r.location for r in results if "instant" in r.bound_id)

    def test_collapse_chains_hit_equality(self, collapse_report):
        by_id = {r.bound_id: r for r in
                 check_instant_bounds(collapse_report.records, collapse_report, "error")}
        # at t=1 the regret equals the absolute distance exactly (both 1)
        assert abs(by_id["instant-regret<=abs[error]"].slack) <= 1e-12
        assert by_id["instant-regret<=abs[error]"].location == "t=1 history=(empty)"

    def test_locations_on_large_alphabets_read_apart(self):
        # (1, 11) and (11, 1) would both run together as "111"; node ``worst``
        # has the smallest absdiv-minus-kl<=abs slack
        histories = [[1, 11], [11, 1], [1, 2]]

        def location(worst):
            values = {k: np.full(3, 0.5) for k in ("absolute", "kl", "abs_divergence")}
            values["abs_divergence"][worst] = 0.75
            checks = InstantChecks([])
            checks(3, np.full(3, 1 / 3), np.ones(3), values, histories.__getitem__)
            return check_instant_distance_bounds(checks)[0].location

        assert [location(i) for i in range(3)] == [
            "t=3 history=1,11", "t=3 history=11,1", "t=3 history=12"]

    def test_distance_sandwich(self, three_coin_report):
        results = check_instant_distance_bounds(three_coin_report.records)
        assert all(r.passed for r in results)

    def test_unbounded_loss_rejected(self, three_coin_report):
        with pytest.raises(ValueError, match="unbounded"):
            check_instant_bounds(three_coin_report.records, three_coin_report, "log")


def _reference_instant_checks(levels, labels):
    """The per-node loop in Python floats over the rows of each kept level:
    each chain's (lhs, rhs, location) at its first minimal-slack node, and
    each label's left-to-right squared-regret sum."""
    best, agg = {}, {label: 0.0 for label in labels}
    for rec in levels:
        for i in range(rec.weights.size):
            v = {k: float(a[i]) for k, a in rec.values.items()}
            sep = "," if any(s >= 10 for s in rec.histories[i]) else ""
            hist = sep.join(str(int(s)) for s in rec.histories[i]) or "(empty)"
            d, a = v["kl"], v["absolute"]
            chains = {"instant-absdiv-minus-kl<=abs": (v["abs_divergence"] - d, a),
                      "instant-abs<=sqrt-2kl": (a, math.sqrt(max(2.0 * d, 0.0)))}
            for label in labels:
                l_inf = v[f"informed_loss[{label}]"]
                gap = v[f"mixture_loss[{label}]"] - l_inf
                chains[f"instant-regret-nonneg[{label}]"] = (0.0, gap)
                chains[f"instant-regret<=abs[{label}]"] = (gap, a)
                chains[f"instant-regret<=kl-form[{label}]"] = (
                    gap, 2.0 * d + 2.0 * math.sqrt(max(l_inf * d, 0.0)))
                agg[label] += float(rec.weights[i]) * gap * gap
            for bound_id, (lhs, rhs) in chains.items():
                if bound_id not in best or rhs - lhs < best[bound_id][0]:
                    best[bound_id] = (rhs - lhs, lhs, rhs, f"t={rec.step} history={hist}")
    return {k: v[1:] for k, v in best.items()}, agg


class TestInstantChecksMatchPerNodeLoop:
    @pytest.mark.parametrize("fixture", ["three_coin_report", "collapse_report",
                                         "plateau_report", "three_symbol_report"])
    def test_bit_for_bit(self, fixture, request):
        report = request.getfixturevalue(fixture)
        labels = [lab for lab, loss in report.losses.items() if loss.bounded]
        chains, agg = _reference_instant_checks(report.records.kept, labels)
        results = check_instant_distance_bounds(report.records)
        for label in labels:
            got = check_instant_bounds(report.records, report, label)
            assert got[-1].lhs.hex() == agg[label].hex()
            results += got[:-1]
        assert len(results) == len(chains)
        for r in results:
            lhs, rhs, location = chains[r.bound_id]
            assert (r.lhs.hex(), r.rhs.hex(), r.location) == (lhs.hex(), rhs.hex(), location), r.bound_id

    def test_ties_go_to_the_first_node_of_the_earliest_level(self):
        # regret slacks: 0.25 | 0.5 0.125 0.125 | 0.125 0.1875, fed straight
        # to the accumulator; node i's history is i repeated
        checks = _KeepingChecks(["error"])
        for step, gaps in ((1, [0.25]), (2, [0.5, 0.125, 0.125]), (3, [0.125, 0.1875])):
            n = len(gaps)
            values = {k: np.full(n, 0.5) for k in ("absolute", "kl", "abs_divergence")}
            values["mixture_loss[error]"] = np.array(gaps)
            values["informed_loss[error]"] = np.zeros(n)
            checks(step, np.full(n, 1.0 / n), np.ones(n), values, lambda i, step=step: [i] * (step - 1))
        assert len(checks) == 3
        rep = exact_evaluate(MixtureModel([BernoulliMeasure(0.5)], [1.0]), 0, [ErrorLoss()], 1)
        by_id = {r.bound_id: r for r in check_instant_bounds(checks, rep, "error")}
        assert by_id["instant-regret-nonneg[error]"].location == "t=2 history=1"
        assert by_id["instant-regret<=abs[error]"].location == "t=2 history=0"
        chains, _ = _reference_instant_checks(checks.kept, ["error"])
        for bound_id, r in by_id.items():
            if bound_id in chains:
                assert (r.lhs, r.rhs, r.location) == chains[bound_id], bound_id


class TestInstantChecksNaN:
    """An underflowed mixture makes KL and the absolute divergence inf, so a
    chain's slack is NaN: it must fail where it happens, however small the
    numbers around it, and without a numpy warning."""

    @staticmethod
    def _fed(levels):
        # node i of level ``step`` has history (i,) * (step - 1); absolute
        # is 0.5 and the absolute divergence twice the KL b, so a slack is
        # 0.5 - b where b is finite and NaN where it is inf
        checks = InstantChecks([])
        for step, divergences in enumerate(levels, 1):
            b = np.array(divergences, dtype=float)
            values = {"absolute": np.full(b.size, 0.5), "kl": b, "abs_divergence": 2.0 * b}
            checks(step, np.full(b.size, 1.0 / b.size), np.ones(b.size), values,
                   lambda i, step=step: [i] * (step - 1))
        return check_instant_distance_bounds(checks)[0]

    @pytest.mark.parametrize("levels, location", [
        ([[0.25], [math.inf], [0.25]], "t=2 history=0"),
        ([[0.25], [math.inf], [3.0]], "t=2 history=0"),
        ([[0.25], [0.25, math.inf], [0.25]], "t=2 history=1"),
        ([[0.25], [math.inf, 0.25], [0.25, 0.25]], "t=2 history=0"),
    ])
    def test_a_nan_slack_after_the_first_level_fails_there(self, levels, location, recwarn):
        result = self._fed(levels)
        assert not result.passed and math.isnan(result.slack)
        assert result.location == location
        assert not recwarn.list

    def test_an_underflowed_mixture_fails_at_its_history(self, recwarn):
        # xi(1|0) underflows to 0 while the truth gives it 1e-320
        truth = MarkovMeasure([[1 - 1e-320, 1e-320], [0.5, 0.5]], initial=[0.5, 0.5])
        other = MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], initial=[0.5, 0.5])
        checks = InstantChecks(["error"])
        exact_evaluate(MixtureModel([truth, other], [1e-4, 1 - 1e-4]), 0, {"error": ErrorLoss()}, 3,
                       observer=checks)
        result = check_instant_distance_bounds(checks)[0]
        assert result.bound_id == "instant-absdiv-minus-kl<=abs"
        assert not result.passed and math.isnan(result.slack)
        assert result.location == "t=2 history=0"
        assert not recwarn.list


class TestProofInequalities:
    def test_point_values_entropy_term_vanishes_on_diagonal(self):
        vals = proof_inequality_values(InequalityPoint(1.0, 2.0, 0.5, 0.5))
        assert vals["f1"] == pytest.approx(0.5, abs=1e-15)

    def test_single_point_sanity(self):
        vals = proof_inequality_values(InequalityPoint(2.0, 1.5, 0.9, 0.1))
        assert vals["f1"] == pytest.approx(3.5277824880057733, abs=1e-12)
        assert vals["f1"] > 0

    def test_reduced_form_boundary_value(self):
        # g1 at z -> 0 approaches (AB - 1) * (B + 1)
        for a_const, b_const in ((1.0, 2.0), (0.5, 3.0), (4.0, 1.25)):
            vals = proof_inequality_values(InequalityPoint(a_const, b_const, 0.5, 1e-9))
            want = (a_const * b_const - 1.0) * (b_const + 1.0)
            assert vals["g1"] == pytest.approx(want, rel=1e-6)

    def test_reduced_quadratic_boundary_terms_nonneg_for_both_rules(self):
        # the z/(1-z) -> 1 reduction of the extremal expression is checked at
        # its two boundary values; both need A*B >= 1, true under both rules
        for rule in B_RULES.values():
            for a in np.geomspace(0.1, 10, 41):
                b = rule(a)
                assert (a * b - 1.0) * (a + b + 2.0) >= -1e-12
                assert 0.5 * (a * b - 1.0) * (2 * a + b + 3.0) >= -1e-12

    def test_reduced_forms_nonnegative_on_their_branches(self):
        zs_lo = np.linspace(1e-6, 0.5, 2001)
        zs_hi = np.linspace(0.5, 1 - 1e-6, 2001)
        for rule in B_RULES.values():
            for a in (0.1, 0.5, 1.0, 2.0, 4.0, 10.0):
                b = rule(a)
                g1 = [proof_inequality_values(InequalityPoint(a, b, 0.5, z))["g1"] for z in zs_lo[::100]]
                g2 = [proof_inequality_values(InequalityPoint(a, b, 0.5, z))["g2"] for z in zs_hi[::100]]
                assert min(g1) >= -1e-12
                assert min(g2) >= -1e-12

    def test_half_boundary_lower_bound_pointwise(self):
        # f1(y, 1/2) >= 2 B'(y - 1/2)^2 + A'(1 - y) - y on the y grid
        ys = np.linspace(1e-4, 1 - 1e-4, 201)
        for a_const, b_const in ((0.5, 3.0), (1.0, 2.0), (4.0, 2.0)):
            ap, bp = a_const + 1, b_const + 1
            for y in ys:
                f1 = proof_inequality_values(InequalityPoint(a_const, b_const, float(y), 0.5))["f1"]
                assert f1 >= 2 * bp * (y - 0.5) ** 2 + ap * (1 - y) - y - 1e-12

    def test_blowup_trend_toward_boundaries(self):
        f1 = [proof_inequality_values(InequalityPoint(1.0, 2.0, 0.5, z))["f1"]
              for z in (1e-2, 1e-4, 1e-6)]
        assert f1[0] < f1[1] < f1[2]
        f2 = [proof_inequality_values(InequalityPoint(1.0, 2.0, 0.5, 1 - z))["f2"]
              for z in (1e-2, 1e-4, 1e-6)]
        assert f2[0] < f2[1] < f2[2]

    def test_endpoint_domain_errors(self):
        with pytest.raises(ValueError):
            InequalityPoint(1.0, 2.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            InequalityPoint(1.0, 2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            InequalityPoint(-1.0, 2.0, 0.5, 0.5)

    @pytest.mark.parametrize("const", [0.0, -1.0, math.nan])
    def test_a_const_must_be_positive(self, const):
        with pytest.raises(ValueError, match="a_const must be > 0"):
            InequalityPoint(const, 2.0, 0.5, 0.5)
        # and so must b_const
        with pytest.raises(ValueError, match="b_const must be > 0"):
            InequalityPoint(1.0, const, 0.5, 0.5)


def _full_grid_reference(rule, a_values, grid_points, edge_margin=1e-4):
    """The full-grid loop that masked each inequality's other half of z away;
    returns [(rhs, location)] for f1 and f2."""
    ys = np.linspace(edge_margin, 1.0 - edge_margin, grid_points)
    zs = np.linspace(edge_margin, 1.0 - edge_margin, grid_points)
    y_mat, z_mat = np.meshgrid(ys, zs, indexing="ij")
    rel = y_mat * np.log(y_mat / z_mat) + (1.0 - y_mat) * np.log((1.0 - y_mat) / (1.0 - z_mat))
    lo_mask = z_mat <= 0.5
    hi_mask = z_mat >= 0.5
    best = {"f1": (math.inf, None), "f2": (math.inf, None)}
    for a in a_values:
        ap, bp = float(a) + 1.0, rule(float(a)) + 1.0
        f1 = bp * rel + ap * (1.0 - y_mat) * z_mat / (1.0 - z_mat) - y_mat
        f2 = bp * rel + ap * (1.0 - y_mat) - y_mat * (1.0 - z_mat) / z_mat
        for name, vals, mask in (("f1", f1, lo_mask), ("f2", f2, hi_mask)):
            masked = np.where(mask, vals, np.inf)
            idx = np.unravel_index(int(np.argmin(masked)), masked.shape)
            v = float(masked[idx])
            if v < best[name][0]:
                best[name] = (v, (float(a), float(ys[idx[0]]), float(zs[idx[1]])))
    out = []
    for name, branch in (("f1", "z<=1/2"), ("f2", "z>=1/2")):
        v, (a, y, z) = best[name]
        out.append((v.hex(), f"A={a:.6g} y={y:.6g} z={z:.6g} ({branch})"))
    return out


def _b_quarter(a):
    return 0.25 * a + 0.5


class TestHalfGridMatchesFullGrid:
    # grid 31 has no z = 1/2 column (16 columns below it, 15 above); on grid
    # 51 the z = 1/2 column belongs to both branches; grid 2 is the smallest
    @pytest.mark.parametrize("grid_points, split", [(31, (16, 15)), (51, (26, 26)), (2, (1, 1))])
    @pytest.mark.parametrize("b_rule", [*B_RULES, 0.01, 2.0, _b_quarter])
    def test_bit_for_bit(self, b_rule, grid_points, split):
        zs = np.linspace(1e-4, 1.0 - 1e-4, grid_points)
        assert (int(np.sum(zs <= 0.5)), int(np.sum(zs >= 0.5))) == split
        if isinstance(b_rule, str):
            rule = B_RULES[b_rule]
        elif callable(b_rule):
            rule = b_rule
        else:
            rule = lambda a: float(b_rule)  # noqa: E731
        a_values = np.geomspace(0.1, 10.0, 41)
        got = grid_verify_proof_inequalities(b_rule, a_values=a_values, grid_points=grid_points)
        assert [(r.rhs.hex(), r.location) for r in got] == \
            _full_grid_reference(rule, a_values, grid_points)

    def test_ties_go_to_the_first_cell_in_y_major_order(self, monkeypatch):
        ys = np.linspace(1e-4, 1.0 - 1e-4, 11)

        def tied_f1(ap, bp, *, y, z, **_):
            # (y0, z2) is the first minimum in y-major order, (y1, z0) in z-major order
            hit = ((y == ys[0]) & (z == ys[2])) | ((y == ys[1]) & (z == ys[0]))
            return np.where(hit, -1.0, 0.0)

        monkeypatch.setattr(bounds, "_f1", tied_f1)
        f1 = grid_verify_proof_inequalities("1/A+1", a_values=[1.0, 2.0], grid_points=11)[0]
        assert f1.location == f"A=1 y={ys[0]:.6g} z={ys[2]:.6g} (z<=1/2)"


class TestGridVerification:
    def test_both_rules_pass_on_a_coarse_grid(self):
        for rule in B_RULES:
            results = grid_verify_proof_inequalities(rule, grid_points=51)
            assert [r.passed for r in results] == [True, True]
            assert all(r.tolerance == 1e-12 for r in results)

    def test_subthreshold_constant_fails_with_located_minimum(self):
        results = grid_verify_proof_inequalities(0.01, a_values=[1.0], grid_points=101)
        f1 = results[0]
        assert not f1.passed
        assert f1.rhs < -0.3
        assert "z=0.5" in f1.location

    def test_callable_rule(self):
        results = grid_verify_proof_inequalities(lambda a: 1.0 / a + 1.0,
                                                 a_values=[0.5, 2.0], grid_points=31)
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("kwargs", [
        {"a_values": []}, {"a_values": [1.0, 0.0]}, {"a_values": [-1.0]},
        {"a_values": [float("nan")]}, {"grid_points": 1}, {"edge_margin": 0.0},
        {"edge_margin": 0.5}, {"edge_margin": -0.1}, {"edge_margin": float("nan")},
    ])
    def test_invalid_grid_raises_naming_the_keyword(self, kwargs):
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} "):
            grid_verify_proof_inequalities("1/A+1", **kwargs)

    @pytest.mark.parametrize("b", [-1.0, 0.0])
    def test_rule_at_or_below_zero_raises_at_its_first_a(self, b):
        def rule(a):
            return b if a >= 2.0 else 1.0 / a + 1.0

        with pytest.raises(ValueError, match=f"^b_rule must give B > 0, got B={b} at A=2.0$"):
            grid_verify_proof_inequalities(rule, a_values=[1.0, 2.0, 3.0], grid_points=11)

    @pytest.mark.parametrize("b", [-5.0, 0.0, math.nan])
    def test_constant_not_above_zero_raises(self, b):
        with pytest.raises(ValueError, match=f"^b_rule must be > 0, got {b}$"):
            grid_verify_proof_inequalities(b, a_values=[1.0], grid_points=11)

    def test_nan_cell_fails_at_its_first_location(self):
        def rule(a):
            return math.nan if a == 2.0 else 1.0 / a + 1.0

        results = grid_verify_proof_inequalities(rule, a_values=[1.0, 2.0, 3.0], grid_points=11)
        assert [r.passed for r in results] == [False, False]
        assert all(math.isnan(r.rhs) and r.location.startswith("A=2 y=0.0001 ") for r in results)

    def test_reproducible_results(self):
        a = grid_verify_proof_inequalities("1/A+1", grid_points=31)
        b = grid_verify_proof_inequalities("1/A+1", grid_points=31)
        assert [(r.lhs, r.rhs, r.location) for r in a] == [(r.lhs, r.rhs, r.location) for r in b]
