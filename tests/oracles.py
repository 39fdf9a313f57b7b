"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes quantities from first principles -- exhaustive
enumeration in exact rational (or plain linear float) arithmetic, closed
forms typed in directly, each measure family's conditional from its
definition, a loss's Bayes action by scanning the action space -- and
deliberately shares no code with the package paths it checks; it reads
only the measures' parameters and the losses' elementwise values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from seqpred.losses import MatrixLoss
from seqpred.measures import (BernoulliMeasure, DeterministicMeasure, ExplicitTableMeasure,
                              MarkovMeasure, TimeVaryingBinaryMeasure)


def reference_conditional(measure, history) -> np.ndarray:
    """The next-symbol distribution of a shipped measure family after
    ``history``, written from the family's definition and read from its
    parameters alone.  On a history of probability 0 it gives the vector
    the family states there: the same row as ever for the history-free
    families, the uniform row for a table history the table lacks."""
    h = tuple(int(x) for x in history)
    n = measure.alphabet.size
    if isinstance(measure, BernoulliMeasure):
        return np.array([1.0 - measure.theta, measure.theta])
    if isinstance(measure, TimeVaryingBinaryMeasure):
        p = float(measure.rule(len(h) + 1))
        return np.array([1.0 - p, p])
    if isinstance(measure, DeterministicMeasure):
        return np.eye(n)[measure.generator(len(h) + 1)]
    if isinstance(measure, MarkovMeasure):
        if len(h) < measure.order:
            return measure.initial
        return measure.transitions[h[len(h) - measure.order:]]
    if isinstance(measure, ExplicitTableMeasure):
        return measure.table.get(h, np.full(n, 1.0 / n))
    raise TypeError(f"no reference conditional for {measure!r}")


def bernoulli_marginal(theta: Fraction, symbols) -> Fraction:
    p = Fraction(1)
    for x in symbols:
        p *= theta if x == 1 else 1 - theta
    return p


def _informed_vec(theta: Fraction) -> tuple[Fraction, Fraction]:
    return (1 - theta, theta)


def _action_and_loss(name, post, true_vec):
    """Closed-form Bayes action for ``post`` and its expected loss under
    ``true_vec``; exact-rational threshold comparisons, ties to action 0."""
    p0, p1 = post
    t0, t1 = float(true_vec[0]), float(true_vec[1])
    if name in ("error", "absolute"):
        act = 1 if p1 > Fraction(1, 2) else 0
        return float(true_vec[1 - act])
    if name == "quadratic":
        y = float(p1)
        return t0 * y * y + t1 * (1.0 - y) ** 2
    if name == "hellinger":
        y = float(p1 * p1 / (p0 * p0 + p1 * p1))
        return t0 * (1.0 - math.sqrt(1.0 - y)) + t1 * (1.0 - math.sqrt(y))
    if name == "log":
        y = float(p1)
        out = 0.0
        if t0 > 0.0:
            out -= t0 * math.log(1.0 - y)
        if t1 > 0.0:
            out -= t1 * math.log(y)
        return out
    raise KeyError(name)

LOSS_NAMES = ("error", "absolute", "quadratic", "hellinger", "log")


def enumerate_bernoulli_mixture(thetas, weights, true_index, horizon):
    """Exhaustive per-step expectations for a mixture of Bernoulli coins.

    Marginals and conditionals are exact rationals; transcendental terms are
    evaluated in float on those rationals.  Returns per-step expectation
    lists for the five distances + ratio term, per-loss informed/mixture
    totals, the tie mass (true-measure weight of histories whose mixture
    posterior sits exactly on the 1/2 threshold), and the directly-computed
    expected full-string log-ratio.
    """
    thetas = [Fraction(t) for t in thetas]
    weights = [Fraction(w) for w in weights]
    mu = thetas[true_index]

    def mixture_marginal(symbols) -> Fraction:
        return sum(w * bernoulli_marginal(t, symbols) for w, t in zip(weights, thetas))

    series = {k: [0.0] * horizon for k in
              ("absolute", "square", "hellinger", "kl", "abs_divergence", "ratio_term")}
    loss_tot = {name: {"mixture": 0.0, "informed": 0.0} for name in LOSS_NAMES}
    tie_mass = Fraction(0)

    for t in range(1, horizon + 1):
        for hist in product((0, 1), repeat=t - 1):
            wh = bernoulli_marginal(mu, hist)
            if wh == 0:
                continue
            mix_h = mixture_marginal(hist)
            mix = [mixture_marginal(hist + (x,)) / mix_h for x in (0, 1)]
            true = _informed_vec(mu)
            tf = [float(v) for v in true]
            zf = [float(v) for v in mix]
            w = float(wh)
            series["absolute"][t - 1] += w * sum(abs(tf[i] - zf[i]) for i in range(2))
            series["square"][t - 1] += w * sum((tf[i] - zf[i]) ** 2 for i in range(2))
            series["hellinger"][t - 1] += w * sum(
                (math.sqrt(tf[i]) - math.sqrt(zf[i])) ** 2 for i in range(2))
            series["kl"][t - 1] += w * sum(
                tf[i] * math.log(tf[i] / zf[i]) for i in range(2) if tf[i] > 0)
            series["abs_divergence"][t - 1] += w * sum(
                tf[i] * abs(math.log(tf[i] / zf[i])) for i in range(2) if tf[i] > 0)
            series["ratio_term"][t - 1] += w * sum(
                (math.sqrt(zf[i]) - math.sqrt(tf[i])) ** 2 for i in range(2) if tf[i] > 0)
            if mix[1] == Fraction(1, 2):
                tie_mass += wh
            for name in LOSS_NAMES:
                loss_tot[name]["mixture"] += w * _action_and_loss(name, mix, true)
                loss_tot[name]["informed"] += w * _action_and_loss(name, true, true)

    kl_direct = 0.0
    for full in product((0, 1), repeat=horizon):
        m = bernoulli_marginal(mu, full)
        if m > 0:
            kl_direct += float(m) * math.log(float(m) / float(mixture_marginal(full)))

    return {
        "per_step": series,
        "totals": {k: math.fsum(v) for k, v in series.items()},
        "losses": loss_tot,
        "tie_mass": float(tie_mass),
        "kl_direct": kl_direct,
    }


def counterexample_offsymbol_ratio(horizon):
    """Closed-walk evaluation of the mixture/true conditional ratio at
    symbol 1 along the all-zeros path for the (1/2 t^-3, 1/2 t^-2) pair."""
    log_true = 0.0
    log_other = 0.0
    out = []
    for t in range(1, horizon + 1):
        p_true = 0.5 * t**-3.0
        p_other = 0.5 * t**-2.0
        num = 0.5 * math.exp(log_true) * p_true + 0.5 * math.exp(log_other) * p_other
        den = 0.5 * math.exp(log_true) + 0.5 * math.exp(log_other)
        out.append((num / den) / p_true)
        log_true += math.log1p(-p_true)
        log_other += math.log1p(-p_other)
    return out


def distance_terms(y, z):
    """Per-symbol terms of the five distances and the ratio term for
    row-aligned (M, N) arrays, each computed elementwise in numpy."""
    diff = y - z
    gap = np.sqrt(y) - np.sqrt(z)
    ratio_gap = np.sqrt(z) - np.sqrt(y)
    infinite = (y > 0.0) & (z == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where((y > 0.0) & ~infinite, np.log(y / z), 0.0)
    return {"absolute": np.abs(diff), "square": diff * diff, "hellinger": gap * gap,
            "kl": np.where(infinite, np.inf, y * log_ratio),
            "abs_divergence": np.where(infinite, np.inf, y * np.abs(log_ratio)),
            "ratio_term": np.where(y > 0.0, ratio_gap * ratio_gap, 0.0)}


def left_to_right_row_sums(terms) -> list[float]:
    """Row sums of an (M, N) array in Python floats, ((t0 + t1) + t2) + ...,
    whatever order numpy's own reductions use."""
    sums = []
    for row in terms.tolist():
        acc = row[0]
        for v in row[1:]:
            acc = acc + v
        sums.append(acc)
    return sums


def posterior_weights(mixture, history) -> np.ndarray:
    """Per-component posterior mass w_k nu_k(h) / xi(h) of a mixture of
    shipped measure families: products of ``reference_conditional`` along
    ``history``, in linear floats, so only for short histories."""
    h = [int(x) for x in history]
    likelihoods = [math.prod(float(reference_conditional(c, h[:i])[x]) for i, x in enumerate(h))
                   for c in mixture.components]
    joint = mixture.weights * np.array(likelihoods)
    if joint.sum() == 0.0:
        raise ValueError(f"history {h} has zero probability under the mixture")
    return joint / joint.sum()


class DegenerateLossError(ValueError):
    """A 2x2 loss matrix in which one prediction direction never matters."""


def threshold_gamma(matrix) -> float:
    """Threshold for the binary Bayes rule under a 2x2 matrix loss.

    The action rule predicts 1 exactly when rho1 exceeds

        gamma = (l01 - l00) / (l01 - l00 + l10 - l11).

    Raises DegenerateLossError when the denominator is <= 0, i.e. when one
    prediction direction can never be preferred.
    """
    m = matrix.matrix if isinstance(matrix, MatrixLoss) else np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("threshold_gamma needs a 2x2 loss matrix")
    num = m[0, 1] - m[0, 0]
    den = (m[0, 1] - m[0, 0]) + (m[1, 0] - m[1, 1])
    if den <= 0:
        raise DegenerateLossError(f"degenerate 2x2 loss: threshold denominator {den} <= 0")
    return float(num / den)


def grid_bayes_action(loss, posterior, resolution: float = 1e-5):
    """Minimize the expected loss by scanning the action space directly.

    For matrix losses this scans the columns; for continuous losses it scans
    y = 0, resolution, ..., 1.  Ties go to the first (smallest) candidate.
    The posterior passes the loss's own check; the scan reads only the
    loss's elementwise values, never its closed-form action rule.
    """
    p = loss._validated(posterior)
    if isinstance(loss, MatrixLoss):
        expected = p @ loss.matrix
        return int(np.argmin(expected))
    ys = np.arange(0.0, 1.0 + resolution / 2, resolution)
    ys[-1] = 1.0
    expected = np.zeros_like(ys)
    for x, mass in enumerate(p):
        if mass > 0.0:
            expected += mass * loss.loss(x, ys)
    return float(ys[int(np.argmin(expected))])
