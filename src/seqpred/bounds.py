"""Numerical certification of the convergence and loss bounds.

Every check is an inequality lhs <= rhs evaluated on concrete run output and
reported with its signed slack (rhs - lhs).  A check passes when
slack >= -tolerance.  Exact-engine checks use an absolute tolerance of 1e-9
(roundoff accumulated over up to 2^24 node visits); direct closed-form grid
checks use 1e-12.  Checks applied to Monte Carlo reports widen the tolerance
by three standard errors of the estimated sides and are flagged
"statistical".

Certified families:

* convergence: cumulative square <= cumulative KL <= log(1/true weight);
  cumulative ratio-term sum <= cumulative Hellinger <= cumulative KL;
  the absolute-vs-KL sandwich and its sqrt(2 n KL) cap; the telescoping
  identity between summed per-step KL and the full-string log-ratio
  expectation; and the deviation-count rate (number of steps with expected
  square distance above eps^2 is at most KL/eps^2).
* loss: non-negative regret of the mixture predictor; the two regret bound
  forms and their chain; the expectation form of the absolute-distance
  regret bound; certificates against alternative schemes; and, for a
  deterministic truth with a zero-loss action per outcome, the finite-loss
  cap with plateau detection.
* log-loss: the exact regret == cumulative-KL identity.
* instantaneous: per-history regret chains (through the absolute distance
  and through the KL with the informed loss) and the aggregated
  squared-regret budget.  An ``InstantChecks`` accumulator observes the
  exact walk level by level: each chain's sides are arrays over one tree
  level's nodes, it keeps only each chain's running minimum and each loss's
  running squared-regret sum, and the reported location is the first node,
  in level then node order, with the smallest slack.
* proof inequalities: the two reduced binary inequality functions f1, f2
  (and their reduced polynomial forms g1, g2) verified over (A, y, z) grids
  for a given B(A) rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import TotalsReport

EXACT_TOL = 1e-9
GRID_TOL = 1e-12
PLATEAU_TOL = 1e-12
DEFAULT_DEVIATION_EPSILON = 0.1

B_RULES: dict[str, Callable[[float], float]] = {
    "1/A+1": lambda a: 1.0 / a + 1.0,
    "A/4+1/A": lambda a: a / 4.0 + 1.0 / a,
}


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of one certified inequality lhs <= rhs."""

    bound_id: str
    lhs: float
    rhs: float
    tolerance: float
    mode: str = "exact"          # "exact" | "statistical"
    location: str = ""

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        loc = f"  at {self.location}" if self.location else ""
        tag = "" if self.mode == "exact" else f"  [{self.mode}]"
        return (f"{status}  {self.bound_id}: lhs={self.lhs:.12g} rhs={self.rhs:.12g} "
                f"slack={self.slack:.12g} tol={self.tolerance:.3g}{tag}{loc}")

    def to_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "mode": self.mode,
            "location": self.location,
        }


def _stat(report: TotalsReport, base_tol: float, *keys: str) -> tuple[float, str]:
    """Tolerance and mode, widened by 3 SE of the named cumulative series."""
    if not report.is_statistical:
        return base_tol, "exact"
    se = sum(report.total_se(k) for k in keys if k in (report.se_cumulative or {}))
    return base_tol + 3.0 * se, "statistical"


# -- convergence ----------------------------------------------------------------

def check_convergence_bounds(report: TotalsReport, *,
                             deviation_epsilon: float = DEFAULT_DEVIATION_EPSILON,
                             tolerance: float = EXACT_TOL) -> list[BoundCheckResult]:
    """Certify the distance-total bounds and identities on one report."""
    n = report.horizon
    kl = report.total("kl")
    results = []

    tol, mode = _stat(report, tolerance, "square", "kl")
    results.append(BoundCheckResult("square-total<=kl-total", report.total("square"), kl, tol, mode))
    tol, mode = _stat(report, tolerance, "kl")
    results.append(BoundCheckResult("kl-total<=log-inv-weight", kl, report.log_inv_true_weight, tol, mode))
    tol, mode = _stat(report, tolerance, "ratio_term", "hellinger")
    results.append(BoundCheckResult("ratio-sum<=hellinger-total", report.total("ratio_term"),
                                    report.total("hellinger"), tol, mode))
    tol, mode = _stat(report, tolerance, "hellinger", "kl")
    results.append(BoundCheckResult("hellinger-total<=kl-total", report.total("hellinger"), kl, tol, mode))
    tol, mode = _stat(report, tolerance, "abs_divergence", "kl", "absolute")
    results.append(BoundCheckResult("absdiv-minus-kl<=abs-total",
                                    report.total("abs_divergence") - kl, report.total("absolute"), tol, mode))
    # sqrt(2 n KL) is nonlinear in the estimated KL: widen by re-evaluating
    # the (monotone) rhs at the 3-SE-shifted estimate
    rhs = math.sqrt(max(2.0 * n * kl, 0.0))
    rhs_hi = math.sqrt(max(2.0 * n * (kl + 3.0 * report.total_se("kl")), 0.0))
    tol = tolerance + (rhs_hi - rhs) + 3.0 * report.total_se("absolute")
    mode = "statistical" if report.is_statistical else "exact"
    results.append(BoundCheckResult("abs-total<=sqrt-2nkl", report.total("absolute"), rhs,
                                    tol if report.is_statistical else tolerance, mode))

    # telescoping identity: summed per-step KL == expected full-string log-ratio
    ident_tol = tolerance
    if report.is_statistical:
        ident_tol += 3.0 * (report.total_se("kl") + (report.kl_direct_se or 0.0))
    results.append(BoundCheckResult("kl-telescoping-identity",
                                    abs(kl - report.kl_direct), 0.0, ident_tol, mode))

    # deviation-count rate: #{t : E[square_t] > eps^2} <= KL/eps^2
    eps2 = deviation_epsilon**2
    count = float((report.per_step["square"] > eps2).sum())
    dev_tol = tolerance + (3.0 * report.total_se("kl") / eps2 if report.is_statistical else 0.0)
    results.append(BoundCheckResult("deviation-count", count, kl / eps2, dev_tol,
                                    mode, location=f"eps={deviation_epsilon}"))
    return results


# -- loss bounds ------------------------------------------------------------------

def check_loss_bounds(report: TotalsReport, label: str, *,
                      tolerance: float = EXACT_TOL) -> list[BoundCheckResult]:
    """Certify the regret bounds for one bounded loss in the report."""
    loss = report.losses[label]
    if not loss.bounded:
        raise ValueError(f"loss {label!r} is unbounded; use check_logloss_identity")
    n = report.horizon
    kl = report.total("kl")
    l_mix = report.total(f"mixture_loss[{label}]")
    l_inf = report.total(f"informed_loss[{label}]")
    gap = l_mix - l_inf
    mix_key, inf_key = f"mixture_loss[{label}]", f"informed_loss[{label}]"
    results = []

    tol, mode = _stat(report, tolerance, mix_key, inf_key)
    results.append(BoundCheckResult(f"regret-nonneg[{label}]", l_inf, l_mix, tol, mode))

    def form1(d, li):
        return d + math.sqrt(max(4.0 * li * d + d * d, 0.0))

    def form2(d, li):
        return 2.0 * d + 2.0 * math.sqrt(max(li * d, 0.0))

    # the rhs forms are monotone in both estimated totals: widen statistical
    # tolerances by re-evaluating them at the 3-SE-shifted estimates
    se_kl, se_inf = report.total_se("kl"), report.total_se(inf_key)
    se_gap = report.total_se(mix_key) + se_inf
    statistical = report.is_statistical
    mode = "statistical" if statistical else "exact"
    for name, fn in ((f"regret-bound-sqrt-form[{label}]", form1),
                     (f"regret-bound-2sqrt-form[{label}]", form2)):
        rhs = fn(kl, l_inf)
        tol = tolerance
        if statistical:
            tol += (fn(kl + 3.0 * se_kl, l_inf + 3.0 * se_inf) - rhs) + 3.0 * se_gap
        results.append(BoundCheckResult(name, gap, rhs, tol, mode))
    chain_tol = tolerance
    if statistical:
        chain_tol += (form2(kl + 3.0 * se_kl, l_inf + 3.0 * se_inf) - form2(kl, l_inf)) + \
                     (form1(kl + 3.0 * se_kl, l_inf + 3.0 * se_inf) - form1(kl, l_inf))
    results.append(BoundCheckResult(f"regret-bound-form-chain[{label}]",
                                    form1(kl, l_inf), form2(kl, l_inf), chain_tol, mode))
    tol, _ = _stat(report, tolerance, mix_key, inf_key, "absolute")
    results.append(BoundCheckResult(f"regret<=abs-total[{label}]", gap, report.total("absolute"), tol, mode))
    rhs = math.sqrt(max(2.0 * n * kl, 0.0))
    tol = tolerance
    if statistical:
        tol += (math.sqrt(max(2.0 * n * (kl + 3.0 * se_kl), 0.0)) - rhs) + 3.0 * se_gap
    results.append(BoundCheckResult(f"regret<=sqrt-2nkl[{label}]", gap, rhs, tol, mode))

    def certificate(lm, d):
        return lm - 2.0 * math.sqrt(max(lm * d, 0.0))

    se_mix = report.total_se(mix_key)
    for scheme in report.scheme_labels:
        alt_key = f"scheme_loss[{scheme}|{label}]"
        l_alt = report.total(alt_key)
        tol, _ = _stat(report, tolerance, inf_key, alt_key)
        results.append(BoundCheckResult(f"informed-optimality[{label}|{scheme}]", l_inf, l_alt, tol, mode))
        cert = certificate(l_mix, kl)
        tol = tolerance
        if statistical:
            corners = [certificate(l_mix + s * 3.0 * se_mix, kl + r * 3.0 * se_kl)
                       for s in (-1.0, 1.0) for r in (-1.0, 1.0)]
            tol += max(0.0, cert - min(corners)) + 3.0 * report.total_se(alt_key)
        results.append(BoundCheckResult(f"no-scheme-much-better[{label}|{scheme}]",
                                        cert, l_alt, tol, mode))

    if report.mu_is_deterministic and loss.has_zero_loss_action():
        results.extend(check_finite_loss_plateau(report, label, tolerance=tolerance))
    return results


def check_finite_loss_plateau(report: TotalsReport, label: str, *,
                              tolerance: float = EXACT_TOL) -> list[BoundCheckResult]:
    """Deterministic truth + a zero-loss action per outcome: the mixture
    predictor's total loss stays below twice log(1/true weight) and its
    series plateaus (finite-horizon surrogate for a finite-total claim)."""
    cum = report.cumulative[f"mixture_loss[{label}]"]
    cap = 2.0 * report.log_inv_true_weight
    worst_t = int(np.argmax(cum)) + 1
    tol, mode = _stat(report, tolerance, f"mixture_loss[{label}]")
    results = [BoundCheckResult(f"finite-loss-cap[{label}]", float(cum.max()), cap, tol, mode,
                                location=f"t={worst_t}")]
    tail = math.ceil(report.horizon / 4)
    increment = float(cum[-1] - cum[-tail - 1]) if tail < report.horizon else float(cum[-1])
    results.append(BoundCheckResult(f"loss-plateau[{label}]", increment, 0.0, PLATEAU_TOL, mode,
                                    location=f"last {tail} steps"))
    return results


def check_logloss_identity(report: TotalsReport, label: str, *,
                           tolerance: float = EXACT_TOL) -> BoundCheckResult:
    """|mixture regret - cumulative KL| == 0 for the log score."""
    gap = report.total(f"mixture_loss[{label}]") - report.total(f"informed_loss[{label}]")
    tol, mode = _stat(report, tolerance, f"mixture_loss[{label}]", f"informed_loss[{label}]", "kl")
    return BoundCheckResult(f"logloss-identity[{label}]", abs(gap - report.total("kl")), 0.0, tol, mode)


# -- instantaneous (per-history) bounds -------------------------------------------

def _sqrt_pos(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(x, 0.0))


class InstantChecks:
    """Per-history instantaneous chains, accumulated while the exact engine
    walks the tree: pass it as ``exact_evaluate``'s ``observer``.

    Per chain it keeps the smallest slack with its lhs, rhs and location;
    within a level the first node with the smallest slack counts, and a
    later level replaces it only with a strictly smaller slack.  Per loss it
    keeps the squared-regret sum, added left to right in level then node
    order.  ``len()`` is the number of levels observed.
    """

    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        self.levels = 0
        self._best: dict[str, tuple] = {}      # bound id -> (slack, lhs, rhs, location)
        self._squared = {label: 0.0 for label in self.labels}

    def __len__(self) -> int:
        return self.levels

    def __call__(self, step, weights, multiplicity, values, history) -> None:
        self.levels += 1
        d, a = values["kl"], values["absolute"]
        chains = {"instant-absdiv-minus-kl<=abs": (values["abs_divergence"] - d, a),
                  "instant-abs<=sqrt-2kl": (a, _sqrt_pos(2.0 * d))}
        for label in self.labels:
            l_inf = values[f"informed_loss[{label}]"]
            gap = values[f"mixture_loss[{label}]"] - l_inf
            chains[f"instant-regret-nonneg[{label}]"] = (np.zeros(gap.size), gap)
            chains[f"instant-regret<=abs[{label}]"] = (gap, a)
            chains[f"instant-regret<=kl-form[{label}]"] = (gap, 2.0 * d + 2.0 * _sqrt_pos(l_inf * d))
            # cumsum adds left to right, where sum and @ add pairwise and
            # would change the last bits
            self._squared[label] = np.cumsum(
                np.concatenate([[self._squared[label]], weights * gap * gap]))[-1]
        for bound_id, (lhs, rhs) in chains.items():
            slack = rhs - lhs
            i = int(np.argmin(slack))
            best = self._best.get(bound_id)
            if best is None or slack[i] < best[0]:
                h = "".join(map(str, history(i))) or "(empty)"
                self._best[bound_id] = (slack[i], float(lhs[i]), float(rhs[i]), f"t={step} history={h}")

    def result(self, chain: str, tolerance: float, bound_id: str | None = None) -> BoundCheckResult:
        """One chain at its minimal-slack history, reported as ``bound_id``."""
        _, lhs, rhs, location = self._best[chain]
        return BoundCheckResult(bound_id or chain, lhs, rhs, tolerance, "exact", location=location)

    def squared_regret_sum(self, label: str) -> float:
        return float(self._squared[label])


def check_instant_bounds(records: InstantChecks, report: TotalsReport,
                         label: str, *, tolerance: float = EXACT_TOL) -> list[BoundCheckResult]:
    """Per-history regret chains for one bounded loss, plus the aggregated
    squared-regret budget, from the accumulator that observed the exact
    walk.  Each chain is reported at its minimal-slack history so
    near-violations are reproducible."""
    loss = report.losses[label]
    if not loss.bounded:
        raise ValueError(f"loss {label!r} is unbounded; instantaneous chains assume losses in [0, 1]")
    # the abs <= sqrt(2 kl) chain is loss-free; each loss reports it under its own id
    results = [records.result(f"instant-regret-nonneg[{label}]", tolerance),
               records.result(f"instant-regret<=abs[{label}]", tolerance),
               records.result("instant-abs<=sqrt-2kl", tolerance, f"instant-abs<=sqrt-2kl[{label}]"),
               records.result(f"instant-regret<=kl-form[{label}]", tolerance)]
    results.append(BoundCheckResult(f"squared-regret-sum<=2kl[{label}]",
                                    records.squared_regret_sum(label),
                                    2.0 * report.total("kl"), tolerance, "exact"))
    return results


def check_instant_distance_bounds(records: InstantChecks, *,
                                  tolerance: float = EXACT_TOL) -> list[BoundCheckResult]:
    """Per-history absolute-distance sandwich (loss-free form)."""
    return [records.result("instant-absdiv-minus-kl<=abs", tolerance),
            records.result("instant-abs<=sqrt-2kl", tolerance)]


# -- proof inequalities ------------------------------------------------------------

@dataclass(frozen=True)
class InequalityPoint:
    """One evaluation point of the binary proof inequalities.

    ``a_const`` and ``b_const`` are the positive constants of the linear
    regret ansatz; y and z are the true and predicted probabilities of
    symbol 1.
    """

    a_const: float
    b_const: float
    y: float
    z: float

    @property
    def a_prime(self) -> float:
        return self.a_const + 1.0

    @property
    def b_prime(self) -> float:
        return self.b_const + 1.0

    def __post_init__(self):
        if self.a_const <= 0:
            raise ValueError("a_const must be > 0")
        if not (0.0 < self.y < 1.0 and 0.0 < self.z < 1.0):
            raise ValueError("y and z must lie strictly inside (0, 1): the "
                             "inequalities have log singularities at the endpoints")


def _binary_relative_entropy(y, z):
    return y * np.log(y / z) + (1.0 - y) * np.log((1.0 - y) / (1.0 - z))


# In f1 and f2 an infinite B meets rel = 0 on the y = z diagonal, and
# inf * 0 is NaN.  A NaN fails the check, so it needs no numpy warning.

def _f1(ap, bp, y, z, rel):
    with np.errstate(invalid="ignore"):
        return bp * rel + ap * (1.0 - y) * z / (1.0 - z) - y


def _f2(ap, bp, y, z, rel):
    with np.errstate(invalid="ignore"):
        return bp * rel + ap * (1.0 - y) - y * (1.0 - z) / z


def proof_inequality_values(point: InequalityPoint) -> dict[str, float]:
    """Evaluate f1, f2 and the reduced forms g1, g2 at one point.

    f1 covers the z <= 1/2 branch of the regret proof, f2 the z >= 1/2
    branch (both are computed regardless; interpret accordingly).  g1 and g2
    are the polynomial reductions obtained after substituting the extremal y
    and lower-bounding the entropy term; proving them non-negative proves
    f1, f2 non-negative on their branches.
    """
    ap, bp, y, z = point.a_prime, point.b_prime, point.y, point.z
    rel = float(_binary_relative_entropy(y, z))
    f1 = _f1(ap, bp, y, z, rel)
    f2 = _f2(ap, bp, y, z, rel)
    g1 = 2.0 * bp * ap**2 * z * (1.0 - z) + ((ap - 1.0) * bp * (1.0 - z) - ap) * (bp + ap * z / (1.0 - z))
    g2 = ((ap - 1.0) * bp * z - ap + 2.0 * z * (1.0 - z)) * (bp + 1.0 - 1.0 / z) + 2.0 * (1.0 - z) ** 2
    return {"f1": f1, "f2": f2, "g1": g1, "g2": g2}


def grid_verify_proof_inequalities(b_rule, *,
                                   a_values: Sequence[float] | None = None,
                                   grid_points: int = 201,
                                   edge_margin: float = 1e-4,
                                   tolerance: float = GRID_TOL) -> list[BoundCheckResult]:
    """Verify min f1 >= 0 (z <= 1/2) and min f2 >= 0 (z >= 1/2) over grids.

    ``b_rule`` is a named rule from B_RULES, a constant, or a callable
    A -> B.  The y, z grids span [edge_margin, 1 - edge_margin]; the
    boundary blow-up (f -> +inf at the z endpoints) is checked by trend in
    the test suite, not at the singular points.  Returns two results whose
    locations pinpoint the minimizing (A, y, z).
    """
    if isinstance(b_rule, str):
        rule_name, rule = b_rule, B_RULES[b_rule]
    elif callable(b_rule):
        rule_name, rule = getattr(b_rule, "__name__", "custom"), b_rule
    else:
        const = float(b_rule)
        rule_name, rule = f"B={const}", lambda a: const
    if a_values is None:
        a_values = np.geomspace(0.1, 10.0, 41)
    if len(a_values) == 0:
        raise ValueError("a_values must not be empty")
    bad = [float(a) for a in a_values if not 0.0 < float(a) < math.inf]
    if bad:
        raise ValueError(f"a_values must be positive and finite, got {bad[0]}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if not 0.0 < edge_margin < 0.5:
        raise ValueError(f"edge_margin must lie in (0, 1/2), got {edge_margin}")
    ys = np.linspace(edge_margin, 1.0 - edge_margin, grid_points)
    zs = np.linspace(edge_margin, 1.0 - edge_margin, grid_points)
    # each inequality only on its own z columns; zs is increasing, so row-major
    # order on a column subset keeps argmin's first minimum of the full grid
    branches = []
    for name, f, cols in (("f1", _f1, zs <= 0.5), ("f2", _f2, zs >= 0.5)):
        y_mat, z_mat = np.meshgrid(ys, zs[cols], indexing="ij")
        branches.append((name, f, zs[cols], y_mat, z_mat, _binary_relative_entropy(y_mat, z_mat)))

    best = {"f1": (math.inf, None), "f2": (math.inf, None)}
    for a in a_values:
        ap, bp = float(a) + 1.0, rule(float(a)) + 1.0
        for name, f, z_cols, y_mat, z_mat, rel in branches:
            vals = f(ap, bp, y_mat, z_mat, rel)
            idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
            v = float(vals[idx])
            # argmin stops at the first NaN; a NaN must fail, so it beats every number
            if v < best[name][0] or (math.isnan(v) and not math.isnan(best[name][0])):
                best[name] = (v, (float(a), float(ys[idx[0]]), float(z_cols[idx[1]])))

    results = []
    for name, branch in (("f1", "z<=1/2"), ("f2", "z>=1/2")):
        v, loc = best[name]
        a, y, z = loc
        results.append(BoundCheckResult(
            f"proof-ineq-{name}[{rule_name}]", 0.0, v, tolerance, "exact",
            location=f"A={a:.6g} y={y:.6g} z={z:.6g} ({branch})"))
    return results
