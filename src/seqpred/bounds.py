"""Numerical certification of the convergence and loss bounds.

Every check is an inequality lhs <= rhs evaluated on concrete run output and
reported with its signed slack (rhs - lhs).  A check passes when
slack >= -tolerance.  A check on summed totals uses the absolute tolerance
EXACT_TOL = 1e-9 on both engines (roundoff accumulated over up to 2^24 node
visits or sampled path-steps); direct closed-form grid checks use
GRID_TOL = 1e-12 and the plateau check PLATEAU_TOL = 1e-12.  A result's
``mode`` names the rule that set its tolerance: "statistical" where standard
errors widened it, "exact" everywhere else.

Why a Monte Carlo report needs no wider tolerance.  The Monte Carlo engine
computes each step's conditionals exactly along every sampled path, and a
report's totals are sample means of path sums.  So an inequality that holds
at every history holds on every sampled path, and then for the sample means:

* Linear chains hold term by term: square <= KL, ratio <= Hellinger <= KL,
  absdiv - KL <= abs, 0 <= regret <= abs, informed loss <= scheme loss, and
  the log-loss identity regret == KL.
* The sqrt(2 n KL) caps: at each history abs <= sqrt(2 KL) (Pinsker).  Per
  step, Jensen (sqrt is concave) puts the sample mean of sqrt(2 KL_t) below
  sqrt(2 mean KL_t); over the n steps, Cauchy-Schwarz puts the sum of
  sqrt(2 m_t) below sqrt(2 n sum_t m_t).  So abs total <= sqrt(2 n KL total)
  on the sample means, and regret <= abs carries the cap to the regret.
* The regret forms: for every A > 0 the proof's per-step inequality
  regret_t <= A l_t + (B(A) + 1) KL_t, with l the informed loss (what
  f1, f2 >= 0 state below), holds at every history.  It is linear in the
  per-step terms, so it holds for the sample means for every A, and so does
  its infimum over A: d + sqrt(4 l d + d^2) for B = A/4 + 1/A and
  2 d + 2 sqrt(l d) for B = 1/A + 1, with d and l the sample-mean totals.
  The scheme certificate lm - 2 sqrt(lm d) <= scheme loss follows from the
  second form and informed <= scheme by algebra on the same means, and
  form1 <= form2 holds for any d, l >= 0.
* The deviation count: each counted step has mean square > eps^2, so
  count * eps^2 < sum of the mean squares <= KL total.
* The finite-loss cap: a deterministic truth puts every path on its one
  sequence x.  With a zero-loss action the informed loss is 0, so the second
  regret form caps the mixture loss of every prefix by 2 sum_t KL_t =
  2 ln(1 / xi(x)) <= 2 ln(1 / w_mu).

Two checks compare an estimate with an expectation, and only they are
widened, by ``_tolerance``: EXACT_TOL plus 3 standard errors (SE) of each
estimate in the check.  ``kl-total<=log-inv-weight`` bounds E[sum_t KL_t] =
E[ln mu/xi] by ln(1/w_mu); a path's sum of KL_t is not ln mu/xi on that path
and can exceed ln(1/w_mu).  ``kl-telescoping-identity`` equates the means of
those two different path sums, which agree only in expectation.

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

Why the proof grid may skip cells and keep every bit.  Each cell's value is
built from correctly rounded products, quotients, sums and differences:
f1 = ((B' rel) + ((A' (1 - y)) z) / (1 - z)) - y and
f2 = ((B' rel) + A' (1 - y)) - y (1 - z) / z.  The other operand of each
operation is >= 0: 1 - y, z and 1 - z are > 0 because 1 - edge_margin < 1,
and rel is >= 0 on every cell that may be skipped.  Round-to-nearest is
monotone, so the computed value of a cell at any A of a range is >= its
computed value at the range's smallest A' and smallest B'.  The grid walks
ranges of A in A order; a cell whose bound exceeds the best value found so
far is >= that best at every A of the range, so it can never beat it, and it
leaves the range.  Every cell that holds a beating minimum stays, in y-major
order, so each minimum keeps its first location.  A range whose B' is not
finite is never pruned: an infinite B' meets rel = 0 on the y = z diagonal,
and inf * 0 is a NaN, which fails.  With finite B' no value is NaN, a NaN
bound or best makes ``bound > best`` false, and a bound of +inf bounds only
+inf values, which beat nothing.
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
# cells of the proof grid's (y, z) grid: its arrays hold ~56 bytes per cell,
# so 2**22 cells (2048 points per axis) take ~235 MB
MAX_GRID_CELLS = 2**22
# points of the A grid: the A-free arrays cost the same for any count, and the
# walk over A drops nearly every cell after the first A, so 2**16 points take
# ~0.05 s per rule on the default 201 x 201 grid (2-CPU x86); the A array
# itself is then 0.5 MB
MAX_A_COUNT = 2**16

B_RULES: dict[str, Callable[[float], float]] = {
    "1/A+1": lambda a: 1.0 / a + 1.0,
    "A/4+1/A": lambda a: a / 4.0 + 1.0 / a,
}


@dataclass
class ProofGridConfig:
    """The proof-inequality grid; its defaults are those of
    ``grid_verify_proof_inequalities`` and ``seqpred check-inequalities``.
    A run's ``proof-inequalities`` check certifies every ``B_RULES`` rule
    on ``ProofGridConfig()``; only ``check-inequalities`` runs another grid."""

    a_min: float = 0.1
    a_max: float = 10.0
    a_count: int = 41
    grid_points: int = 201
    edge_margin: float = 1e-4

    def a_values(self) -> np.ndarray:
        """The A grid, 1 <= ``a_count`` <= ``MAX_A_COUNT`` points spaced
        geometrically from ``a_min`` to ``a_max``.  The ends must be positive
        and finite with a_max >= a_min.  Everything is checked before
        ``np.geomspace`` sees it: it warns on a negative or infinite end,
        runs backwards on an inverted range and allocates any count."""
        if self.a_count < 1:
            raise ValueError(f"a_count must be >= 1, got {self.a_count}")
        if self.a_count > MAX_A_COUNT:
            raise ValueError(f"a_count must be <= {MAX_A_COUNT}, got {self.a_count}")
        for end in (self.a_min, self.a_max):
            if not 0.0 < end < math.inf:  # false for NaN too
                raise ValueError(f"a_values must be positive and finite, got {float(end)}")
        if self.a_max < self.a_min:
            raise ValueError(f"a_values need a_max >= a_min, got a_min={float(self.a_min)} "
                             f"and a_max={float(self.a_max)}")
        return np.geomspace(self.a_min, self.a_max, self.a_count)


# The default A grid, read-only because every caller shares it.  It is built
# at import so that numpy's first np.geomspace call, which faults in ~0.25 MB
# of numpy's code pages, falls outside a certification: bench/ reads peak-RSS
# growth over one certification as its memory metric.
DEFAULT_A_VALUES = ProofGridConfig().a_values()
DEFAULT_A_VALUES.flags.writeable = False


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of one certified inequality lhs <= rhs."""

    bound_id: str
    lhs: float
    rhs: float
    tolerance: float = EXACT_TOL
    mode: str = "exact"          # "statistical" where standard errors widened the tolerance
    location: str = ""

    def __post_init__(self):
        # the bound formulas give numpy scalars: as floats, inf - inf is a
        # silent NaN and a non-finite side reads "inf" in the report
        for side in ("lhs", "rhs", "tolerance"):
            object.__setattr__(self, side, float(getattr(self, side)))

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
        return {**vars(self), "slack": self.slack, "pass": self.passed}


def _tolerance(report: TotalsReport, *keys: str) -> tuple[float, str]:
    """Tolerance and mode of a check that compares estimates with an
    expectation: EXACT_TOL, plus on a Monte Carlo report 3 SE of each named
    estimate (``"kl_direct"`` is the full-string log-ratio estimate)."""
    if not report.is_statistical:
        return EXACT_TOL, "exact"
    se = sum(report.kl_direct_se if k == "kl_direct" else report.total_se(k) for k in keys)
    return EXACT_TOL + 3.0 * se, "statistical"


# The bound formulas take totals or arrays of per-history values alike.

def _sqrt_2n(n: int, kl):
    return np.sqrt(np.maximum(2.0 * n * kl, 0.0))


def _form1(d, l):
    """The regret bound d + sqrt(4 l d + d^2) of KL total d and informed loss l."""
    return d + np.sqrt(np.maximum(4.0 * l * d + d * d, 0.0))


def _form2(d, l):
    """The looser regret bound 2 d + 2 sqrt(l d)."""
    return 2.0 * d + 2.0 * np.sqrt(np.maximum(l * d, 0.0))


def _certificate(lm, d):
    """No scheme's loss falls below lm - 2 sqrt(lm d), lm the mixture loss."""
    return lm - 2.0 * np.sqrt(np.maximum(lm * d, 0.0))


def _beats(value: float, best: float) -> bool:
    """Whether ``value`` is a smaller minimum than ``best``; a NaN must fail,
    so it beats every number."""
    return value < best or (math.isnan(value) and not math.isnan(best))


# -- convergence ----------------------------------------------------------------

def check_convergence_bounds(report: TotalsReport, *,
                             deviation_epsilon: float = DEFAULT_DEVIATION_EPSILON
                             ) -> list[BoundCheckResult]:
    """Certify the distance-total bounds and identities on one report."""
    total, kl = report.total, report.total("kl")
    eps2 = deviation_epsilon**2
    count = float((report.per_step["square"] > eps2).sum())
    return [
        BoundCheckResult("square-total<=kl-total", total("square"), kl),
        BoundCheckResult("kl-total<=log-inv-weight", kl, report.log_inv_true_weight,
                         *_tolerance(report, "kl")),
        BoundCheckResult("ratio-sum<=hellinger-total", total("ratio_term"), total("hellinger")),
        BoundCheckResult("hellinger-total<=kl-total", total("hellinger"), kl),
        BoundCheckResult("absdiv-minus-kl<=abs-total", total("abs_divergence") - kl, total("absolute")),
        BoundCheckResult("abs-total<=sqrt-2nkl", total("absolute"), _sqrt_2n(report.horizon, kl)),
        # telescoping identity: summed per-step KL == expected full-string log-ratio
        BoundCheckResult("kl-telescoping-identity", abs(kl - report.kl_direct), 0.0,
                         *_tolerance(report, "kl", "kl_direct")),
        # deviation-count rate: #{t : E[square_t] > eps^2} <= KL/eps^2
        BoundCheckResult("deviation-count", count, kl / eps2, location=f"eps={deviation_epsilon}"),
    ]


# -- loss bounds ------------------------------------------------------------------

def check_loss_bounds(report: TotalsReport, label: str) -> list[BoundCheckResult]:
    """Certify the regret bounds for one bounded loss in the report."""
    loss = report.losses[label]
    if not loss.bounded:
        raise ValueError(f"loss {label!r} is unbounded; use check_logloss_identity")
    kl = report.total("kl")
    l_mix, l_inf = report.total(f"mixture_loss[{label}]"), report.total(f"informed_loss[{label}]")
    gap = l_mix - l_inf
    results = [
        BoundCheckResult(f"regret-nonneg[{label}]", l_inf, l_mix),
        BoundCheckResult(f"regret-bound-sqrt-form[{label}]", gap, _form1(kl, l_inf)),
        BoundCheckResult(f"regret-bound-2sqrt-form[{label}]", gap, _form2(kl, l_inf)),
        BoundCheckResult(f"regret-bound-form-chain[{label}]", _form1(kl, l_inf), _form2(kl, l_inf)),
        BoundCheckResult(f"regret<=abs-total[{label}]", gap, report.total("absolute")),
        BoundCheckResult(f"regret<=sqrt-2nkl[{label}]", gap, _sqrt_2n(report.horizon, kl)),
    ]
    for scheme in report.scheme_labels:
        l_alt = report.total(f"scheme_loss[{scheme}|{label}]")
        results += [BoundCheckResult(f"informed-optimality[{label}|{scheme}]", l_inf, l_alt),
                    BoundCheckResult(f"no-scheme-much-better[{label}|{scheme}]",
                                     _certificate(l_mix, kl), l_alt)]

    if report.mu_is_deterministic and loss.has_zero_loss_action():
        results.extend(check_finite_loss_plateau(report, label))
    return results


def check_finite_loss_plateau(report: TotalsReport, label: str) -> list[BoundCheckResult]:
    """Deterministic truth + a zero-loss action per outcome: the mixture
    predictor's total loss stays below twice log(1/true weight) and its
    series plateaus (finite-horizon surrogate for a finite-total claim)."""
    cum = report.cumulative[f"mixture_loss[{label}]"]
    cap = 2.0 * report.log_inv_true_weight
    worst_t = int(np.argmax(cum)) + 1
    results = [BoundCheckResult(f"finite-loss-cap[{label}]", float(cum.max()), cap,
                                location=f"t={worst_t}")]
    tail = math.ceil(report.horizon / 4)
    increment = float(cum[-1] - cum[-tail - 1]) if tail < report.horizon else float(cum[-1])
    results.append(BoundCheckResult(f"loss-plateau[{label}]", increment, 0.0, PLATEAU_TOL,
                                    location=f"last {tail} steps"))
    return results


def check_logloss_identity(report: TotalsReport, label: str) -> BoundCheckResult:
    """|mixture regret - cumulative KL| == 0 for the log score."""
    gap = report.total(f"mixture_loss[{label}]") - report.total(f"informed_loss[{label}]")
    return BoundCheckResult(f"logloss-identity[{label}]", abs(gap - report.total("kl")), 0.0)


# -- instantaneous (per-history) bounds -------------------------------------------

class InstantChecks:
    """Per-history instantaneous chains, accumulated while the exact engine
    walks the tree: pass it as ``exact_evaluate``'s ``observer``.

    Per chain it keeps the result with the smallest slack; within a level
    the first node with the smallest slack counts, and a later level
    replaces it only with a strictly smaller slack.  A NaN slack fails, so
    it counts as smaller than every number.  Per loss it keeps the
    squared-regret sum, added left to right in level then node order.
    ``len()`` is the number of levels observed.  A location reads
    ``t=<step> history=<symbols>``: the symbols run together while each is
    one digit and are joined by commas once one is 10 or more, so (1, 11)
    and (11, 1) read apart.
    """

    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        self.levels = 0
        self._best: dict[str, BoundCheckResult] = {}
        self._squared = {label: 0.0 for label in self.labels}

    def __len__(self) -> int:
        return self.levels

    def __call__(self, step, weights, multiplicity, values, history) -> None:
        self.levels += 1
        d, a = values["kl"], values["absolute"]
        # an underflowed mixture gives inf - inf and 0 * inf: NaNs that fail
        with np.errstate(invalid="ignore"):
            chains = {"instant-absdiv-minus-kl<=abs": (values["abs_divergence"] - d, a),
                      "instant-abs<=sqrt-2kl": (a, _sqrt_2n(1, d))}
            for label in self.labels:
                l_inf = values[f"informed_loss[{label}]"]
                gap = values[f"mixture_loss[{label}]"] - l_inf
                chains[f"instant-regret-nonneg[{label}]"] = (np.zeros(gap.size), gap)
                chains[f"instant-regret<=abs[{label}]"] = (gap, a)
                chains[f"instant-regret<=kl-form[{label}]"] = (gap, _form2(d, l_inf))
                # cumsum adds left to right, where sum and @ add pairwise and
                # would change the last bits
                self._squared[label] = np.cumsum(
                    np.concatenate([[self._squared[label]], weights * gap * gap]))[-1]
            for bound_id, (lhs, rhs) in chains.items():
                slack = rhs - lhs
                i = int(np.argmin(slack))  # the first NaN, if there is one
                if bound_id not in self._best or _beats(slack[i], self._best[bound_id].slack):
                    symbols = history(i)
                    h = ("," if max(symbols, default=0) >= 10 else "").join(map(str, symbols)) or "(empty)"
                    self._best[bound_id] = BoundCheckResult(
                        bound_id, lhs[i], rhs[i], location=f"t={step} history={h}")

    def result(self, chain: str) -> BoundCheckResult:
        """One chain at its minimal-slack history."""
        return self._best[chain]

    def squared_regret_sum(self, label: str) -> float:
        return float(self._squared[label])


def check_instant_bounds(records: InstantChecks, report: TotalsReport,
                         label: str) -> list[BoundCheckResult]:
    """Per-history regret chains for one bounded loss, plus the aggregated
    squared-regret budget, from the accumulator that observed the exact
    walk.  Each chain is reported at its minimal-slack history so
    near-violations are reproducible."""
    loss = report.losses[label]
    if not loss.bounded:
        raise ValueError(f"loss {label!r} is unbounded; instantaneous chains assume losses in [0, 1]")
    return [records.result(f"instant-regret-nonneg[{label}]"),
            records.result(f"instant-regret<=abs[{label}]"),
            records.result(f"instant-regret<=kl-form[{label}]"),
            BoundCheckResult(f"squared-regret-sum<=2kl[{label}]", records.squared_regret_sum(label),
                             2.0 * report.total("kl"))]


def check_instant_distance_bounds(records: InstantChecks) -> list[BoundCheckResult]:
    """Per-history absolute-distance sandwich (loss-free form)."""
    return [records.result("instant-absdiv-minus-kl<=abs"),
            records.result("instant-abs<=sqrt-2kl")]


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
        if not self.a_const > 0:  # false for NaN too
            raise ValueError("a_const must be > 0")
        if not self.b_const > 0:
            raise ValueError("b_const must be > 0")
        if not (0.0 < self.y < 1.0 and 0.0 < self.z < 1.0):
            raise ValueError("y and z must lie strictly inside (0, 1): the "
                             "inequalities have log singularities at the endpoints")


def _binary_relative_entropy(y, z):
    return y * np.log(y / z) + (1.0 - y) * np.log((1.0 - y) / (1.0 - z))


# f1 and f2 into ``out``, with ``tmp`` holding the A term.  The A-free arrays
# come in precomputed, so the proof grid builds them once per branch.  A' and
# B' are scalars for one A, or (k, 1) columns against (n,) cells for a block
# of k A values; elementwise, each association rounds the same either way, and
# on 0-d arrays it gives a single point's value.
# An infinite B meets rel = 0 on the y = z diagonal, and inf * 0 is NaN.
# A NaN fails the check, so it needs no numpy warning.

def _f1(ap, bp, *, y, z, rel, one_minus_y, one_minus_z, out, tmp):
    with np.errstate(invalid="ignore"):
        np.multiply(bp, rel, out=out)
        np.multiply(ap, one_minus_y, out=tmp)
        tmp *= z
        tmp /= one_minus_z
        out += tmp
        out -= y
    return out


def _f2(ap, bp, *, rel, one_minus_y, y_term, out, tmp):
    """``y_term`` is y (1 - z) / z."""
    with np.errstate(invalid="ignore"):
        np.multiply(bp, rel, out=out)
        np.multiply(ap, one_minus_y, out=tmp)
        out += tmp
        out -= y_term
    return out


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
    f1 = float(_f1(ap, bp, y=y, z=z, rel=rel, one_minus_y=1.0 - y, one_minus_z=1.0 - z,
                   out=np.empty(()), tmp=np.empty(())))
    f2 = float(_f2(ap, bp, rel=rel, one_minus_y=1.0 - y, y_term=y * (1.0 - z) / z,
                   out=np.empty(()), tmp=np.empty(())))
    g1 = 2.0 * bp * ap**2 * z * (1.0 - z) + ((ap - 1.0) * bp * (1.0 - z) - ap) * (bp + ap * z / (1.0 - z))
    g2 = ((ap - 1.0) * bp * z - ap + 2.0 * z * (1.0 - z)) * (bp + 1.0 - 1.0 / z) + 2.0 * (1.0 - z) ** 2
    return {"f1": f1, "f2": f2, "g1": g1, "g2": g2}


def _branch_minimum(f, ap, bp, cells, out, tmp):
    """The first minimum of ``f`` over (A, cell) in A-major order, as
    (value, A index, cell index); a NaN is the minimum where one occurs.

    ``ap`` and ``bp`` hold A' and B' in A order, ``cells`` binds f's A-free
    arrays flat over the branch's cells in y-major order, and ``out`` and
    ``tmp`` hold as many cells.  After the first A, a branch and bound walks
    halves of the A range, left first: a cell leaves a range once its value
    at the range's smallest A' and B' (a lower bound, see the module's proof
    inequality notes) exceeds the best found, and a range is evaluated
    exactly as one (A, cell) block once the block fits in ``out``.
    """
    n_cells = out.size
    vals = f(ap[0], bp[0], **cells, out=out, tmp=tmp)
    i = int(np.argmin(vals))  # the first NaN, if there is one
    best, at = float(vals[i]), (0, i)
    # non-finite B' up to each A index, so a range tests its B' in O(1)
    nonfinite = np.concatenate([[0], np.cumsum(~np.isfinite(bp))]).tolist()
    # ranges left to walk, the next one last: (lo, hi, the surviving cells'
    # indices, their arrays); a stack, not a recursive closure, so that no
    # reference cycle keeps the buffers alive after the call
    todo = [(1, ap.size, np.arange(n_cells), cells)] if ap.size > 1 else []
    while todo:
        lo, hi, index, cells = todo.pop()
        n = index.size
        if n == 0:
            continue
        if (hi - lo) * n <= n_cells:
            k = hi - lo
            block = f(ap[lo:hi, None], bp[lo:hi, None], **cells,
                      out=out[:k * n].reshape(k, n), tmp=tmp[:k * n].reshape(k, n))
            i = int(np.argmin(block))
            v = float(block.flat[i])
            if _beats(v, best):
                best, at = v, (lo + i // n, int(index[i % n]))
            continue
        if nonfinite[hi] == nonfinite[lo]:
            bound = f(ap[lo:hi].min(), bp[lo:hi].min(), **cells, out=out[:n], tmp=tmp[:n])
            # where rel < 0, B' * rel falls as B' grows, so no bound holds
            keep = np.flatnonzero(~((bound > best) & (cells["rel"] >= 0.0)))
            if keep.size < n:
                index, cells = index[keep], {key: a[keep] for key, a in cells.items()}
        mid = (lo + hi) // 2
        todo += [(mid, hi, index, cells), (lo, mid, index, cells)]
    return best, *at


def grid_verify_proof_inequalities(b_rule, *,
                                   a_values: Sequence[float] = DEFAULT_A_VALUES,
                                   grid_points: int = ProofGridConfig.grid_points,
                                   edge_margin: float = ProofGridConfig.edge_margin
                                   ) -> list[BoundCheckResult]:
    """Verify min f1 >= 0 (z <= 1/2) and min f2 >= 0 (z >= 1/2) over grids.

    ``b_rule`` is a named rule from B_RULES, a constant, or a callable
    A -> B; a constant that is not > 0, or a rule that gives B <= 0 at some
    A, raises ValueError before any cell is evaluated.  The y, z grids span
    [edge_margin, 1 - edge_margin]; a margin whose 1 - margin rounds to 1 is
    refused.  The boundary blow-up (f -> +inf at the z endpoints) is
    checked by trend in the test suite, not at the singular points.  Returns
    two results whose locations pinpoint the first minimizing (A, y, z) in
    (A, y, z) order.
    """
    if isinstance(b_rule, str):
        rule_name, rule = b_rule, B_RULES[b_rule]
    elif callable(b_rule):
        rule_name, rule = getattr(b_rule, "__name__", "custom"), b_rule
    else:
        const = float(b_rule)
        if not const > 0:  # false for NaN too
            raise ValueError(f"b_rule must be > 0, got {const}")
        rule_name, rule = f"B={const}", lambda a: const
    if not 1 <= len(a_values) <= MAX_A_COUNT:
        raise ValueError(f"a_values must hold 1 to {MAX_A_COUNT} values, got {len(a_values)}")
    bad = [float(a) for a in a_values if not 0.0 < float(a) < math.inf]
    if bad:
        raise ValueError(f"a_values must be positive and finite, got {bad[0]}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if grid_points**2 > MAX_GRID_CELLS:
        raise ValueError(f"grid_points must be <= {math.isqrt(MAX_GRID_CELLS)} (at most "
                         f"{MAX_GRID_CELLS} (y, z) cells), got {grid_points}")
    # below ~5.6e-17, 1 - margin rounds to 1 and the grid reaches z = 1
    if not (0.0 < edge_margin < 0.5 and 1.0 - edge_margin < 1.0):
        raise ValueError(f"edge_margin must lie in (0, 1/2) with 1 - edge_margin < 1, "
                         f"got {edge_margin}")
    # every B, in A order, before any cell is evaluated
    a_list, bp = [float(a) for a in a_values], []
    for a in a_list:
        b = rule(a)
        if b <= 0:  # a NaN is left to fail at its cell
            raise ValueError(f"b_rule must give B > 0, got B={b} at A={a}")
        bp.append(b + 1.0)
    ap, bp = np.array(a_list) + 1.0, np.array(bp, dtype=float)

    ys = np.linspace(edge_margin, 1.0 - edge_margin, grid_points)
    zs = np.linspace(edge_margin, 1.0 - edge_margin, grid_points)
    # each inequality only on its own z columns, flat in y-major order: zs is
    # increasing, so a first minimum there is the full grid's first
    halves = (("f1", "z<=1/2", zs[zs <= 0.5]), ("f2", "z>=1/2", zs[zs >= 0.5]))
    # the branches run one after the other, so one pair of buffers serves both
    size = ys.size * max(zb.size for *_, zb in halves)
    out, tmp = np.empty(size), np.empty(size)
    results = []
    for name, branch, zb in halves:
        # each branch binds only the A-free arrays its inequality reads, and
        # drops them before the next branch builds its own
        y, z = (m.ravel() for m in np.meshgrid(ys, zb, indexing="ij"))
        if name == "f1":
            f, cells = _f1, dict(y=y, z=z, rel=_binary_relative_entropy(y, z),
                                 one_minus_y=1.0 - y, one_minus_z=1.0 - z)
        else:
            f, cells = _f2, dict(rel=_binary_relative_entropy(y, z), one_minus_y=1.0 - y,
                                 y_term=y * (1.0 - z) / z)
        v, i, cell = _branch_minimum(f, ap, bp, cells, out[:y.size], tmp[:y.size])
        del y, z, cells
        row, col = divmod(cell, zb.size)
        results.append(BoundCheckResult(
            f"proof-ineq-{name}[{rule_name}]", 0.0, v, GRID_TOL,
            location=f"A={a_list[i]:.6g} y={float(ys[row]):.6g} z={float(zb[col]):.6g} ({branch})"))
    return results
