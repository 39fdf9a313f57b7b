"""Bayesian sequence-prediction lab.

Build finite mixtures of sequence measures, act Bayes-optimally under
arbitrary bounded losses, evaluate every per-step distance and loss
functional exactly (full-tree enumeration) or by Monte Carlo, and certify
the convergence / regret bounds numerically with signed slacks.
"""
from .measures import (
    Alphabet,
    BernoulliMeasure,
    DeterministicMeasure,
    ExplicitTableMeasure,
    InvalidSymbolError,
    MarkovMeasure,
    SequenceMeasure,
    TimeVaryingBinaryMeasure,
    UndefinedConditionalError,
)
from .mixture import MixtureModel
from .distances import StepDistances, instant_distances, ratio_term
from .losses import (
    AbsoluteLoss,
    AlphaLoss,
    ErrorLoss,
    HellingerLoss,
    LogLoss,
    LossSpec,
    MatrixLoss,
    QuadraticLoss,
)
from .schemes import ConstantScheme, MajorityVoteScheme, PredictionScheme
from .engine import (
    BudgetExceededError,
    TotalsReport,
    exact_evaluate,
    monte_carlo_evaluate,
    ratio_trace,
)
from .bounds import (
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

__version__ = "0.1.0"
