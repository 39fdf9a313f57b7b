"""Declarative experiment configuration.

Experiments are JSON objects with a strict schema: unknown fields are
rejected (a silent typo in a bound experiment is worse than friction), and
every diagnostic names the offending field by its dotted path.  A machine-
readable schema ships at ``presets/config.schema.json``; this module is the
enforcing validator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .bounds import B_RULES, DEFAULT_DEVIATION_EPSILON, ProofGridConfig
from .engine import DEFAULT_NODE_BUDGET
from .losses import NAMED_LOSSES, AlphaLoss, LossSpec, MatrixLoss
from .measures import (BernoulliMeasure, DeterministicMeasure, ExplicitTableMeasure,
                       MarkovMeasure, SequenceMeasure, TimeVaryingBinaryMeasure)
from .mixture import MixtureModel
from .schemes import ConstantScheme, MajorityVoteScheme, PredictionScheme

KNOWN_CHECKS = ("convergence", "loss-bounds", "logloss-identity", "instant-bounds",
                "proof-inequalities")
WEIGHT_SUM_TOL = 1e-12


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}")


def _require_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(path, f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(path, f"missing required field(s): {', '.join(missing)}")


def _number(obj, path: str, *, minimum=None, maximum=None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, "expected a number")
    v = float(obj)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(path, f"must be <= {maximum}")
    return v


def _integer(obj, path: str, *, minimum=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and obj < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return obj


def measure_from_spec(spec: dict, alphabet_size: int, path: str) -> SequenceMeasure:
    """Build one measure from its config entry, checked against the alphabet."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(path, "measure spec needs a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "bernoulli":
            _require_keys(spec, path, ("kind", "theta"))
            if alphabet_size != 2:
                raise ConfigError(path, "bernoulli requires alphabet_size 2")
            return BernoulliMeasure(_number(spec["theta"], f"{path}.theta", minimum=0.0, maximum=1.0))
        if kind == "markov":
            _require_keys(spec, path, ("kind", "transitions", "initial"), ("order",))
            order = _integer(spec.get("order", 1), f"{path}.order", minimum=1)
            m = MarkovMeasure(spec["transitions"], spec["initial"], order=order)
            if m.alphabet.size != alphabet_size:
                raise ConfigError(path, f"transition table is over {m.alphabet.size} symbols, "
                                        f"alphabet_size is {alphabet_size}")
            return m
        if kind == "deterministic":
            _require_keys(spec, path, ("kind", "pattern"))
            if not isinstance(spec["pattern"], list) or not spec["pattern"]:
                raise ConfigError(f"{path}.pattern", "expected a non-empty list of symbols")
            return DeterministicMeasure.from_pattern(spec["pattern"], alphabet_size)
        if kind == "time-varying-binary":
            _require_keys(spec, path, ("kind", "coefficient", "power"))
            if alphabet_size != 2:
                raise ConfigError(path, "time-varying-binary requires alphabet_size 2")
            return TimeVaryingBinaryMeasure.from_power_law(
                _number(spec["coefficient"], f"{path}.coefficient", minimum=0.0),
                _number(spec["power"], f"{path}.power"))
        if kind == "explicit-table":
            _require_keys(spec, path, ("kind", "table"))
            if not isinstance(spec["table"], dict):
                raise ConfigError(f"{path}.table", "expected an object mapping histories to rows")
            return ExplicitTableMeasure(spec["table"], alphabet_size)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown measure kind {kind!r}")


def loss_from_spec(spec: dict, alphabet_size: int, path: str) -> tuple[str, LossSpec]:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(path, "loss spec needs a 'kind' field")
    kind = spec["kind"]
    try:
        if kind in NAMED_LOSSES:
            _require_keys(spec, path, ("kind",), ("label",))
            if alphabet_size != 2:
                raise ConfigError(path, f"{kind} loss requires alphabet_size 2")
            loss = NAMED_LOSSES[kind]()
        elif kind == "alpha":
            _require_keys(spec, path, ("kind", "alpha"), ("label",))
            if alphabet_size != 2:
                raise ConfigError(path, "alpha loss requires alphabet_size 2")
            loss = AlphaLoss(_number(spec["alpha"], f"{path}.alpha"))
        elif kind == "matrix":
            _require_keys(spec, path, ("kind", "matrix"), ("label",))
            loss = MatrixLoss(spec["matrix"])
            if loss.n_outcomes != alphabet_size:
                raise ConfigError(f"{path}.matrix",
                                  f"has {loss.n_outcomes} outcome rows, alphabet_size is {alphabet_size}")
        else:
            raise ConfigError(f"{path}.kind", f"unknown loss kind {kind!r}")
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc
    label = spec.get("label", kind)
    if not isinstance(label, str):
        raise ConfigError(f"{path}.label", "expected a string")
    return label, loss


def scheme_from_spec(spec: dict, alphabet_size: int, path: str,
                     losses: dict[str, LossSpec]) -> PredictionScheme:
    """Build one scheme; a constant action must be playable under every loss."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(path, "scheme spec needs a 'kind' field")
    kind = spec["kind"]
    if kind == "constant":
        _require_keys(spec, path, ("kind", "action"))
        scheme = ConstantScheme(_number(spec["action"], f"{path}.action", minimum=0.0))
        for label, loss in losses.items():
            try:
                scheme.action_for(loss)
            except ValueError as exc:
                raise ConfigError(f"{path}.action", f"{exc} (loss {label!r})") from exc
        return scheme
    if kind == "majority-vote":
        _require_keys(spec, path, ("kind",))
        return MajorityVoteScheme(alphabet_size)
    raise ConfigError(f"{path}.kind", f"unknown scheme kind {kind!r}")


@dataclass
class ExperimentConfig:
    alphabet_size: int
    horizon: int
    mixture: MixtureModel
    true_index: int
    losses: dict[str, LossSpec]
    schemes: list[PredictionScheme]
    engine: str                      # "exact" | "monte-carlo"
    samples: int | None
    seed: int | None
    checks: list[str]
    deviation_epsilon: float
    node_budget: int
    proof_grid: ProofGridConfig
    outputs: dict[str, str] = field(default_factory=dict)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object and build the runnable configuration."""
    _require_keys(raw, "config",
                  ("alphabet_size", "horizon", "mixture", "losses", "engine"),
                  ("schemes", "checks", "deviation_epsilon", "node_budget", "proof_grid", "output"))
    alphabet_size = _integer(raw["alphabet_size"], "alphabet_size", minimum=2)
    horizon = _integer(raw["horizon"], "horizon", minimum=1)

    mix_raw = raw["mixture"]
    _require_keys(mix_raw, "mixture", ("components", "weights", "true_component_index"))
    comps_raw = mix_raw["components"]
    if not isinstance(comps_raw, list) or not comps_raw:
        raise ConfigError("mixture.components", "expected a non-empty list")
    components = [measure_from_spec(c, alphabet_size, f"mixture.components[{i}]")
                  for i, c in enumerate(comps_raw)]
    weights = mix_raw["weights"]
    if not isinstance(weights, list) or len(weights) != len(components):
        raise ConfigError("mixture.weights", "expected one weight per component")
    wsum = 0.0
    for i, w in enumerate(weights):
        wsum += _number(w, f"mixture.weights[{i}]", minimum=0.0)
    if abs(wsum - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError("mixture.weights", f"weights must sum to 1 (got {wsum!r})")
    true_index = _integer(mix_raw["true_component_index"], "mixture.true_component_index", minimum=0)
    if true_index >= len(components):
        raise ConfigError("mixture.true_component_index",
                          f"must be < number of components ({len(components)})")
    try:
        mixture = MixtureModel(components, weights)
    except ValueError as exc:
        raise ConfigError("mixture", str(exc)) from exc
    for i, comp in enumerate(components):
        if isinstance(comp, ExplicitTableMeasure) and comp.horizon < horizon:
            raise ConfigError(f"mixture.components[{i}]",
                              f"table horizon {comp.horizon} is shorter than the run horizon {horizon}")

    losses_raw = raw["losses"]
    if not isinstance(losses_raw, list) or not losses_raw:
        raise ConfigError("losses", "expected a non-empty list")
    losses: dict[str, LossSpec] = {}
    for i, spec in enumerate(losses_raw):
        label, loss = loss_from_spec(spec, alphabet_size, f"losses[{i}]")
        if label in losses:
            raise ConfigError(f"losses[{i}].label", f"duplicate loss label {label!r}")
        losses[label] = loss

    schemes = [scheme_from_spec(s, alphabet_size, f"schemes[{i}]", losses)
               for i, s in enumerate(raw.get("schemes", []))]

    eng_raw = raw["engine"]
    _require_keys(eng_raw, "engine", ("kind",), ("samples", "seed"))
    engine = eng_raw["kind"]
    samples = seed = None
    if engine == "exact":
        if "samples" in eng_raw or "seed" in eng_raw:
            raise ConfigError("engine", "samples/seed apply to the monte-carlo engine only")
    elif engine == "monte-carlo":
        _require_keys(eng_raw, "engine", ("kind", "samples", "seed"))
        samples = _integer(eng_raw["samples"], "engine.samples", minimum=100)
        seed = _integer(eng_raw["seed"], "engine.seed")
    else:
        raise ConfigError("engine.kind", f"unknown engine kind {engine!r}")

    checks = raw.get("checks")
    if checks is None:
        checks = ["convergence", "loss-bounds", "logloss-identity"]
        if engine == "exact":
            checks.append("instant-bounds")
    if not isinstance(checks, list):
        raise ConfigError("checks", "expected a list of check names")
    for i, name in enumerate(checks):
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"checks[{i}]", f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    if "instant-bounds" in checks and engine != "exact":
        raise ConfigError("checks", "instant-bounds needs the exact engine")

    grid_raw = raw.get("proof_grid", {})
    _require_keys(grid_raw, "proof_grid", (),
                  ("b_rules", "a_min", "a_max", "a_count", "grid_points", "edge_margin"))
    grid = ProofGridConfig()
    if "b_rules" in grid_raw:
        rules = grid_raw["b_rules"]
        if not isinstance(rules, list) or not rules:
            raise ConfigError("proof_grid.b_rules", "expected a non-empty list")
        for i, r in enumerate(rules):
            if not isinstance(r, str):
                raise ConfigError(f"proof_grid.b_rules[{i}]", "expected a rule name string")
            if r not in B_RULES:
                raise ConfigError(f"proof_grid.b_rules[{i}]",
                                  f"unknown rule {r!r}; known: {', '.join(B_RULES)}")
        grid.b_rules = tuple(rules)
    if "a_min" in grid_raw:
        grid.a_min = _number(grid_raw["a_min"], "proof_grid.a_min", minimum=1e-9)
    if "a_max" in grid_raw:
        grid.a_max = _number(grid_raw["a_max"], "proof_grid.a_max", minimum=grid.a_min)
    if "a_count" in grid_raw:
        grid.a_count = _integer(grid_raw["a_count"], "proof_grid.a_count", minimum=1)
    if "grid_points" in grid_raw:
        grid.grid_points = _integer(grid_raw["grid_points"], "proof_grid.grid_points", minimum=2)
    if "edge_margin" in grid_raw:
        grid.edge_margin = _number(grid_raw["edge_margin"], "proof_grid.edge_margin",
                                   minimum=1e-12, maximum=0.4)

    out_raw = raw.get("output", {})
    _require_keys(out_raw, "output", (), ("csv", "report_json", "report_text"))
    outputs = {}
    for key in ("csv", "report_json", "report_text"):
        if key in out_raw:
            if not isinstance(out_raw[key], str) or not out_raw[key]:
                raise ConfigError(f"output.{key}", "expected a non-empty path string")
            outputs[key] = out_raw[key]

    return ExperimentConfig(
        alphabet_size=alphabet_size,
        horizon=horizon,
        mixture=mixture,
        true_index=true_index,
        losses=losses,
        schemes=schemes,
        engine=engine,
        samples=samples,
        seed=seed,
        checks=list(checks),
        deviation_epsilon=_number(raw.get("deviation_epsilon", DEFAULT_DEVIATION_EPSILON),
                                  "deviation_epsilon", minimum=1e-9, maximum=1.0),
        node_budget=_integer(raw.get("node_budget", DEFAULT_NODE_BUDGET), "node_budget", minimum=1),
        proof_grid=grid,
        outputs=outputs,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw)
