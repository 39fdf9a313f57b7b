"""Declarative experiment configuration.

Experiments are JSON objects, and ``presets/config.schema.json`` is their
format: every field's type, range and default-or-required status, and the
rejection of unknown fields (a silent typo in a bound experiment is worse
than friction), are stated there once.  :func:`validate` enforces that file
and names the offending field by its dotted path.  This module keeps only
what a schema cannot say -- the cross-field rules that :func:`parse_config`
checks while it builds the runnable objects: one weight per component,
summing to 1; the true component's index against the component count;
measures, losses and patterns against the alphabet; an explicit table's
horizon against the run's; unique loss labels; every scheme's actions
playable under every loss; instant bounds on the exact engine only; and
the engine-dependent default ``checks``.  A config has no proof-grid
settings: ``proof-inequalities`` certifies ``bounds.ProofGridConfig()``'s
grid, and ``seqpred check-inequalities`` is the one way to run another.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from .bounds import DEFAULT_DEVIATION_EPSILON
from .engine import DEFAULT_NODE_BUDGET
from .losses import NAMED_LOSSES, AlphaLoss, LossSpec, MatrixLoss
from .measures import (BernoulliMeasure, DeterministicMeasure, DistributionError,
                       ExplicitTableMeasure, MarkovMeasure, SequenceMeasure,
                       TimeVaryingBinaryMeasure)
from .mixture import MixtureModel
from .schemes import ConstantScheme, MajorityVoteScheme, PredictionScheme

SCHEMA = json.loads((Path(__file__).parent / "presets" / "config.schema.json").read_text())
# bound keywords of the schema: (holds, how a violation reads)
_BOUNDS = {"minimum": (operator.ge, ">="), "maximum": (operator.le, "<="),
           "exclusiveMinimum": (operator.gt, ">")}
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


class ConfigError(ValueError):
    """A config that breaks the schema or a cross-field rule; the message names
    the offending field."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}")


def _child(path: str, key: str) -> str:
    return key if path == "config" else f"{path}.{key}"


def _finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


def validate(value, schema: dict = SCHEMA, path: str = "config") -> None:
    """Check ``value`` against ``schema``; the ConfigError names the first bad field.

    Covers the JSON Schema keywords ``config.schema.json`` uses; annotations
    (``$schema``, ``title``, ``description``, ``$defs``) are ignored.  A
    ``oneOf`` is a choice of object by its ``kind``.  Two rules are stricter
    than JSON Schema: an integer is an ``int`` (``2.0`` is not), and a number
    is finite (``json.loads`` accepts ``NaN`` and ``Infinity``).
    """
    if "$ref" in schema:  # "#/$defs/<name>"
        target = reduce(dict.__getitem__, schema["$ref"][2:].split("/"), SCHEMA)
        return validate(value, target, path)
    if "oneOf" in schema:
        validate(value, {"type": "object", "required": ["kind"]}, path)
        kinds = [b["properties"]["kind"].get("enum", [b["properties"]["kind"].get("const")])
                 for b in schema["oneOf"]]
        for branch, names in zip(schema["oneOf"], kinds):
            if value["kind"] in names:
                return validate(value, branch, path)
        raise ConfigError(_child(path, "kind"), f"unknown kind {value['kind']!r}; "
                                                f"known: {', '.join(sum(kinds, []))}")
    expected = schema.get("type")
    if expected is not None and (isinstance(value, bool)
                                 or not isinstance(value, _TYPES[expected])):
        article = "an" if expected[0] in "aeiou" else "a"
        raise ConfigError(path, f"expected {article} {expected}, got {type(value).__name__}")
    if expected == "number" and not _finite(value):
        raise ConfigError(path, "must be finite")
    if "const" in schema and value != schema["const"]:
        raise ConfigError(path, f"must be {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(path, f"unknown value {value!r}; known: {', '.join(schema['enum'])}")
    for key, (holds, relation) in _BOUNDS.items():
        if key in schema and not holds(value, schema[key]):
            raise ConfigError(path, f"must be {relation} {schema[key]}")
    if "minLength" in schema and len(value) < schema["minLength"]:
        raise ConfigError(path, f"expected at least {schema['minLength']} character(s)")
    if "minItems" in schema and len(value) < schema["minItems"]:
        raise ConfigError(path, f"expected at least {schema['minItems']} item(s)")
    if "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]")
    if schema.get("additionalProperties") is False:
        unknown = sorted(set(value) - set(schema.get("properties", {})))
        if unknown:
            raise ConfigError(path, f"unknown field(s): {', '.join(unknown)}")
    missing = [key for key in schema.get("required", ()) if key not in value]
    if missing:
        raise ConfigError(path, f"missing required field(s): {', '.join(missing)}")
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            validate(value[key], sub, _child(path, key))


def measure_from_spec(spec: dict, alphabet_size: int, path: str) -> SequenceMeasure:
    """Build one measure from its validated config entry, checked against the alphabet."""
    kind = spec["kind"]
    if kind in ("bernoulli", "time-varying-binary") and alphabet_size != 2:
        raise ConfigError(path, f"{kind} requires alphabet_size 2")
    if kind == "deterministic" and max(spec["pattern"]) >= alphabet_size:
        raise ConfigError(f"{path}.pattern", f"symbol {max(spec['pattern'])} outside alphabet "
                                             f"of size {alphabet_size}")
    try:
        if kind == "bernoulli":
            return BernoulliMeasure(float(spec["theta"]))
        if kind == "deterministic":
            return DeterministicMeasure.from_pattern(spec["pattern"], alphabet_size)
        if kind == "time-varying-binary":
            return TimeVaryingBinaryMeasure.from_power_law(float(spec["coefficient"]),
                                                           float(spec["power"]))
        if kind == "explicit-table":
            return ExplicitTableMeasure(spec["table"], alphabet_size)
        # markov, the one kind left
        m = MarkovMeasure(spec["transitions"], spec["initial"], order=spec.get("order", 1))
    except DistributionError as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if m.alphabet.size != alphabet_size:
        raise ConfigError(path, f"transition table is over {m.alphabet.size} symbols, "
                                f"alphabet_size is {alphabet_size}")
    return m


def loss_from_spec(spec: dict, alphabet_size: int, path: str) -> tuple[str, LossSpec]:
    """Build one loss from its validated config entry, checked against the alphabet."""
    kind = spec["kind"]
    if kind != "matrix" and alphabet_size != 2:
        raise ConfigError(path, f"{kind} loss requires alphabet_size 2")
    try:
        if kind == "matrix":
            loss = MatrixLoss(spec["matrix"])
        elif kind == "alpha":
            loss = AlphaLoss(spec["alpha"])
        else:
            loss = NAMED_LOSSES[kind]()
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if kind == "matrix" and loss.n_outcomes != alphabet_size:
        raise ConfigError(f"{path}.matrix",
                          f"has {loss.n_outcomes} outcome rows, alphabet_size is {alphabet_size}")
    return spec.get("label", kind), loss


def scheme_from_spec(spec: dict, alphabet_size: int, path: str,
                     losses: dict[str, LossSpec]) -> PredictionScheme:
    """Build one scheme; its actions must be playable under every loss."""
    if spec["kind"] == "majority-vote":
        scheme = MajorityVoteScheme(alphabet_size)
    else:
        scheme = ConstantScheme(float(spec["action"]))
        path = f"{path}.action"
    for label, loss in losses.items():
        try:
            scheme.actions(scheme.initial_state(1), loss)
        except ValueError as exc:
            raise ConfigError(path, f"{exc} (loss {label!r})") from exc
    return scheme


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
    outputs: dict[str, str] = field(default_factory=dict)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object, check the cross-field rules, and build the
    runnable configuration."""
    validate(raw)
    alphabet_size, horizon = raw["alphabet_size"], raw["horizon"]

    mix_raw = raw["mixture"]
    components = [measure_from_spec(c, alphabet_size, f"mixture.components[{i}]")
                  for i, c in enumerate(mix_raw["components"])]
    try:
        mixture = MixtureModel(components, mix_raw["weights"])
    except DistributionError as exc:
        raise ConfigError(f"mixture.{exc.field}", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError("mixture", str(exc)) from exc
    true_index = mix_raw["true_component_index"]
    if true_index >= len(components):
        raise ConfigError("mixture.true_component_index",
                          f"must be < number of components ({len(components)})")
    for i, comp in enumerate(components):
        if isinstance(comp, ExplicitTableMeasure) and comp.horizon < horizon:
            raise ConfigError(f"mixture.components[{i}]",
                              f"table horizon {comp.horizon} is shorter than the run horizon {horizon}")

    losses: dict[str, LossSpec] = {}
    for i, spec in enumerate(raw["losses"]):
        label, loss = loss_from_spec(spec, alphabet_size, f"losses[{i}]")
        if label in losses:
            raise ConfigError(f"losses[{i}].label", f"duplicate loss label {label!r}")
        losses[label] = loss

    schemes = [scheme_from_spec(s, alphabet_size, f"schemes[{i}]", losses)
               for i, s in enumerate(raw.get("schemes", []))]

    engine = raw["engine"]
    checks = raw.get("checks")
    if checks is None:
        checks = ["convergence", "loss-bounds", "logloss-identity"]
        if engine["kind"] == "exact":
            checks.append("instant-bounds")
    if "instant-bounds" in checks and engine["kind"] != "exact":
        raise ConfigError("checks", "instant-bounds needs the exact engine")

    return ExperimentConfig(
        alphabet_size=alphabet_size,
        horizon=horizon,
        mixture=mixture,
        true_index=true_index,
        losses=losses,
        schemes=schemes,
        engine=engine["kind"],
        samples=engine.get("samples"),
        seed=engine.get("seed"),
        checks=list(checks),
        deviation_epsilon=float(raw.get("deviation_epsilon", DEFAULT_DEVIATION_EPSILON)),
        node_budget=raw.get("node_budget", DEFAULT_NODE_BUDGET),
        outputs=dict(raw.get("output", {})),
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
