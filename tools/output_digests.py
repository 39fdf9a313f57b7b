"""Print one sha256 per deterministic output of a seqpred source tree.

    python3 tools/output_digests.py [SRC_DIR]

SRC_DIR is the directory that holds the ``seqpred`` package (default: this
checkout's ``src``).  Each line is ``<digest>  <run>``: the sha256 of
``render_series_csv`` followed by ``report_json`` for every shipped preset
(the Monte Carlo ``counterexample`` at three seeds), every benchmark
config under ``bench/configs`` (``mc-long`` at two seeds), ``ZERO_SYMBOL``,
``HIGHER_ORDER`` and ``WIDE`` on both engines and ``LONE_ROW``, then the
sha256 of the default ``seqpred check-inequalities`` stdout, then that of
three ``ratio_trace`` runs (``ratio-trace``).  Two trees whose lines match
give byte-identical reports; ``diff`` the output of two runs.

``ratio-trace`` is the sha256 of the ``float.hex`` of every ratio of three
traces: the ``counterexample`` mixture over 1000 zeros at symbol 1, a
200-step path of the ``three-symbol`` preset's truth, and an 8-step path
through a mixture of a chain, an explicit table (a whole-history state,
which the trace walks one step at a time) and a nested mixture.

``LONE_ROW`` is the one run whose config lives here: the exact engine at
horizon 1, so its only level is the empty history's lone row, under 3x4
and 3x5 matrix losses.  numpy multiplies a one-row and a many-row product
through different BLAS routines, which round differently on such tables;
this run's digest moves if a lone row is not multiplied as a batch is.  At
longer horizons the exact engine puts level 0 into a block with later
levels, and no other run has a lone row under a table this wide.

``WIDE`` is the one run wider than the engine's ``BLOCK_ROWS`` (4096), which
``evaluate`` works through 4096 rows at a time.  Its exact tree's level 12
holds 4097 nodes, so the level is evaluated as 4096 rows and a one-row
remainder, under a 4x4 matrix loss; its Monte Carlo run draws 4097 paths,
one step per block, each evaluated the same way.  The truth is an order-2
chain that rules out one symbol after each context and spreads 1/3 over the
other three, and the other component is uniform, so every node of a level
has the same log-marginals and the level's nodes are the distinct (last two
symbols, symbol counts) of its histories: the widths do not hang on
rounding.  The lone row's weight is far below an ulp of the totals, so its
digest does not see how that row's product rounds; ``LONE_ROW`` does.

``ZERO_SYMBOL`` is the one Monte Carlo run over more than two symbols: four,
and the true chain never emits symbol 1 and emits symbol 3 only from some
states.  Its digest moves if a symbol draw picks a zero-probability symbol,
or picks another symbol than the inverse-cdf rule does.

``HIGHER_ORDER`` mixes an order-2 and an order-3 chain over three symbols
under majority vote, run on the exact engine and on Monte Carlo: no preset
or benchmark config has a chain of order 2 or more.  Its digests move if a
chain reads another context row than ``transitions[c_1, .., c_k]``, or if a
row of a Monte Carlo block before step ``order`` reads anything but the
initial distribution (the order-3 chain is not the truth, so its rows come
from a whole block at once).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the Monte Carlo configs, run once per seed; the exact ones are seed-free
SEEDS = {"counterexample": (20250808, 1, 2026), "mc-long": (1, 2026)}
LONE_ROW = {
    "alphabet_size": 3,
    "horizon": 1,
    "mixture": {
        "components": [
            {"kind": "markov", "initial": [0.137, 0.512, 0.351],
             "transitions": [[0.61, 0.27, 0.12], [0.23, 0.48, 0.29], [0.09, 0.34, 0.57]]},
            {"kind": "markov", "initial": [0.283, 0.164, 0.553],
             "transitions": [[0.31, 0.42, 0.27], [0.44, 0.19, 0.37], [0.26, 0.51, 0.23]]},
        ],
        "weights": [0.45, 0.55],
        "true_component_index": 0,
    },
    "losses": [
        {"kind": "matrix", "label": "wide",
         "matrix": [[0.0, 0.713, 0.291, 0.867], [0.534, 0.0, 0.942, 0.178],
                    [0.826, 0.395, 0.0, 0.659]]},
        {"kind": "matrix", "label": "wider",
         "matrix": [[0.0, 0.377, 0.614, 0.253, 0.981], [0.472, 0.0, 0.138, 0.796, 0.327],
                    [0.915, 0.563, 0.0, 0.441, 0.702]]},
    ],
    "engine": {"kind": "exact"},
}
ZERO_SYMBOL = {
    "alphabet_size": 4,
    "horizon": 60,
    "mixture": {
        "components": [
            {"kind": "markov", "initial": [0.3, 0.0, 0.5, 0.2],
             "transitions": [[0.7, 0.0, 0.3, 0.0], [0.25, 0.0, 0.25, 0.5],
                             [0.1, 0.0, 0.6, 0.3], [0.45, 0.0, 0.15, 0.4]]},
            {"kind": "markov", "initial": [0.25, 0.25, 0.25, 0.25],
             "transitions": [[0.4, 0.1, 0.3, 0.2], [0.3, 0.3, 0.2, 0.2],
                             [0.2, 0.1, 0.4, 0.3], [0.25, 0.25, 0.25, 0.25]]},
        ],
        "weights": [0.6, 0.4],
        "true_component_index": 0,
    },
    "losses": [
        {"kind": "matrix", "label": "error4",
         "matrix": [[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0],
                    [1.0, 1.0, 1.0, 0.0]]},
    ],
    "schemes": [{"kind": "constant", "action": 3}, {"kind": "majority-vote"}],
    "engine": {"kind": "monte-carlo", "samples": 300, "seed": 11},
    "checks": ["convergence", "loss-bounds"],
}


def _chain(order: int, step: int) -> list:
    """The (3,)*order + (3,) transition table of an order-``order`` chain over
    three symbols.  Context c (row c of the flat table) weighs the symbols
    c + 1, 10 and 1 + (step·c mod 7), normalized: the first two tell every
    row apart."""
    rows = []
    for c in range(3 ** order):
        weights = [c + 1, 10, 1 + step * c % 7]
        rows.append([w / sum(weights) for w in weights])
    for _ in range(order):
        rows = [rows[i:i + 3] for i in range(0, len(rows), 3)]
    return rows[0]


HIGHER_ORDER = {
    "alphabet_size": 3,
    "horizon": 7,
    "mixture": {
        "components": [
            {"kind": "markov", "order": 2, "initial": [0.2, 0.5, 0.3],
             "transitions": _chain(2, 3)},
            {"kind": "markov", "order": 3, "initial": [0.45, 0.15, 0.4],
             "transitions": _chain(3, 5)},
        ],
        "weights": [0.35, 0.65],
        "true_component_index": 0,
    },
    "losses": [
        {"kind": "matrix", "label": "error3",
         "matrix": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
        {"kind": "matrix", "label": "skewed",
         "matrix": [[0.0, 0.8, 0.35], [0.6, 0.0, 0.9], [0.25, 0.7, 0.0]]},
    ],
    "schemes": [{"kind": "majority-vote"}],
    "engine": {"kind": "exact"},
}
HIGHER_ORDER_MC = {**HIGHER_ORDER, "horizon": 40,
                   "engine": {"kind": "monte-carlo", "samples": 300, "seed": 5}}


def _one_out(symbol: int) -> list:
    """1/3 on each of four symbols but ``symbol``, which gets 0."""
    return [0.0 if x == symbol else 1 / 3 for x in range(4)]


# the symbol ``WIDE``'s truth rules out after each context (c_1, c_2), row
# 4·c_1 + c_2.  The level widths are 1, 3, 9, 27, 68, 170, 359, 648, 1051,
# 1583, 2255, 3089 and 4097
_WIDE_RULED_OUT = [3, 0, 1, 3, 1, 3, 0, 3, 2, 2, 1, 2, 2, 2, 0, 2]
WIDE = {
    "alphabet_size": 4,
    "horizon": 13,
    "mixture": {
        "components": [
            {"kind": "markov", "order": 2, "initial": _one_out(2),
             "transitions": [[_one_out(_WIDE_RULED_OUT[4 * c1 + c2]) for c2 in range(4)]
                             for c1 in range(4)]},
            {"kind": "markov", "initial": [0.25] * 4, "transitions": [[0.25] * 4] * 4},
        ],
        "weights": [0.3, 0.7],
        "true_component_index": 0,
    },
    "losses": [
        {"kind": "matrix", "label": "wide4",
         "matrix": [[0.0, 0.372, 0.03, 0.123], [0.967, 0.0, 0.428, 0.524],
                    [0.873, 0.344, 0.0, 0.684], [0.355, 0.519, 0.765, 0.0]]},
    ],
    "schemes": [{"kind": "majority-vote"}],
    "engine": {"kind": "exact"},
}
WIDE_MC = {**WIDE, "horizon": 12,
           "engine": {"kind": "monte-carlo", "samples": 4097, "seed": 3}}


def _traces():
    """The three traces of the ``ratio-trace`` line."""
    from seqpred import config, measures, presets
    from seqpred.engine import ratio_trace
    from seqpred.mixture import MixtureModel

    counter = config.parse_config(presets.load_preset_dict("counterexample"))
    three = config.parse_config(presets.load_preset_dict("three-symbol"))
    three_path = three.mixture.components[three.true_index].sample(200, seed=1)
    # P(1 | h) = (2 + ones + 3 len) / (7 + 4 len) for every h of under 8 symbols
    table = {}
    for t in range(8):
        for h in itertools.product((0, 1), repeat=t):
            p = (2 + sum(h) + 3 * t) / (7 + 4 * t)
            table[h] = [1 - p, p]
    chain = measures.MarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [0.55, 0.45])
    nested = MixtureModel([measures.BernoulliMeasure(0.25),
                           measures.MarkovMeasure([[[0.6, 0.4], [0.5, 0.5]],
                                                   [[0.1, 0.9], [0.3, 0.7]]], [0.4, 0.6],
                                                  order=2)], [0.3, 0.7])
    mixed = MixtureModel([chain, measures.ExplicitTableMeasure(table, 2), nested],
                         [0.5, 0.2, 0.3])
    return [ratio_trace(counter.mixture, counter.true_index, [0] * 1000, symbol=1),
            ratio_trace(three.mixture, three.true_index, three_path),
            ratio_trace(mixed, 0, chain.sample(8, seed=3))]


def _runs(presets):
    """(label, raw config) of every run, presets first."""
    configs = [(name, presets.load_preset_dict(name)) for name in presets.PRESET_NAMES]
    configs += [(path.stem, json.loads(path.read_text()))
                for path in sorted((ROOT / "bench" / "configs").glob("*.json"))]
    configs += [("zero-symbol", ZERO_SYMBOL), ("higher-order", HIGHER_ORDER),
                ("higher-order monte-carlo", HIGHER_ORDER_MC), ("wide", WIDE),
                ("wide monte-carlo", WIDE_MC), ("lone-row", LONE_ROW)]
    for name, raw in configs:
        if name not in SEEDS:
            yield name, raw
        for seed in SEEDS.get(name, ()):
            yield f"{name} seed={seed}", {**raw, "engine": {**raw["engine"], "seed": seed}}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else ROOT / "src"))
    from seqpred import config, presets, reporting
    from seqpred.cli import main as cli_main, run_experiment

    for label, raw in _runs(presets):
        report, results = run_experiment(config.parse_config(raw))
        blob = reporting.render_series_csv(report) + reporting.report_json(report, results)
        print(f"{hashlib.sha256(blob.encode()).hexdigest()}  {label}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["check-inequalities"])
    print(f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  check-inequalities")
    blob = "\n".join(float(v).hex() for trace in _traces() for v in trace)
    print(f"{hashlib.sha256(blob.encode()).hexdigest()}  ratio-trace")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
