"""Command-line interface: scenario ingestion, command dispatch, JSON reports.

Exit codes: 0 when every requested check passes, 1 when a check fails (the
report is still emitted), 2 on input errors.  Numbers are serialized at 12
significant digits, infinities as the strings "inf"/"-inf", and Boolean truth
values as sorted atom-index arrays.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional

import numpy as np

from . import bvm, formulalang
from .boolalg import BoolElem, PartitionOfUnity, mask_atoms
from .duality import DualVariable, penalty_of, verify_representation
from .errors import CondriskError, ParseError
from .probspace import FiniteProbSpace, RandomVariable
from .riskcore import _KERNELS, BUILTIN_FACTORIES, CondRiskMeasure, check_all_axioms
from .transfer import transfer_verify


class ScenarioError(CondriskError):
    pass


@dataclass
class Scenario:
    space: FiniteProbSpace
    measures: List[CondRiskMeasure]
    payoffs: List[RandomVariable]


def _fmt(value):
    """Round floats to 12 significant digits; keep JSON strictly valid."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, int):  # a bool included, which JSON spells true or false
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, BoolElem):
        return mask_atoms(value.mask)
    if isinstance(value, np.ndarray):
        return [_fmt(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit(payload) -> None:
    print(json.dumps(_fmt(payload), indent=None, separators=(",", ":")))


# the Python types json.load gives each JSON type, matched exactly: numpy
# reads a JSON true as 1 and a string as the number it spells
_JSON = {"number": {int, float}, "integer": {int}, "array": {list}, "object": {dict}}

# field: (JSON type of its entries, depths of the arrays around them, 0 for
# a bare entry, and its value when absent: None refuses a required field)
_SCENARIO = {
    "probs": ("number", (1,), None),
    "blocks": ("integer", (2,), None),
    "measures": ("object", (1,), []),
    "payoffs": ("number", (2,), []),
}
# a measure object: its kind (None: checked first, as it picks the table) and parameter
_MEASURES = {
    kind: {"kind": None, **({param: ("number", (0, 1), None)} if param else {})}
    for kind, (*_, param) in _KERNELS.items()
}


def _check(name: str, value, spec):
    """``value``, refused unless it has the type ``spec`` declares for the field
    ``name``; the refusal of an array of arrays names the row at fault."""
    noun, depths, _ = spec
    entries, types, depth = (value,), {type(value)}, 0
    while types <= _JSON["array"] and depth < depths[-1]:
        entries = list(chain.from_iterable(entries)) if depth else value
        types, depth = set(map(type, entries)), depth + 1
    if depth in depths and types <= _JSON[noun]:
        # int and float compare exactly; a float past the range loads as inf, refused later
        if noun != "number" or int not in types or not any(map(sys.float_info.max.__lt__, map(abs, entries))):
            return value
        fault = "an integer past the float range"
    else:
        forms = (f"a JSON {noun}", f"an array of JSON {noun}s", f"an array of arrays of JSON {noun}s")
        fault = f"expected {' or '.join(forms[d] for d in depths)}"
    if depths == (2,) and type(value) is list:
        for k, row in enumerate(value):
            _check(f"{name}[{k}]", row, (noun, (1,), None))
    raise ScenarioError(f"{name}: {fault}")


def _fields(prefix: str, obj: dict, table: dict) -> dict:
    """The fields of ``obj`` checked as ``table`` declares and named with ``prefix``; no other keys."""
    if not obj.keys() <= table.keys():
        key = min(obj.keys() - table.keys())
        raise ScenarioError(f"{prefix}{key}: not one of the fields {sorted(table)}")
    out = {}
    for key, spec in table.items():
        if spec:
            out[key] = _check(prefix + key, obj.get(key, spec[2]), spec)
    return out


def _named(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a refusal by the library names the field ``name``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, CondriskError) as exc:
        raise ScenarioError(f"{name}: {exc}") from None


def _per_atom(name: str, values: list, n: int, build):
    """``build(values)`` for the field ``name``, one number for each of ``n`` atoms."""
    if len(values) != n:
        raise ScenarioError(f"{name}: expected an array of {n} numbers")
    return _named(name, build, values)


def ingest(path: str) -> Scenario:
    """Load and validate a scenario file; errors name the offending field."""
    try:
        # JSON text is UTF-8; a text-mode file costs more to open than to parse
        with open(path, "rb", buffering=0) as fh:
            raw = json.loads(fh.read().decode())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON: {exc}") from None
    fields = _fields("", _check("scenario", raw, ("object", (0,), None)), _SCENARIO)

    probs = fields["probs"]
    if not min(probs, default=0) > 0:
        raise ScenarioError("probs: entries must be positive numbers")
    # the builtin sum, not numpy's pairwise one, so the masses divide as before
    total = float(sum(probs))
    if not abs(total - 1.0) <= 1e-9:  # a NaN too
        raise ScenarioError(f"probs sum {total:.12g}")
    space = _named("blocks", FiniteProbSpace, np.array(probs, dtype=float) / total, fields["blocks"])

    measures = []
    for k, desc in enumerate(fields["measures"]):
        name, kind = f"measures[{k}]", desc.get("kind")
        if type(kind) is not str or kind not in _MEASURES:
            raise ScenarioError(f"{name}.kind: {kind!r} is not one of {sorted(_MEASURES)}")
        params = _fields(f"{name}.", desc, _MEASURES[kind])
        measures.append(_named(name, BUILTIN_FACTORIES[kind], space, **params))

    n = space.n_atoms
    payoffs = [_per_atom(f"payoffs[{k}]", v, n, RandomVariable) for k, v in enumerate(fields["payoffs"])]
    return Scenario(space, measures, payoffs)


def _pick_measure(scenario: Scenario, key: str) -> CondRiskMeasure:
    for m in scenario.measures:
        if m.label == key:
            return m
    if key.isdecimal() and int(key) < len(scenario.measures):
        return scenario.measures[int(key)]
    raise ScenarioError(f"no measure {key!r} in the scenario")


def _pick_payoff(scenario: Scenario, index: Optional[int]) -> List[RandomVariable]:
    """The payoff at ``index``, or every payoff when ``index`` is None."""
    payoffs = scenario.payoffs
    if not payoffs:
        raise ScenarioError("the scenario has no payoffs")
    if index is None:
        return payoffs
    if not 0 <= index < len(payoffs):
        raise ScenarioError(f"payoff index {index} outside 0..{len(payoffs) - 1}")
    return [payoffs[index]]


# -- command handlers: each takes the parsed arguments, the scenario and the
# measure (None when the command has no --measure), and returns its report


def _cmd_space_validate(args, scenario, _):
    return {"atoms": scenario.space.n_atoms, "blocks": scenario.space.n_blocks}


def _cmd_risk_eval(args, scenario, measure):
    (payoff,) = _pick_payoff(scenario, args.payoff)
    return measure.evaluate(payoff).values


def _cmd_risk_check_axioms(args, scenario, measure):
    reports = check_all_axioms(measure, trials=args.trials, seed=args.seed)
    return {
        "measure": measure.label,
        "axioms": {name: r.to_dict() for name, r in reports.items()},
        "passed": all(r.passed for r in reports.values()),
    }


def _cmd_dual_penalty(args, scenario, measure):
    values = _check("--y", _named("--y", json.loads, args.y), ("number", (1,), None))
    y = _per_atom("--y", values, scenario.space.n_atoms, DualVariable)
    return {"measure": measure.label, "y": y.values, "penalty": penalty_of(measure, y).values}


def _cmd_dual_represent(args, scenario, measure):
    report = verify_representation(measure, _pick_payoff(scenario, args.payoff), tol=args.tol)
    return {"measure": measure.label, **report.to_dict(), "passed": report.attained_all}


def _cmd_transfer_verify(args, scenario, measure):
    payoffs = _pick_payoff(scenario, None)
    try:
        items = [int(s) for s in args.items.split(",") if s]
    except ValueError:
        raise ScenarioError(f"--items: cannot parse {args.items!r}") from None
    report = transfer_verify(measure, items, payoffs, tol=args.tol)
    return {**report.to_dict(), "passed": report.all_equivalences_hold}


def _cmd_bvm_eval(args, scenario, _):
    universe = bvm.Universe(scenario.space.algebra)
    env = {}
    for binding in args.bind or []:
        if "=" not in binding:
            raise ScenarioError(f"--bind needs NAME=<literal>, got {binding!r}")
        key, literal = binding.split("=", 1)
        env[key.strip()] = bvm.parse_name_literal(literal.strip(), universe)
    formula = formulalang.parse(args.formula, universe, free_names=env.keys())
    return {"truth": formulalang.evaluate(formula, env)}


def _cmd_bvm_mix(args, scenario, _):
    universe = bvm.Universe(scenario.space.algebra)
    parts = [bvm.parse_atom_set(part.strip(), universe.algebra) for part in args.parts.split(";")]
    names = [bvm.parse_name_literal(lit.strip(), universe) for lit in args.names.split(";")]
    mixed = universe.mix(PartitionOfUnity(parts), names)
    return {"name": bvm.name_to_literal(mixed), "rank": mixed.rank, "canonical_id": mixed.canonical_id}


_MEASURE = ("--measure", {"required": True})
_TOL = ("--tol", {"type": float, "default": 1e-6})

# group: (its help, {command: (its handler, its arguments after --scenario,
# each a name and the keywords of add_argument)})
_COMMANDS = {
    "space": ("scenario inspection", {"validate": (_cmd_space_validate, [])}),
    "risk": ("risk evaluation and axiom checks", {
        "eval": (_cmd_risk_eval, [_MEASURE, ("--payoff", {"type": int, "required": True})]),
        "check-axioms": (_cmd_risk_check_axioms, [
            _MEASURE, ("--trials", {"type": int, "default": 100}), ("--seed", {"type": int, "default": 0}),
        ]),
    }),
    "dual": ("penalties and dual representations", {
        "penalty": (_cmd_dual_penalty, [
            _MEASURE, ("--y", {"required": True, "help": "JSON array, one value per sample atom"}),
        ]),
        "represent": (_cmd_dual_represent, [_MEASURE, ("--payoff", {"type": int}), _TOL]),
    }),
    "transfer": ("conditional vs per-block equivalences", {
        "verify": (_cmd_transfer_verify, [_MEASURE, ("--items", {"default": "1,3,4,5,7"}), _TOL]),
    }),
    "bvm": ("Boolean-valued model operations", {
        "eval": (_cmd_bvm_eval, [("formula", {}), ("--bind", {"action": "append", "metavar": "NAME=<literal>"})]),
        "mix": (_cmd_bvm_mix, [
            ("--parts", {"required": True, "help": "atom sets separated by ';'"}),
            ("--names", {"required": True, "help": "name literals separated by ';'"}),
        ]),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of ``_COMMANDS``, built once per process:
    parsing leaves it unchanged, and building it costs far more than a parse."""
    top = argparse.ArgumentParser(prog="condrisk", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    for group, (help_text, commands) in _COMMANDS.items():
        subparsers = groups.add_parser(group, help=help_text).add_subparsers(dest="command", required=True)
        for command, (handler, arguments) in commands.items():
            p = subparsers.add_parser(command)
            # optional to argparse, so that its absence gets a JSON refusal
            p.add_argument("--scenario", help="path to a scenario JSON file")
            for name, keywords in arguments:
                p.add_argument(name, **keywords)
            p.set_defaults(handler=handler)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if not args.scenario:
            raise ScenarioError("this command needs --scenario")
        scenario = ingest(args.scenario)
        measure = _pick_measure(scenario, args.measure) if "measure" in vars(args) else None
        report = args.handler(args, scenario, measure)
    except ParseError as exc:
        _emit({"error": str(exc), "position": exc.pos})
        return 2
    except (CondriskError, ValueError) as exc:
        _emit({"error": str(exc)})
        return 2
    _emit(report)
    return 1 if isinstance(report, dict) and not report.get("passed", True) else 0


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
