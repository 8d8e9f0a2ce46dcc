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
from typing import List, Optional

import numpy as np

from . import bvm, formulalang
from .boolalg import BoolElem, PartitionOfUnity, mask_atoms
from .duality import DualVariable, penalty_of, verify_representation
from .errors import CondriskError, ParseError
from .probspace import FiniteProbSpace, RandomVariable, SpaceError
from .riskcore import BUILTIN_FACTORIES, CondRiskMeasure, check_all_axioms
from .transfer import transfer_verify


class ScenarioError(CondriskError):
    pass


@dataclass
class Scenario:
    space: FiniteProbSpace
    measures: List[CondRiskMeasure]
    payoffs: List[RandomVariable]

    def to_dict(self) -> dict:
        """Canonical JSON form; ingest(dump(to_dict())) is structurally equal."""
        measures = []
        for m in self.measures:
            desc = {"kind": m.label}
            if "gamma" in m.params:
                desc["gamma"] = [float(g) for g in m.params["gamma"]]
            if "lambda" in m.params:
                desc["lambda"] = [float(v) for v in m.params["lambda"]]
            measures.append(desc)
        return {
            "probs": self.space.probs.tolist(),
            "blocks": [list(b) for b in self.space.blocks],
            "measures": measures,
            "payoffs": [x.values.tolist() for x in self.payoffs],
        }


def _fmt(value):
    """Round floats to 12 significant digits; keep JSON strictly valid."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(f"{v:.12g}")
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


def _refuse_bools(name: str, value) -> None:
    """JSON true/false load as Python bools, which numpy takes as 1 and 0:
    refuse them, alone or as array entries, where a number is expected."""
    if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        raise ScenarioError(f"{name}: expected numbers, not JSON booleans")


def ingest(path: str) -> Scenario:
    """Load and validate a scenario file; errors name the offending field."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")

    probs = raw.get("probs")
    if not isinstance(probs, list) or not probs:
        raise ScenarioError("probs: expected a nonempty array")
    if any(isinstance(p, bool) or not isinstance(p, (int, float)) or p <= 0 for p in probs):
        raise ScenarioError("probs: entries must be positive numbers")
    total = float(sum(probs))
    if abs(total - 1.0) > 1e-9:
        raise ScenarioError(f"probs sum {total:.12g}")
    probs = [p / total for p in probs]

    blocks = raw.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise ScenarioError("blocks: expected a nonempty array of index arrays")
    try:
        space = FiniteProbSpace(probs, blocks)
    except SpaceError as exc:
        raise ScenarioError(f"blocks: {exc}") from None

    measures = []
    for k, desc in enumerate(raw.get("measures", [])):
        if not isinstance(desc, dict) or "kind" not in desc:
            raise ScenarioError(f"measures[{k}]: expected an object with a 'kind'")
        kind = desc["kind"]
        if kind not in BUILTIN_FACTORIES:
            raise ScenarioError(
                f"measures[{k}].kind: {kind!r} is not one of {sorted(BUILTIN_FACTORIES)}"
            )
        kwargs = {}
        if kind == "entropic":
            if "gamma" not in desc:
                raise ScenarioError(f"measures[{k}]: entropic needs 'gamma'")
            _refuse_bools(f"measures[{k}].gamma", desc["gamma"])
            kwargs["gamma"] = desc["gamma"]
        if kind == "avar":
            if "lambda" not in desc:
                raise ScenarioError(f"measures[{k}]: avar needs 'lambda'")
            _refuse_bools(f"measures[{k}].lambda", desc["lambda"])
            kwargs["lambda"] = desc["lambda"]
        try:
            measures.append(BUILTIN_FACTORIES[kind](space, **kwargs))
        except (ValueError, CondriskError) as exc:
            raise ScenarioError(f"measures[{k}]: {exc}") from None

    payoffs = []
    for k, arr in enumerate(raw.get("payoffs", [])):
        if not isinstance(arr, list) or len(arr) != space.n_atoms:
            raise ScenarioError(
                f"payoffs[{k}]: expected an array of {space.n_atoms} numbers"
            )
        _refuse_bools(f"payoffs[{k}]", arr)
        try:
            payoffs.append(RandomVariable(arr))
        except ValueError as exc:
            raise ScenarioError(f"payoffs[{k}]: {exc}") from None

    return Scenario(space, measures, payoffs)


def _pick_measure(scenario: Scenario, key: str) -> CondRiskMeasure:
    for m in scenario.measures:
        if m.label == key:
            return m
    if key.isdecimal() and int(key) < len(scenario.measures):
        return scenario.measures[int(key)]
    raise ScenarioError(f"no measure {key!r} in the scenario")


def _pick_payoff(scenario: Scenario, index: int) -> RandomVariable:
    if not 0 <= index < len(scenario.payoffs):
        raise ScenarioError(f"payoff index {index} outside 0..{len(scenario.payoffs) - 1}")
    return scenario.payoffs[index]


def _need_scenario(args) -> Scenario:
    if not args.scenario:
        raise ScenarioError("this command needs --scenario")
    return ingest(args.scenario)


# -- command handlers ---------------------------------------------------------------


def _cmd_space_validate(args) -> int:
    scenario = _need_scenario(args)
    _emit({"atoms": scenario.space.n_atoms, "blocks": scenario.space.n_blocks})
    return 0


def _cmd_risk_eval(args) -> int:
    scenario = _need_scenario(args)
    measure = _pick_measure(scenario, args.measure)
    payoff = _pick_payoff(scenario, args.payoff)
    _emit(measure.evaluate(payoff).values)
    return 0


def _cmd_risk_check_axioms(args) -> int:
    scenario = _need_scenario(args)
    measure = _pick_measure(scenario, args.measure)
    reports = check_all_axioms(measure, trials=args.trials, seed=args.seed)
    payload = {
        "measure": measure.label,
        "axioms": {name: r.to_dict() for name, r in reports.items()},
        "passed": all(r.passed for r in reports.values()),
    }
    _emit(payload)
    return 0 if payload["passed"] else 1


def _cmd_dual_penalty(args) -> int:
    scenario = _need_scenario(args)
    measure = _pick_measure(scenario, args.measure)
    try:
        values = json.loads(args.y)
        _refuse_bools("--y", values)
        y = DualVariable(values)
    except (json.JSONDecodeError, ValueError) as exc:
        raise ScenarioError(f"--y: {exc}") from None
    if len(y) != scenario.space.n_atoms:
        raise ScenarioError(f"--y: expected {scenario.space.n_atoms} entries")
    _emit({"measure": measure.label, "y": y.values, "penalty": penalty_of(measure, y).values})
    return 0


def _cmd_dual_represent(args) -> int:
    scenario = _need_scenario(args)
    measure = _pick_measure(scenario, args.measure)
    payoffs = (
        [_pick_payoff(scenario, args.payoff)] if args.payoff is not None else scenario.payoffs
    )
    if not payoffs:
        raise ScenarioError("the scenario has no payoffs")
    report = verify_representation(measure, payoffs, tol=args.tol)
    payload = {"measure": measure.label, **report.to_dict(), "passed": report.attained_all}
    _emit(payload)
    return 0 if report.attained_all else 1


def _cmd_transfer_verify(args) -> int:
    scenario = _need_scenario(args)
    measure = _pick_measure(scenario, args.measure)
    if not scenario.payoffs:
        raise ScenarioError("the scenario has no payoffs")
    try:
        items = [int(s) for s in args.items.split(",") if s]
    except ValueError:
        raise ScenarioError(f"--items: cannot parse {args.items!r}") from None
    try:
        report = transfer_verify(measure, items, scenario.payoffs, tol=args.tol)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    payload = {**report.to_dict(), "passed": report.all_equivalences_hold}
    _emit(payload)
    return 0 if report.all_equivalences_hold else 1


def _universe_for(args) -> bvm.Universe:
    scenario = _need_scenario(args)
    return bvm.Universe(scenario.space.algebra)


def _cmd_bvm_eval(args) -> int:
    universe = _universe_for(args)
    env = {}
    for binding in args.bind or []:
        if "=" not in binding:
            raise ScenarioError(f"--bind needs NAME=<literal>, got {binding!r}")
        key, literal = binding.split("=", 1)
        env[key.strip()] = bvm.parse_name_literal(literal.strip(), universe)
    formula = formulalang.parse(args.formula, universe, free_names=env.keys())
    truth = formulalang.evaluate(formula, env)
    _emit({"truth": truth})
    return 0


def _cmd_bvm_mix(args) -> int:
    universe = _universe_for(args)
    parts = [
        bvm.parse_atom_set(part.strip(), universe.algebra)
        for part in args.parts.split(";")
    ]
    names = [
        bvm.parse_name_literal(lit.strip(), universe) for lit in args.names.split(";")
    ]
    partition = PartitionOfUnity(parts)
    mixed = universe.mix(partition, names)
    _emit(
        {
            "name": bvm.name_to_literal(mixed),
            "rank": mixed.rank,
            "canonical_id": mixed.canonical_id,
        }
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs far more than a parse."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="path to a scenario JSON file")

    top = argparse.ArgumentParser(prog="condrisk", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    space = groups.add_parser("space", help="scenario inspection")
    space_cmds = space.add_subparsers(dest="command", required=True)
    p = space_cmds.add_parser("validate", parents=[common])
    p.set_defaults(handler=_cmd_space_validate)

    risk = groups.add_parser("risk", help="risk evaluation and axiom checks")
    risk_cmds = risk.add_subparsers(dest="command", required=True)
    p = risk_cmds.add_parser("eval", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--payoff", type=int, required=True)
    p.set_defaults(handler=_cmd_risk_eval)
    p = risk_cmds.add_parser("check-axioms", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_risk_check_axioms)

    dual = groups.add_parser("dual", help="penalties and dual representations")
    dual_cmds = dual.add_subparsers(dest="command", required=True)
    p = dual_cmds.add_parser("penalty", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--y", required=True, help="JSON array, one value per sample atom")
    p.set_defaults(handler=_cmd_dual_penalty)
    p = dual_cmds.add_parser("represent", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--payoff", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_dual_represent)

    transfer_p = groups.add_parser("transfer", help="conditional vs per-block equivalences")
    transfer_cmds = transfer_p.add_subparsers(dest="command", required=True)
    p = transfer_cmds.add_parser("verify", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--items", default="1,3,4,5,7")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_transfer_verify)

    bvm_p = groups.add_parser("bvm", help="Boolean-valued model operations")
    bvm_cmds = bvm_p.add_subparsers(dest="command", required=True)
    p = bvm_cmds.add_parser("eval", parents=[common])
    p.add_argument("formula")
    p.add_argument("--bind", action="append", metavar="NAME=<literal>")
    p.set_defaults(handler=_cmd_bvm_eval)
    p = bvm_cmds.add_parser("mix", parents=[common])
    p.add_argument("--parts", required=True, help="atom sets separated by ';'")
    p.add_argument("--names", required=True, help="name literals separated by ';'")
    p.set_defaults(handler=_cmd_bvm_mix)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        _emit({"error": str(exc), "position": exc.pos})
        return 2
    except (ScenarioError, CondriskError, ValueError) as exc:
        _emit({"error": str(exc)})
        return 2


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
