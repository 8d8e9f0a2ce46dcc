"""Scalarization of conditional risk measures and the equivalence suite.

Locality lets a conditional risk measure restrict to one block as a classical
convex risk measure under the conditional probabilities.  The verification
suite checks, item by item, that a dual-theoretic property holds conditionally
exactly when it holds for every per-block scalarization, and that the
conditional penalty matches the per-block classical conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .duality import (
    DualVariable,
    admissible_dual,
    fenchel,
    penalty_map,
    penalty_of,
    stable_sublevel_check,
    verify_representation,
)
from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable
from .riskcore import (
    CondRiskMeasure,
    EventuallyConstantSeq,
    ShrinkingPerturbationSeq,
    check_axiom,
    check_convergence_property,
)


class ScalarizeError(CondriskError):
    pass


ITEM_NAMES = {
    1: "representable",
    2: "attains_representation",
    3: "fatou",
    4: "lebesgue",
    5: "law_invariant",
    6: "lower_semicontinuous",
    7: "penalty_inf_compact",
}


@dataclass
class ScalarRiskMeasure:
    """Restriction of a local conditional risk measure to one block."""

    block: int
    space: FiniteProbSpace  # single-block space under the conditional probabilities
    parent: CondRiskMeasure
    label: str

    def evaluate(self, xi) -> float:
        """Risk of a payoff on the block, extended by zero elsewhere."""
        return float(self.as_cond_measure().evaluate(RandomVariable(xi)).values[0])

    def as_cond_measure(self) -> CondRiskMeasure:
        """The same measure viewed conditionally over the trivial algebra."""
        return self.parent.restrict(self.block)


# local-property trials run by ``scalarize`` before it restricts a measure
SCALARIZE_TRIALS = 64
SCALARIZE_SEED = 7


def scalarize(measure: CondRiskMeasure, atom: int, *, certify: bool = True) -> ScalarRiskMeasure:
    """Restrict to one block; refuses measures without the local property.

    Well-definedness (independence from the off-block extension) is asserted
    by evaluating two different extensions and comparing exactly.
    """
    space = measure.space
    k = space.block_index_array(atom).size
    if certify:
        report = check_axiom(
            measure, "local_property", trials=SCALARIZE_TRIALS, seed=SCALARIZE_SEED
        )
        if not report.passed:
            raise ScalarizeError(
                f"{measure.label} fails the local property: {report.counterexample}"
            )
    for probe in (np.zeros(k), np.linspace(-1.0, 1.0, k)):
        lo = measure.evaluate(space.extend(probe, atom, fill=0.0)).values[atom - 1]
        hi = measure.evaluate(space.extend(probe, atom, fill=17.5)).values[atom - 1]
        if lo != hi:
            raise ScalarizeError(
                f"block {atom} restriction depends on the extension: {lo!r} vs {hi!r}"
            )
    return ScalarRiskMeasure(atom, space.block_space(atom), measure, measure.label)


# -- Fenchel consistency -----------------------------------------------------------


@dataclass
class FenchelComparison:
    dual_index: int
    atom: int
    conditional: float
    classical: float
    agrees: bool


@dataclass
class FenchelConsistencyReport:
    comparisons: List[FenchelComparison]
    max_deviation: float
    infinities_agree: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "infinities_agree": self.infinities_agree,
            "passed": self.passed,
            "comparisons": [
                {
                    "dual": c.dual_index,
                    "atom": c.atom,
                    "conditional": c.conditional,
                    "classical": c.classical,
                    "agrees": c.agrees,
                }
                for c in self.comparisons
            ],
        }


def fenchel_consistency(
    measure: CondRiskMeasure,
    duals: Sequence[DualVariable],
    tol: float = 1e-6,
) -> FenchelConsistencyReport:
    """Conditional penalty vs per-block classical conjugate, dual by dual.

    The conditional side uses the measure's own penalty route; the classical
    side always recomputes by the numeric grid, so the two columns are
    independent.  +inf verdicts must agree exactly.
    """
    space = measure.space
    report = check_axiom(measure, "local_property", trials=32, seed=11)
    if not report.passed:
        raise ScalarizeError(f"{measure.label} fails the local property")
    blocks = [
        scalarize(measure, j, certify=False).as_cond_measure()
        for j in range(1, space.n_blocks + 1)
    ]
    comparisons = []
    max_dev = 0.0
    infs_ok = True
    for i, y in enumerate(duals):
        cond = penalty_of(measure, y).values
        for j in range(1, space.n_blocks + 1):
            yj = DualVariable(y.values[space.block_index_array(j)])
            classical = float(fenchel(blocks[j - 1], yj, "grid_refine").values[0])
            c = float(cond[j - 1])
            if math.isinf(c) or math.isinf(classical):
                ok = math.isinf(c) and math.isinf(classical)
                infs_ok = infs_ok and ok
            else:
                dev = abs(c - classical)
                max_dev = max(max_dev, dev)
                ok = dev <= tol
            comparisons.append(FenchelComparison(i, j, c, classical, ok))
    passed = infs_ok and all(c.agrees for c in comparisons)
    return FenchelConsistencyReport(comparisons, max_dev, infs_ok, passed)


# -- the equivalence suite -----------------------------------------------------------


@dataclass
class ItemResult:
    number: int
    name: str
    conditional: bool
    per_atom: List[bool]
    equivalence: bool
    qualifier: Optional[str] = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "conditional": self.conditional,
            "per_atom": self.per_atom,
            "equivalence": self.equivalence,
        }
        if self.qualifier:
            out["qualifier"] = self.qualifier
        return out


@dataclass
class TransferReport:
    measure: str
    items: Dict[int, ItemResult]

    @property
    def all_equivalences_hold(self) -> bool:
        return all(item.equivalence for item in self.items.values())

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "items": {str(k): v.to_dict() for k, v in sorted(self.items.items())},
            "all_equivalences_hold": self.all_equivalences_hold,
        }


def _default_sequences(x: RandomVariable, n_max: int):
    ones = RandomVariable(np.ones(len(x)))
    dominator = RandomVariable(np.abs(x.values) + 1.0)
    return [
        ShrinkingPerturbationSeq(x, ones, n_max, dominator),
        EventuallyConstantSeq((x + 1.0, x + 0.5), x, dominator),
    ]


def _restrict_sequence(seq, space: FiniteProbSpace, j: int):
    def cut(rv: RandomVariable) -> RandomVariable:
        return RandomVariable(space.restrict(rv, j))

    if isinstance(seq, ShrinkingPerturbationSeq):
        dom = None if seq.dominator is None else cut(seq.dominator)
        return ShrinkingPerturbationSeq(cut(seq.x), cut(seq.d), seq.n_max, dom)
    return EventuallyConstantSeq(
        tuple(cut(t) for t in seq.terms), cut(seq.tail), cut(seq.dominator)
    )


def _probe_duals(measure: CondRiskMeasure, seed: int, count: int = 5) -> List[RandomVariable]:
    """Admissible dual probes: the barycenter plus seeded random densities."""
    space = measure.space
    rng = np.random.default_rng(seed)
    probes = [RandomVariable(-np.ones(space.n_atoms))]
    for _ in range(count - 1):
        d = rng.uniform(0.2, 1.8, space.n_atoms)
        probes.append(RandomVariable(admissible_dual(space, d).values))
    return probes


# convergence items: tolerance and last index of the shrinking perturbation;
# law-invariance item: sampled permutations per side
CONV_TOL = 1e-3
CONV_N_MAX = 10_000
LAW_TRIALS = 200


def transfer_verify(
    measure: CondRiskMeasure,
    items: Sequence[int],
    payoffs: Sequence[RandomVariable],
    tol: float = 1e-6,
    *,
    seed: int = 0,
) -> TransferReport:
    """Check the requested equivalences between the conditional measure and
    its per-block scalarizations on shared payoffs, sequences, and probes.

    The per-block verdicts refine the single conditional verdict: at this
    scale the model-side truth value is visible atom by atom.
    """
    items = sorted(set(items))
    unknown = [i for i in items if i not in ITEM_NAMES]
    if unknown:
        raise ValueError(f"unknown item numbers {unknown}; known: {sorted(ITEM_NAMES)}")
    payoffs = list(payoffs)
    if not payoffs:
        raise ValueError("transfer_verify needs at least one payoff")

    space = measure.space
    local = check_axiom(measure, "local_property", trials=64, seed=seed + 13)
    if not local.passed:
        raise ScalarizeError(
            f"{measure.label} fails the local property: {local.counterexample}"
        )
    scalars = [
        scalarize(measure, j, certify=False) for j in range(1, space.n_blocks + 1)
    ]
    block_measures = [s.as_cond_measure() for s in scalars]
    restricted_payoffs = [
        [RandomVariable(space.restrict(x, j)) for x in payoffs]
        for j in range(1, space.n_blocks + 1)
    ]

    results: Dict[int, ItemResult] = {}

    if 1 in items or 2 in items:
        cond_rep = verify_representation(measure, payoffs, tol)
        atom_reps = [
            verify_representation(block_measures[j - 1], restricted_payoffs[j - 1], tol)
            for j in range(1, space.n_blocks + 1)
        ]
        if 1 in items:
            cond_ok = cond_rep.attained_all
            per_atom = [r.attained_all for r in atom_reps]
            results[1] = ItemResult(
                1, ITEM_NAMES[1], cond_ok, per_atom, cond_ok == all(per_atom)
            )
        if 2 in items:
            cond_ok = cond_rep.attained_all and all(
                e.maximizer.is_admissible(space) for e in cond_rep.entries
            )
            per_atom = [
                r.attained_all
                and all(e.maximizer.is_admissible(bm.space) for e in r.entries)
                for r, bm in zip(atom_reps, block_measures)
            ]
            results[2] = ItemResult(
                2, ITEM_NAMES[2], cond_ok, per_atom, cond_ok == all(per_atom)
            )

    for number, prop in ((3, "fatou"), (4, "lebesgue")):
        if number not in items:
            continue
        seqs = _default_sequences(payoffs[0], CONV_N_MAX)
        cond_ok = all(
            check_convergence_property(measure, prop, s, CONV_TOL).passed for s in seqs
        )
        per_atom = []
        for j in range(1, space.n_blocks + 1):
            cut = [_restrict_sequence(s, space, j) for s in seqs]
            per_atom.append(
                all(
                    check_convergence_property(block_measures[j - 1], prop, s, CONV_TOL).passed
                    for s in cut
                )
            )
        results[number] = ItemResult(
            number, ITEM_NAMES[number], cond_ok, per_atom, cond_ok == all(per_atom)
        )

    if 5 in items:
        cond_ok = check_axiom(
            measure, "conditional_law_invariance", trials=LAW_TRIALS, seed=seed
        ).passed
        per_atom = [
            check_axiom(
                block_measures[j - 1],
                "conditional_law_invariance",
                trials=LAW_TRIALS,
                seed=seed,
            ).passed
            for j in range(1, space.n_blocks + 1)
        ]
        results[5] = ItemResult(
            5, ITEM_NAMES[5], cond_ok, per_atom, cond_ok == all(per_atom)
        )

    if 6 in items:
        # every finite convex map on a finite space is continuous: both sides
        # always pass, and reports must say so rather than claim evidence
        per_atom = [True] * space.n_blocks
        results[6] = ItemResult(
            6, ITEM_NAMES[6], True, per_atom, True, qualifier="vacuous at finite scale"
        )

    if 7 in items:
        probes = _probe_duals(measure, seed)
        pen = penalty_map(measure)
        finite_levels = []
        for p in probes:
            vals = pen(p).values
            finite_levels.append(np.where(np.isfinite(vals), vals, -np.inf))
        levels = np.max(np.stack(finite_levels), axis=0)
        eta = ConditionalValue(np.where(np.isfinite(levels), levels + 1.0, 1.0))
        cond_report = stable_sublevel_check(space, pen, eta, probes)
        cond_ok = cond_report.mixing_closure_passed and all(
            cond_report.inf_compact_per_block
        )
        per_atom = []
        for j in range(1, space.n_blocks + 1):
            bm = block_measures[j - 1]
            cut = [RandomVariable(space.restrict(p, j)) for p in probes]
            r = stable_sublevel_check(
                bm.space,
                penalty_map(bm),
                ConditionalValue([eta.values[j - 1]]),
                cut,
            )
            per_atom.append(r.mixing_closure_passed and r.inf_compact_per_block[0])
        results[7] = ItemResult(
            7,
            ITEM_NAMES[7],
            cond_ok,
            per_atom,
            cond_ok == all(per_atom),
            qualifier="at probe resolution",
        )

    return TransferReport(measure.label, results)
