"""Scalarization of conditional risk measures and the equivalence suite.

Locality lets a conditional risk measure restrict to one block as a classical
convex risk measure under the conditional probabilities.  The verification
suite checks, item by item, that a dual-theoretic property holds conditionally
exactly when it holds for every per-block scalarization, and that the
conditional penalty matches the per-block classical conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .duality import (
    DualityError,
    DualVariable,
    _check_length,
    _penalty_rows,
    admissible_dual,
    penalty_map,
    stable_sublevel_check,
    verify_representation,
)
from .probspace import ConditionalValue, RandomVariable
from .riskcore import (
    CondRiskMeasure,
    ScalarizeError,
    ShrinkingPerturbationSeq,
    _check_seed,
    _check_tol,
    check_axiom,
    check_convergence_property,
)


ITEM_NAMES = {
    1: "representable",
    3: "fatou",
    4: "lebesgue",
    5: "law_invariant",
    7: "penalty_inf_compact",
}


# local-property trials run by ``scalarize`` before it restricts a measure
SCALARIZE_TRIALS = 64
SCALARIZE_SEED = 7


def _certify_local(measure: CondRiskMeasure, trials: int, seed: int) -> None:
    report = check_axiom(measure, "local_property", trials=trials, seed=seed)
    if not report.passed:
        raise ScalarizeError(
            f"{measure.label} fails the local property: {report.counterexample}"
        )


def scalarize(measure: CondRiskMeasure, block: int) -> CondRiskMeasure:
    """Restrict to one block; refuses measures without the local property.

    The local-property certificate runs first; the result is
    ``measure.restrict(block)``, a measure on ``space.block_space(block)``,
    whose padding (user measures only) is checked by ``restrict`` itself.
    """
    _certify_local(measure, SCALARIZE_TRIALS, SCALARIZE_SEED)
    return measure.restrict(block)


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

    The conditional side is the measure's closed-form penalty; the classical
    side is the grid on each block restriction, as ``fenchel`` gives it, so
    the two are independent.  A measure without a closed form would compare
    the grid with itself, so it is refused with a DualityError.  Each column
    is one ``_penalty_rows`` call for every dual, so each block is restricted
    once per call and its grid searches run in lockstep.  A dual of the
    wrong length is refused by name before the duals are stacked.  +inf
    verdicts must agree exactly.
    """
    _check_tol(tol)
    if measure.closed_form_penalty is None:
        raise DualityError(
            f"fenchel_consistency needs a closed-form penalty; {measure.label} has none"
        )
    duals = list(duals)
    if not duals:
        raise ValueError("fenchel_consistency needs at least one dual")
    _certify_local(measure, trials=32, seed=11)
    for y in duals:
        _check_length(measure.space, y.values)
    ys = np.stack([y.values for y in duals])
    cond = _penalty_rows(measure, ys)
    classical = _penalty_rows(measure, ys, closed_form=False)
    c_inf, k_inf = np.isinf(cond), np.isinf(classical)
    # deviations of the blocks where both sides are finite, 0 elsewhere
    dev = np.abs(np.subtract(cond, classical, out=np.zeros(cond.shape), where=~(c_inf | k_inf)))
    agrees = (c_inf == k_inf) & (dev <= tol)
    comparisons = [
        FenchelComparison(i, j, float(c), float(k), bool(ok))
        for i, row in enumerate(zip(cond, classical, agrees))
        for j, (c, k, ok) in enumerate(zip(*row), start=1)
    ]
    infs_ok = bool(np.all(c_inf == k_inf))
    return FenchelConsistencyReport(comparisons, float(dev.max()), infs_ok, infs_ok and bool(agrees.all()))


# -- the equivalence suite -----------------------------------------------------------


@dataclass
class ItemResult:
    number: int
    name: str
    conditional: bool
    per_atom: List[bool]
    equivalence: bool
    qualifier: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "conditional": self.conditional,
            "per_atom": self.per_atom,
            "equivalence": self.equivalence,
        }
        if self.qualifier:
            out["qualifier"] = self.qualifier
        if self.notes:
            out["notes"] = list(self.notes)
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


def _default_sequence(x: RandomVariable, n_max: int) -> ShrinkingPerturbationSeq:
    return ShrinkingPerturbationSeq(
        x, RandomVariable(np.ones(len(x))), n_max, RandomVariable(np.abs(x.values) + 1.0)
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


def _probe_level(measure: CondRiskMeasure, probes: Sequence[RandomVariable]) -> ConditionalValue:
    """One above the largest finite probe penalty of each block (1 if none is finite)."""
    vals = penalty_map(measure).rows(np.stack([p.values for p in probes]))
    levels = np.max(np.where(np.isfinite(vals), vals, -np.inf), axis=0)
    return ConditionalValue(np.where(np.isfinite(levels), levels + 1.0, 1.0))


# convergence items: tolerance and last index of the shrinking perturbation;
# law-invariance item: sampled permutations per side
CONV_TOL = 1e-3
CONV_N_MAX = 10_000
LAW_TRIALS = 200

ITEM_QUALIFIERS = {
    7: "at probe resolution",
}


def _verdicts(
    measure: CondRiskMeasure,
    items: Sequence[int],
    payoffs: List[RandomVariable],
    probes: List[RandomVariable],
    eta: Optional[ConditionalValue],
    tol: float,
    seed: int,
) -> Tuple[Dict[int, bool], List[str]]:
    """Verdict of each requested item for one measure, and the notes of item 7.

    The same checks judge the conditional measure and each block
    restriction; only the inputs differ (whole or cut to the block).
    """
    space = measure.space
    out: Dict[int, bool] = {}
    notes: List[str] = []
    if 1 in items:
        out[1] = verify_representation(measure, payoffs, tol).attained_all
    for number, prop in ((3, "fatou"), (4, "lebesgue")):
        if number in items:
            out[number] = check_convergence_property(
                measure, prop, _default_sequence(payoffs[0], CONV_N_MAX), CONV_TOL
            ).passed
    if 5 in items:
        out[5] = check_axiom(
            measure, "conditional_law_invariance", trials=LAW_TRIALS, seed=seed
        ).passed
    if 7 in items:
        r = stable_sublevel_check(space, penalty_map(measure), eta, probes)
        out[7] = r.mixing_closure_passed and all(r.inf_compact_per_block)
        notes = r.notes
    return {i: out[i] for i in items}, notes


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

    One set of item checks judges the conditional measure on the whole
    inputs, then each block restriction on the inputs cut to its block.  The
    per-block verdicts refine the single conditional verdict: at this scale
    the model-side truth value is visible atom by atom.
    """
    _check_tol(tol)
    items = sorted(set(items))
    if not items:
        raise ValueError("transfer_verify needs at least one item")
    unknown = [i for i in items if i not in ITEM_NAMES]
    if unknown:
        raise ValueError(f"unknown item numbers {unknown}; known: {sorted(ITEM_NAMES)}")
    payoffs = list(payoffs)
    if not payoffs:
        raise ValueError("transfer_verify needs at least one payoff")

    _check_seed(seed)
    space = measure.space
    _certify_local(measure, trials=64, seed=seed + 13)
    probes: List[RandomVariable] = []
    eta = None
    if 7 in items:
        probes = _probe_duals(measure, seed)
        eta = _probe_level(measure, probes)

    verdicts, notes = _verdicts(measure, items, payoffs, probes, eta, tol, seed)
    per_block = []
    for j in range(1, space.n_blocks + 1):
        per_block.append(
            _verdicts(
                measure.restrict(j),
                items,
                [RandomVariable(space.restrict(x, j)) for x in payoffs],
                [RandomVariable(space.restrict(p, j)) for p in probes],
                None if eta is None else ConditionalValue(eta.values[j - 1 : j]),
                tol,
                seed,
            )[0]
        )

    results = {}
    for i in items:
        ok, per_atom = verdicts[i], [v[i] for v in per_block]
        results[i] = ItemResult(
            i,
            ITEM_NAMES[i],
            ok,
            per_atom,
            ok == all(per_atom),
            ITEM_QUALIFIERS.get(i),
            notes if i == 7 else [],
        )
    return TransferReport(measure.label, results)
