"""Scalarization of conditional risk measures and the equivalence suite.

Locality lets a conditional risk measure restrict to one block as a classical
convex risk measure under the conditional probabilities.  The verification
suite checks, item by item, that a dual-theoretic property holds conditionally
exactly when it holds for every per-block scalarization, and that the
conditional penalty matches the per-block classical conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .duality import (
    DualityError,
    DualVariable,
    _bounded_blocks,
    _check_length,
    _penalty_rows,
    admissible_dual,
    penalty_map,
    stable_sublevel_check,
    verify_representation,
)
from .errors import _as_int
from .probspace import ConditionalValue, RandomVariable
from .riskcore import (
    CondRiskMeasure,
    ScalarizeError,
    ShrinkingPerturbationSeq,
    _check_tol,
    _convergence_blocks,
    _failing_blocks,
    _stacks,
    check_axiom,
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
    whose padding (user measures only) is checked as it is cut.
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


def fenchel_consistency(
    measure: CondRiskMeasure, duals: Sequence[DualVariable], tol: float = 1e-6
) -> FenchelConsistencyReport:
    """Conditional penalty vs per-block classical conjugate, dual by dual.

    The conditional side is the measure's closed-form penalty; the classical
    side is the grid of ``fenchel``, which never reads it, so the two are
    independent.  A measure without a closed form would compare the grid
    with itself, so it is refused with a DualityError.  Each column is one
    ``_penalty_rows`` call for every dual: the classical one cuts the blocks
    of each size once and searches all their (dual, block) pairs in
    lockstep.  A dual of the wrong length is refused by name before the
    duals are stacked.  +inf verdicts must agree exactly.
    """
    _check_tol(tol)
    if measure.closed_form_penalty is None:
        raise DualityError(f"fenchel_consistency needs a closed-form penalty; {measure.label} has none")
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
    """Admissible dual probes: the barycenter plus seeded random densities,
    normalized in one row call."""
    space = measure.space
    d = np.random.default_rng(seed).uniform(0.2, 1.8, (count - 1, space.n_atoms))
    return [RandomVariable(y) for y in np.vstack([-np.ones(space.n_atoms), admissible_dual(space, d)])]


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
    tile: int,
) -> Dict[int, np.ndarray]:
    """Verdict of each requested item on each block of ``measure``, read from
    the per-block arrays of the checks.

    Item 1 is each block's attainment over every payoff, items 3 and 4 its
    Fatou and Lebesgue verdicts on the first payoff's sequence, item 5
    whether no law-invariance trial fails there (``tile`` as
    ``riskcore._draw_trials`` takes it) and item 7 the block's own sublevel
    check, which walks no mix across blocks.
    """
    out: Dict[int, np.ndarray] = {}
    if 1 in items:
        entries = verify_representation(measure, payoffs, tol).entries
        out[1] = np.all([np.abs(e.gap) <= tol for e in entries], axis=0)
    if 3 in items or 4 in items:
        _, out[3], dev = _convergence_blocks(measure, _default_sequence(payoffs[0], CONV_N_MAX), CONV_TOL)
        out[4] = dev[-1] <= CONV_TOL
    if 5 in items:
        out[5] = ~_failing_blocks(measure, "conditional_law_invariance", LAW_TRIALS, seed, tile)
    if 7 in items:
        out[7] = _bounded_blocks(measure.space, penalty_map(measure), eta, probes)
    return {i: out[i] for i in items}


def _classical_verdicts(
    measure: CondRiskMeasure,
    items: Sequence[int],
    payoffs: List[RandomVariable],
    probes: List[RandomVariable],
    eta: Optional[ConditionalValue],
    tol: float,
    seed: int,
) -> Dict[int, List[bool]]:
    """Each block's verdict on each requested item, on the inputs cut to it.

    The blocks of each size take one ``_verdicts`` run on a stack of them
    (``riskcore._stacked``): a built-in's dense kernel, any other measure
    padded into its own space.  Item 5 there draws the trials of one block
    and repeats them on every block, so each block's verdict is that of its
    own restriction.
    """
    out = {i: np.zeros(measure.space.n_blocks, dtype=bool) for i in items}
    for blocks, part, atoms in _stacks(measure):
        cut = [[RandomVariable(v.values[atoms]) for v in vs] for vs in (payoffs, probes)]
        level = None if eta is None else ConditionalValue(eta.values[blocks])
        for i, verdict in _verdicts(part, items, *cut, level, tol, seed, len(blocks)).items():
            out[i][blocks] = verdict
    return {i: v.tolist() for i, v in out.items()}


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
    inputs.  The classical side judges each block on the inputs cut to it,
    the blocks of each size in one run on a stack of them: a built-in's
    dense classical kernel, which shares no code with the built-in's
    whole-space batch, penalty and oracle, and any other measure padded
    into its own space, with the padding checked against a fill on every
    atom outside each block.  An item's equivalence holds when the two
    sides agree on every block, so defects on different blocks cannot
    cancel out.
    """
    _check_tol(tol)
    items = sorted({_as_int(i, "item number", 1, None) for i in items})
    if not items:
        raise ValueError("transfer_verify needs at least one item")
    unknown = [i for i in items if i not in ITEM_NAMES]
    if unknown:
        raise ValueError(f"unknown item numbers {unknown}; known: {sorted(ITEM_NAMES)}")
    payoffs = list(payoffs)
    if not payoffs:
        raise ValueError("transfer_verify needs at least one payoff")

    seed = _as_int(seed, "seed", 0, None)
    _certify_local(measure, trials=64, seed=seed + 13)
    probes: List[RandomVariable] = []
    eta = None
    if 7 in items:
        probes = _probe_duals(measure, seed)
        eta = _probe_level(measure, probes)

    whole = [i for i in items if i != 7]
    conditional = {i: v.tolist() for i, v in _verdicts(measure, whole, payoffs, probes, eta, tol, seed, 1).items()}
    notes: List[str] = []
    if 7 in items:
        r = stable_sublevel_check(measure.space, penalty_map(measure), eta, probes)
        conditional[7] = r.inf_compact_per_block
        notes = r.notes
    per_block = _classical_verdicts(measure, items, payoffs, probes, eta, tol, seed)

    results = {}
    for i in items:
        cond, per_atom = conditional[i], per_block[i]
        results[i] = ItemResult(
            ITEM_NAMES[i],
            all(cond),
            per_atom,
            cond == per_atom,
            ITEM_QUALIFIERS.get(i),
            notes if i == 7 else [],
        )
    return TransferReport(measure.label, results)
