"""Control rows: each verdict of the transfer suite, of fenchel_consistency,
of check_axiom, of verify_interp_props and of the sublevel walk is shown one
seeded defect on block 2 of s4, and must say no there.  The transfer rows
must also say yes on block 1, with the conditional verdict still matching
the per-block ones.  A defect in the conditional batch code alone must fail
the conditional side only, and defects on different blocks of the two sides
must not cancel out.  A strict xfail at the end records a defect that
the checks do not see yet."""

import dataclasses

import numpy as np
import pytest

from _helpers import ceil_measure
from condrisk import (
    AXIOMS,
    ConditionalValue,
    CondRiskMeasure,
    FiniteProbSpace,
    RandomVariable,
    admissible_dual,
    check_axiom,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    fenchel_consistency,
    neg_cond_expectation,
    stable_sublevel_check,
    transfer_verify,
    verify_interp_props,
)
from condrisk import bvm, riskcore


def shifted_penalty(measure):
    """A copy whose closed-form penalty is 1 too high on block 2."""
    pen = measure.closed_form_penalty
    return dataclasses.replace(measure, closed_form_penalty=lambda ys: pen(ys) + [0.0, 1.0])


def free_penalty(measure):
    """A copy whose closed-form penalty is 0 for every dual on block 2."""
    pen = measure.closed_form_penalty

    def penalty(ys):
        out = pen(ys)
        out[:, 1] = 0.0
        return out

    return dataclasses.replace(measure, closed_form_penalty=penalty)


def on_block_2(space, extra):
    """-E[x | F] plus ``extra`` of the payoff's values on block 2."""

    def ev(x):
        vals = -space.cond_expect(x).values
        vals[1] += extra(x.values)
        return ConditionalValue(vals)

    return CondRiskMeasure(space, ev, "defect on block 2")


# the defect that breaks each axiom on block 2 (atoms 3 and 4, of one mass)
AXIOM_DEFECTS = {
    "convexity": lambda v: -0.1 * abs(v[2] - v[3]),  # concave
    "monotonicity": lambda v: abs(v[2] - v[3]),  # rises faster than -E[x | F] falls
    "cash_invariance": lambda v: -(v[2] + v[3]) / 2,  # -2 E[x | F]
    "local_property": lambda v: 0.1 * abs(v[0] - v[1]),  # reads block 1
    "conditional_law_invariance": lambda v: 0.1 * (v[2] - v[3]),  # a tilt
}


X = RandomVariable([0.3, -1.2, 1.0, 3.0])  # block 2 has mean exactly 2


def item(number, make):
    def verdicts(s4):
        r = transfer_verify(make(s4), [number], [X]).items[number]
        return r.conditional, r.per_atom, r.equivalence

    return verdicts


def fenchel_verdicts(s4):
    rng = np.random.default_rng(3)
    duals = [admissible_dual(s4, rng.uniform(0.2, 1.8, 4)) for _ in range(3)]
    rep = fenchel_consistency(shifted_penalty(cond_entropic(s4, 1.0)), duals)
    per_block = [all(c.agrees for c in rep.comparisons if c.atom == j) for j in (1, 2)]
    return rep.passed, per_block, rep.passed == all(per_block)


CONTROLS = {
    "item 1, penalty shifted": item(1, lambda s: shifted_penalty(neg_cond_expectation(s))),
    "item 3, ceiling": item(3, ceil_measure),
    "item 4, ceiling": item(4, ceil_measure),
    "item 5, tilt": item(5, lambda s: on_block_2(s, AXIOM_DEFECTS["conditional_law_invariance"])),
    "item 7, penalty 0 everywhere": item(7, lambda s: free_penalty(neg_cond_expectation(s))),
    "fenchel_consistency, penalty shifted": fenchel_verdicts,
}


@pytest.mark.parametrize("control", CONTROLS)
def test_verdict_says_no_on_the_broken_block_only(s4, control):
    conditional, per_block, equivalence = CONTROLS[control](s4)
    assert not conditional
    assert per_block == [True, False]
    assert equivalence


def swap_last_two(two_sorts):
    """``riskcore._two_sorts`` with the atoms at its last two places swapped:
    the masses and payoffs stay sorted, so AVaR's risk holds, but its dual
    oracle gives the tail mass of one of those atoms to the other."""

    def broken(*args):
        mass, vals, order = two_sorts(*args)
        return mass, vals, order[:, [*range(order.shape[1] - 2), -1, -2]]

    return broken


def test_a_defect_in_the_conditional_batch_code_fails_that_side_alone(monkeypatch, s4):
    # cond_avar's whole-space batch and oracle sort through _two_sorts; the
    # classical side is the dense kernel, which shares no code with them.
    # On s4 the last two places are block 2's atoms, so the oracle's dual
    # falls short of rho(x) there
    m = cond_avar(s4, 0.5)
    rho = m.evaluate(X).values
    monkeypatch.setattr(riskcore, "_two_sorts", swap_last_two(riskcore._two_sorts))
    assert np.array_equal(cond_avar(s4, 0.5).evaluate(X).values, rho)
    r = transfer_verify(cond_avar(s4, 0.5), [1], [X]).items[1]
    assert (r.conditional, r.per_atom, r.equivalence) == (False, [True, True], False)


def reverse_block_1(oracle):
    """A dense kernel oracle whose weights on the stack's first block come in
    reverse order: on s4 the classical side then misses rho(x) on block 1."""

    def broken(x, q, lam):
        w = oracle(x, q, lam)
        w[..., 0, :] = w[..., 0, ::-1].copy()
        return w

    return broken


# payoffs whose block 2 fails item 1 under swap_last_two: X does, and Y,
# tied on block 2, does not
Y = RandomVariable([0.3, -1.2, 2.0, 2.0])
# row: (swap_last_two on, reverse_block_1 on, payoffs, verdicts of item 1)
DEFECT_ROWS = {
    "conditional block 2, classical block 1": (True, True, [X], (False, [False, True], False)),
    "conditional block 2 on the second payoff": (True, False, [Y, X], (False, [True, True], False)),
    "classical block 1 alone": (False, True, [X], (True, [False, True], False)),
}


@pytest.mark.parametrize("row", DEFECT_ROWS)
def test_item_1_compares_the_two_sides_block_by_block(monkeypatch, s4, row):
    # defects on different blocks must not cancel out, and item 1 reads
    # every payoff on the conditional side
    conditional_defect, classical_defect, payoffs, verdicts = DEFECT_ROWS[row]
    if conditional_defect:
        monkeypatch.setattr(riskcore, "_two_sorts", swap_last_two(riskcore._two_sorts))
    if classical_defect:
        risk, penalty, oracle, name = riskcore._KERNELS["avar"]
        monkeypatch.setitem(riskcore._KERNELS, "avar", (risk, penalty, reverse_block_1(oracle), name))
    r = transfer_verify(cond_avar(s4, 0.5), [1], payoffs).items[1]
    assert (r.conditional, r.per_atom, r.equivalence) == verdicts


def admit_nonpositive(admissible, block, top):
    """``admissible`` that also admits every dual <= 0 on ``block`` (0-based),
    with ``top(*args)`` each block's largest dual entry: the worst case's
    penalty is then 0 on duals that are not densities there, and its
    sublevel set is unbounded."""

    def broken(*args):
        ok = admissible(*args)
        ok[..., block] |= top(*args)[..., block] <= riskcore.ADMISSIBLE_TOL
        return ok

    return broken


def test_item_7_compares_the_two_sides_block_by_block(monkeypatch, s4):
    # the conditional penalty admits too much on block 2, the classical
    # kernel on block 1 of the stack: each side fails one block, and the
    # two verdicts must not cancel out into an equivalence
    monkeypatch.setattr(
        riskcore, "_admissible_mask", admit_nonpositive(riskcore._admissible_mask, 1, lambda s, y: s.block_max(y))
    )
    monkeypatch.setattr(
        riskcore, "_dense_admissible", admit_nonpositive(riskcore._dense_admissible, 0, lambda q, y: y.max(axis=-1))
    )
    r = transfer_verify(cond_worst_case(s4), [7], [X]).items[7]
    assert (r.conditional, r.per_atom, r.equivalence) == (False, [False, True], False)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_axiom_says_no_on_the_broken_block(s4, axiom):
    report = check_axiom(on_block_2(s4, AXIOM_DEFECTS[axiom]), axiom)
    assert not report.passed
    assert report.counterexample["block"] == 2


def flip_atom_2(truth):
    """A truth-value map that is wrong on atom 2 and right elsewhere."""

    def broken(*args):
        t = truth(*args)
        return t.algebra.from_mask(t.mask ^ 0b10)

    return broken


def bump_atom_2(mix):
    """A mixing map whose result is 1 too high on atom 2."""
    return lambda partition, reals: ConditionalValue(mix(partition, reals).values + [0.0, 1.0])


INTERP_DEFECTS = {
    "real_truth_joins": ("real_eq_truth", flip_atom_2),
    "mixing": ("mix_reals", bump_atom_2),
    "l1_truth_joins": ("l1_eq_truth", flip_atom_2),
}


@pytest.mark.parametrize("check", INTERP_DEFECTS)
def test_interp_check_says_no_on_a_map_broken_on_atom_2(monkeypatch, s4, check):
    target, breaking = INTERP_DEFECTS[check]
    monkeypatch.setattr(bvm, target, breaking(getattr(bvm, target)))
    report = verify_interp_props(s4, samples=20, seed=0)
    assert [c.name for c in report.checks if not c.passed] == [check]


def sublevel(s4, block_2):
    """The sublevel walk of f = max |v| per block at level 1, with block 2's
    value replaced by ``block_2(v, f(v))``, over the constant members 0 and
    0.8."""

    def f(v):
        vals = s4.block_max(np.abs(v.values))
        vals[1] = block_2(v.values, vals[1])
        return ConditionalValue(vals)

    probes = [RandomVariable(np.full(4, c)) for c in (0.0, 0.8)]
    return stable_sublevel_check(s4, f, ConditionalValue([1.0, 1.0]), probes)


def test_mixing_closure_says_no_on_a_map_that_couples_blocks_1_and_2(s4):
    # the mix 0 on block 1, 0.8 on block 2 has value 0.8 + 0.8 on block 2
    rep = sublevel(s4, lambda v, value: value + abs(v[0] - v[2]))
    assert not rep.mixing_closure_passed


def test_boundedness_says_no_on_a_map_that_is_0_on_block_2(s4):
    rep = sublevel(s4, lambda v, value: 0.0)
    assert rep.bounded_per_block == [True, False]


# -- known misses: each passes a defect it should catch --------------------------


def minus_first_atom():
    """rho(x) = -x_1 on one block of masses 1/2, 1/4, 1/4: not law invariant,
    as x = (1, 0, 0) and x' = (0, 1, 1) have one law and risks -1 and 0."""
    space = FiniteProbSpace([0.5, 0.25, 0.25], [[1, 2, 3]])
    return CondRiskMeasure(space, lambda x: ConditionalValue(-x.values[:1]), "minus first atom")


def test_minus_first_atom_is_not_law_invariant():
    m = minus_first_atom()
    x, x2 = RandomVariable([1.0, 0.0, 0.0]), RandomVariable([0.0, 1.0, 1.0])
    assert m.space.same_conditional_law(x, x2)
    assert (m.evaluate(x).values.tolist(), m.evaluate(x2).values.tolist()) == ([-1.0], [0.0])


@pytest.mark.xfail(strict=True, reason="law invariance swaps only atoms of equal mass")
def test_law_invariance_sees_a_same_law_pair_of_unequal_masses():
    m = minus_first_atom()
    assert not check_axiom(m, "conditional_law_invariance", trials=200).passed
    assert not transfer_verify(m, [5], [RandomVariable([1.0, 0.0, 0.0])]).items[5].conditional


def coupled_walk(block):
    """The walk on 12 singleton blocks over 5 constant members at level 0.5,
    of a map whose block 1 value is |v_1 - v_block|: a mix that gives the two
    blocks different members leaves the set.  5^12 choices pass the cap, so
    the walk takes a covering array, in which every pair of blocks takes
    every pair of members."""
    space = FiniteProbSpace(np.full(12, 1 / 12), [[j] for j in range(1, 13)])

    def f(v):
        vals = np.zeros(12)
        vals[0] = abs(v.values[0] - v.values[block - 1])
        return ConditionalValue(vals)

    probes = [RandomVariable(np.full(12, float(c))) for c in range(5)]
    return stable_sublevel_check(space, f, ConditionalValue(np.full(12, 0.5)), probes)


def test_mixing_walk_catches_blocks_1_and_12_coupled():
    rep = coupled_walk(12)
    assert rep.members == 5 and not rep.mixing_closure_passed


def test_mixing_walk_catches_blocks_1_and_2_coupled():
    rep = coupled_walk(2)
    assert not rep.mixing_closure_passed
