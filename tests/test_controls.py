"""Control rows: each verdict of the transfer suite and of fenchel_consistency
is shown a measure with one seeded defect on block 2 of s4, and must say no
there and only there, with the conditional verdict still matching the
per-block ones."""

import dataclasses

import numpy as np
import pytest

from _helpers import ceil_measure
from condrisk import (
    ConditionalValue,
    CondRiskMeasure,
    RandomVariable,
    admissible_dual,
    cond_entropic,
    fenchel_consistency,
    neg_cond_expectation,
    transfer_verify,
)


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


def tilted(space):
    """-E[x | F] plus a tilt between the two atoms of block 2, which have the
    same mass: conditional law invariance fails there."""

    def ev(x):
        vals = -space.cond_expect(x).values
        vals[1] += 0.1 * (x.values[2] - x.values[3])
        return ConditionalValue(vals)

    return CondRiskMeasure(space, ev, "tilted")


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
    "item 2, penalty 0 everywhere": item(2, lambda s: free_penalty(cond_entropic(s, 1.0))),
    "item 3, ceiling": item(3, ceil_measure),
    "item 4, ceiling": item(4, ceil_measure),
    "item 5, tilt": item(5, tilted),
    "item 7, penalty 0 everywhere": item(7, lambda s: free_penalty(neg_cond_expectation(s))),
    "fenchel_consistency, penalty shifted": fenchel_verdicts,
}


@pytest.mark.parametrize("control", CONTROLS)
def test_verdict_says_no_on_the_broken_block_only(s4, control):
    conditional, per_block, equivalence = CONTROLS[control](s4)
    assert not conditional
    assert per_block == [True, False]
    assert equivalence
