"""The shared value base of RandomVariable, ConditionalValue and
DualVariable, and the row checks that apply each type's rule to a batch."""

import dataclasses
import re

import numpy as np
import pytest

from condrisk import (
    CondriskError,
    ConditionalValue,
    DualVariable,
    RandomVariable,
    ShrinkingPerturbationSeq,
    check_convergence_property,
    cond_worst_case,
    neg_cond_expectation,
    penalty_map,
    penalty_of,
)
from condrisk import duality


def _nan_penalty(space):
    m = neg_cond_expectation(space)
    return dataclasses.replace(m, closed_form_penalty=lambda ys: np.full((len(ys), space.n_blocks), np.nan))


def _penalty_rows(space):
    penalty_of(_nan_penalty(space), DualVariable(-np.ones(4)))


def _penalty_map_rows(space):
    penalty_map(cond_worst_case(space)).rows(np.array([[-1.0, -1.0, -1.0, -1.0], [np.inf, -1.0, -1.0, -1.0]]))


def _escapes(space):
    # every ray stays inside, so the second step, past float range, is taken
    inside = lambda v: ConditionalValue([0.0, 0.0])
    duality._escapes(inside, np.zeros(4), np.full((1, 4), 1e308), np.ones((1, 2), bool), np.zeros(2))


def _convergence_blocks(space):
    big = RandomVariable([1e308] * 4)
    with np.errstate(over="ignore"):
        check_convergence_property(neg_cond_expectation(space), ShrinkingPerturbationSeq(big, big, 4))


@pytest.mark.parametrize(
    "single, rows",
    [
        (lambda: ConditionalValue([0.0, np.nan]), _penalty_rows),
        (lambda: RandomVariable([np.inf, 0.0]), _penalty_map_rows),
        (lambda: RandomVariable([np.inf, 0.0]), _escapes),
        (lambda: RandomVariable([np.inf, 0.0]), _convergence_blocks),
    ],
    ids=["penalty_rows", "penalty_map_rows", "escapes", "convergence_blocks"],
)
def test_row_sites_raise_the_message_of_their_value_type(s4, single, rows):
    with pytest.raises(ValueError) as one:
        single()
    with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
        rows(s4)


def test_dual_variables_compare_by_value():
    y = DualVariable([-1.0, -0.5])
    assert y == DualVariable(np.array([-1, -0.5]))
    assert y != DualVariable([-1.0, -0.25])
    # equal values of another type are another value
    assert y != RandomVariable([-1.0, -0.5])
    with pytest.raises(TypeError, match="unhashable"):
        hash(y)


@pytest.mark.parametrize(
    "kind, values, message",
    [
        (RandomVariable, [[1.0]], "a random variable is a nonempty 1-d array"),
        (ConditionalValue, [], "a conditional value is a nonempty 1-d array"),
        (DualVariable, -1.0, "a dual variable is a nonempty 1-d array"),
    ],
)
def test_values_refuse_by_their_own_noun(kind, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kind(values)


def test_values_hold_one_read_only_copy():
    source = np.array([1.0, 2.0])
    x = RandomVariable(source)
    source[0] = 9.0
    assert x.values.tolist() == [1.0, 2.0] and not x.values.flags.writeable
    assert repr(-x + 1) == "RandomVariable([0.0, -1.0])" and len(x) == 2
    assert repr(DualVariable([-1])) == "DualVariable([-1.0])"


def test_conditional_values_refuse_inf_minus_inf():
    eta = ConditionalValue([np.inf, 1.0])
    assert eta + 1 == ConditionalValue([np.inf, 2.0])
    assert 2 * eta - ConditionalValue([0.0, 2.0]) == ConditionalValue([np.inf, 0.0])
    with pytest.raises(CondriskError, match=re.escape("indeterminate extended-real arithmetic (inf - inf)")):
        eta - eta


@pytest.mark.parametrize(
    "call",
    [lambda v: v + np.nan, lambda v: v * [np.nan, 1.0], lambda v: v - np.array([1.0, np.nan])],
    ids=["add_nan", "mul_nan_list", "sub_nan_array"],
)
def test_conditional_values_refuse_a_nan_operand_as_a_nan_entry(call):
    # no infinity is involved: the operand is refused by the rule a NaN entry meets
    with pytest.raises(ValueError, match="^conditional value entries must not be NaN$"):
        call(ConditionalValue([1.0, 2.0]))


def test_conditional_values_word_inf_times_zero_as_such():
    eta = ConditionalValue([np.inf, 2.0])
    assert eta * 2 == ConditionalValue([np.inf, 4.0])
    for call in (lambda: eta * 0, lambda: [0.0, 1.0] * eta, lambda: eta * ConditionalValue([0.0, 1.0])):
        with pytest.raises(CondriskError, match=re.escape("indeterminate extended-real arithmetic (inf * 0)")):
            call()
