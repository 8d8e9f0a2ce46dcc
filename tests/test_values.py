"""The shared value base of RandomVariable, ConditionalValue and
DualVariable, and the row checks that apply each type's rule to a batch."""

import dataclasses
import re

import numpy as np
import pytest

from condrisk import (
    BooleanAlgebra,
    BoolElem,
    CondriskError,
    ConditionalValue,
    DualVariable,
    FiniteProbSpace,
    RandomVariable,
    ShrinkingPerturbationSeq,
    Universe,
    atom_collapse,
    check_axiom,
    check_convergence_property,
    collapse_eval,
    cond_worst_case,
    neg_cond_expectation,
    parse,
    penalty_map,
    penalty_of,
    transfer_verify,
    verify_interp_props,
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
    duality._escapes(inside, space, np.zeros(4), np.full((1, 4), 1e308), np.zeros(2))


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


# -- the integer rule ----------------------------------------------------------------
# Every atom, block, mask, count, seed and item number is read by one rule: an int
# or a numpy integer is taken as a Python int, and everything else is refused with
# a ValueError.  A bounded argument names its fault; a count or a seed (no upper
# bound) is refused in one sentence whatever the fault.

_ALG = BooleanAlgebra(4)
_SPACE = FiniteProbSpace([0.125, 0.375, 0.25, 0.25], [[2, 1], [4, 3]])
_UNI = Universe(_ALG)
_NAME = _UNI.make_name({_UNI.empty: _ALG.from_mask(0b1010)})
_FORMULA = parse("empty in u", _UNI, free_names={"u"})
_MEASURE = neg_cond_expectation(_SPACE)
_X = RandomVariable([1.0, 3.0, 2.0, 6.0])

# name: (call of one value, what the refusal names, lo, hi, an int in range, the
# part of the result an int and its numpy twin must share)
ENTRY_POINTS = {
    "atom_count": (BooleanAlgebra, "atom_count", 1, None, 3, lambda a: (a.atom_count, type(a.atom_count), a.full)),
    "element": (lambda v: _ALG.element([1, v]), "atom index", 1, 4, 3, lambda e: (id(e), type(e.mask))),
    "atom": (_ALG.atom, "atom index", 1, 4, 3, lambda e: (id(e), type(e.mask))),
    "constructor": (lambda v: BoolElem(_ALG, [v]), "atom index", 1, 4, 3, lambda e: (e, type(e.mask))),
    "from_mask": (_ALG.from_mask, "mask", 0, 15, 6, lambda e: (id(e), type(e.mask))),
    "block_space": (_SPACE.block_space, "block", 1, 2, 2, id),
    "cond_probs": (_SPACE.cond_probs, "block", 1, 2, 2, lambda q: q.tolist()),
    "atom_collapse": (lambda v: atom_collapse(_NAME, v), "atom", 1, 4, 2, id),
    "collapse_eval": (lambda v: collapse_eval(_FORMULA, v, {"u": _NAME}), "atom", 1, 4, 4, bool),
    "trials": (
        lambda v: check_axiom(_MEASURE, "convexity", trials=v),
        "trials", 1, None, 3, lambda r: (r.to_dict(), type(r.trials)),
    ),
    "axiom_seed": (
        lambda v: check_axiom(_MEASURE, "convexity", trials=2, seed=v),
        "seed", 0, None, 5, lambda r: r.to_dict(),
    ),
    "samples": (
        lambda v: verify_interp_props(_SPACE, samples=v),
        "samples", 1, None, 2, lambda r: [(c.name, c.passed) for c in r.checks],
    ),
    "interp_seed": (
        lambda v: verify_interp_props(_SPACE, samples=1, seed=v),
        "seed", 0, None, 5, lambda r: [(c.name, c.passed) for c in r.checks],
    ),
    "n_max": (lambda v: ShrinkingPerturbationSeq(_X, _X, v), "n_max", 1, None, 3, lambda q: (q.n_max, type(q.n_max))),
    "item": (lambda v: transfer_verify(_MEASURE, [v], [_X]), "item number", 1, None, 4, lambda r: r.to_dict()),
    "transfer_seed": (
        lambda v: transfer_verify(_MEASURE, [5], [_X], seed=v),
        "seed", 0, None, 5, lambda r: r.to_dict(),
    ),
}


def _out_of_range(lo, hi):
    # a seed takes every np.uint8, so it meets the one negative numpy integer
    return np.int8(-1) if hi is None and lo == 0 else np.uint8(0 if hi is None else hi + 1)


def _refusal(what, lo, hi, value):
    if hi is None:
        return f"{what} must be a {'positive' if lo else 'non-negative'} integer, got {value!r}"
    if isinstance(value, bool):
        return f"{what} must be an int, not a bool"
    if isinstance(value, np.integer):
        return f"{what} {int(value)} outside {lo}..{hi}"
    return f"{what} must be an int, got {value!r}"


@pytest.mark.parametrize(
    "value",
    [True, False, np.True_, 2.0, "2", None, "in_range", "out_of_range"],
    ids=["True", "False", "np.True_", "2.0", "'2'", "None", "in_range", "out_of_range"],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_one_integer_rule_at_every_entry_point(entry, value):
    call, what, lo, hi, plain, same = ENTRY_POINTS[entry]
    if value == "in_range":
        # a numpy integer gives what its int gives, and no element's mask is
        # anything but a Python int
        want = same(call(plain))
        assert [same(call(wrap(plain))) for wrap in (np.int64, np.uint8)] == [want, want]
        assert all(type(e.mask) is int for e in _ALG._interned.values())
        return
    if value == "out_of_range":
        value = _out_of_range(lo, hi)
    with pytest.raises(ValueError) as err:
        call(value)
    assert type(err.value) is ValueError and str(err.value) == _refusal(what, lo, hi, value)
