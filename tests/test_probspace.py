import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (
    ConditionalValue,
    FiniteProbSpace,
    PartitionOfUnity,
    RandomVariable,
    SpaceError,
)
from condrisk.boolalg import mask_array


def test_cond_expect_examples(s4):
    assert np.array_equal(s4.cond_expect(RandomVariable([5, 5, 5, 5])).values, [5, 5])
    assert np.array_equal(s4.cond_expect(RandomVariable([1, 3, 2, 6])).values, [2, 4])
    assert np.array_equal(s4.cond_expect(RandomVariable([1, -1, 0, 0])).values, [0, 0])


def test_cond_expect_length_mismatch(s4):
    with pytest.raises(SpaceError):
        s4.cond_expect(RandomVariable([1, 2, 3]))


def test_indicator_mix_examples(s4, a2):
    b1, b2 = a2.atom(1), a2.atom(2)
    parts = PartitionOfUnity([b1, b2])
    out = s4.indicator_mix(parts, [RandomVariable([1] * 4), RandomVariable([5] * 4)])
    assert np.array_equal(out.values, [1, 1, 5, 5])

    x = RandomVariable([3, 1, 4, 1])
    assert s4.indicator_mix(PartitionOfUnity([a2.one]), [x]) == x

    out = s4.indicator_mix(
        PartitionOfUnity([b2, b1]), [RandomVariable([9] * 4), RandomVariable([7] * 4)]
    )
    assert np.array_equal(out.values, [7, 7, 9, 9])


def test_indicator_mix_count_mismatch(s4, a2):
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    with pytest.raises(SpaceError):
        s4.indicator_mix(parts, [RandomVariable([1] * 4)])


def test_esssup_examples(s4):
    assert np.array_equal(s4.esssup_cond(RandomVariable([1, 3, 2, 6])).values, [3, 6])


def test_conditional_law_examples(s4):
    x = RandomVariable([1, 3, 2, 6])
    assert s4.same_conditional_law(x, RandomVariable([3, 1, 6, 2]))
    assert not s4.same_conditional_law(x, RandomVariable([1, 3, 6, 6]))
    cdf = s4.cond_cdf(x, ConditionalValue([1, 6]))
    assert np.array_equal(cdf.values, [0.5, 1.0])


@st.composite
def uneven_spaces(draw):
    """Shuffled atoms in uneven blocks; masses from 1..3, so blocks hold
    groups of atoms of equal mass next to atoms of other masses."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(sizes)
    atoms = draw(st.permutations(range(1, n + 1)))
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), float)
    blocks = [b.tolist() for b in np.split(np.array(atoms), np.cumsum(sizes)[:-1])]
    return FiniteProbSpace(weights / weights.sum(), blocks), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(uneven_spaces())
def test_conditional_law_does_not_depend_on_atom_order(case):
    space, seed = case
    rng = np.random.default_rng(seed)
    x = RandomVariable(rng.permutation(space.n_atoms) / 7.0)
    groups, other_mass = [], []
    for j in range(1, space.n_blocks + 1):
        idx = space.block_index_array(j)
        q = space.cond[idx]
        groups += [idx[q == mass] for mass in np.unique(q)]
        if np.unique(q).size > 1:
            other_mass.append((idx[0], idx[np.argmax(q != q[0])]))
    # every permutation within the equal-mass atoms of a block keeps the law
    for _ in range(20):
        perm = np.arange(space.n_atoms)
        for group in groups:
            perm[group] = rng.permutation(perm[group])
        assert space.same_conditional_law(x, RandomVariable(x.values[perm]))
    # a value moved to an atom of another mass changes it (the values are distinct)
    for a, b in other_mass:
        moved = x.values.copy()
        moved[[a, b]] = moved[[b, a]]
        assert not space.same_conditional_law(x, RandomVariable(moved))


def test_tower_property(s4):
    rng = np.random.default_rng(5)
    coarse = FiniteProbSpace(s4.probs, [[1, 2, 3, 4]])
    for _ in range(25):
        x = RandomVariable(rng.normal(0, 3, 4))
        inner = s4.lift(s4.cond_expect(x))
        outer = coarse.cond_expect(inner).values[0]
        assert abs(outer - float(np.dot(s4.probs, x.values))) <= 1e-12


def test_mix_linearity_exact(s4, a2):
    rng = np.random.default_rng(6)
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    for _ in range(25):
        xs = [RandomVariable(rng.normal(0, 2, 4)) for _ in range(2)]
        mixed = s4.cond_expect(s4.indicator_mix(parts, xs)).values
        paste = [s4.cond_expect(xs[0]).values[0], s4.cond_expect(xs[1]).values[1]]
        assert np.array_equal(mixed, paste)


def test_esssup_dominates_mean(s4):
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = RandomVariable(rng.normal(0, 2, 4))
        assert np.all(s4.esssup_cond(x).values >= s4.cond_expect(x).values)


def test_space_validation_errors():
    with pytest.raises(SpaceError):
        FiniteProbSpace([0.5, 0.4], [[1], [2]])  # sums to 0.9
    with pytest.raises(SpaceError):
        FiniteProbSpace([0.5, 0.5], [[1], []])  # empty block
    with pytest.raises(SpaceError):
        FiniteProbSpace([0.5, 0.5], [[1], [5]])  # out of range
    with pytest.raises(SpaceError):
        FiniteProbSpace([0.5, 0.5], [[1], [1, 2]])  # duplicated atom
    with pytest.raises(SpaceError):
        FiniteProbSpace([0.5, 0.5], [[1]])  # not covering
    with pytest.raises(SpaceError):
        FiniteProbSpace([0.5, -0.5], [[1], [2]])


def test_value_type_guards():
    with pytest.raises(ValueError):
        RandomVariable([1.0, np.inf])
    with pytest.raises(ValueError):
        ConditionalValue([np.nan])
    assert not ConditionalValue([1.0, np.inf]).is_finite
    with pytest.raises(Exception):
        ConditionalValue([np.inf]) - ConditionalValue([np.inf])


def test_lift_and_indicator(s4, a2):
    lifted = s4.lift(ConditionalValue([2.0, -1.0]))
    assert np.array_equal(lifted.values, [2, 2, -1, -1])
    assert np.array_equal(s4.broadcast(mask_array(a2.atom(2).mask, 2)), [0, 0, 1, 1])
    with pytest.raises(SpaceError):
        s4.lift(ConditionalValue([np.inf, 0.0]))


def test_block_space_carries_conditional_probs_bitwise(space8):
    for j in (1, 2, 3):
        bs = space8.block_space(j)
        assert bs.n_blocks == 1
        assert np.array_equal(bs.probs, space8.cond_probs(j))
        assert np.array_equal(bs.cond_probs(1), space8.cond_probs(j))


@pytest.mark.parametrize("j", [0, -1, 4])
def test_block_index_out_of_range_refused(space8, j):
    x = RandomVariable(np.arange(8.0))
    calls = (
        lambda: space8.block_index_array(j),
        lambda: space8.cond_probs(j),
        lambda: space8.restrict(x, j),
        lambda: space8.block_space(j),
        lambda: space8.extend([1.0, 2.0], j),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"block {j} outside 1..3"):
            call()


def test_extend_refuses_a_mismatched_block_shape(s4):
    with pytest.raises(SpaceError):
        s4.extend([5.0], 1)
    with pytest.raises(SpaceError):
        s4.extend(5.0, 1)
    assert np.array_equal(s4.extend([5.0, 6.0], 2, fill=1.0).values, [1, 1, 5, 6])
