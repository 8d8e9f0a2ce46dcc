import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (
    BooleanAlgebra,
    ConditionalValue,
    FiniteProbSpace,
    PartitionOfUnity,
    RandomVariable,
    SpaceError,
    neg_cond_expectation,
)
from condrisk.boolalg import mask_array

from _helpers import reference_layout


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
    # masses are compared by the equal-mass rule (12 decimals), not exactly:
    # 0.1 + 0.2 and 0.3 differ in their last bit
    one = FiniteProbSpace([0.1, 0.2, 0.3, 0.4], [[1, 2, 3, 4]])
    assert one.same_conditional_law(RandomVariable([1, 1, 0, 0]), RandomVariable([0, 0, 1, 0]))
    assert not one.same_conditional_law(RandomVariable([1, 1, 0, 0]), RandomVariable([0, 0, 0, 1]))


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


def test_the_space_refuses_inputs_of_the_wrong_kind(s4, a2):
    for probs in ([], [[0.5, 0.5]]):
        with pytest.raises(SpaceError, match="probs must be a nonempty 1-d array"):
            FiniteProbSpace(probs, [[1], [2]])
    x = RandomVariable([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TypeError, match="expected a RandomVariable"):
        s4.cond_expect([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TypeError, match="expected a ConditionalValue"):
        s4.lift([1.0, 2.0])
    with pytest.raises(TypeError, match="expected a PartitionOfUnity"):
        s4.indicator_mix([a2.atom(1), a2.atom(2)], [x, x])
    other = BooleanAlgebra(2)
    with pytest.raises(SpaceError, match="element does not belong to this space's block algebra"):
        s4.indicator_mix(PartitionOfUnity([other.atom(1), other.atom(2)]), [x, x])


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
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"block {j} outside 1..3"):
            call()


@pytest.mark.parametrize(
    "j, error, message",
    [
        (True, ValueError, "block must be an int, not a bool"),
        (False, ValueError, "block must be an int, not a bool"),
        (np.True_, ValueError, "block must be an int, got np.True_"),
        (1.0, ValueError, "block must be an int, got 1.0"),
        ("1", ValueError, "block must be an int, got '1'"),
        (np.int64(4), ValueError, "block 4 outside 1..3"),
    ],
)
def test_block_index_that_is_not_an_int_in_range_refused(space8, j, error, message):
    # block space 1 is in the memo first, where True would find it
    assert space8.block_space(1) is space8.block_space(1)
    x = RandomVariable(np.arange(8.0))
    calls = (
        lambda: space8.block_index_array(j),
        lambda: space8.cond_probs(j),
        lambda: space8.restrict(x, j),
        lambda: space8.block_space(j),
        lambda: neg_cond_expectation(space8).restrict(j),
    )
    for call in calls:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_numpy_integer_block_indices_are_kept(space8):
    x = RandomVariable(np.arange(8.0))
    for j in (np.int64(2), np.int32(3), np.uint8(1)):
        assert space8.block_space(j) is space8.block_space(int(j))
        assert np.array_equal(space8.cond_probs(j), space8.cond_probs(int(j)))
        assert np.array_equal(space8.restrict(x, j), space8.restrict(x, int(j)))
        assert neg_cond_expectation(space8).restrict(j).label == f"neg_expectation@block{int(j)}"


# -- construction against the per-atom reference --------------------------------------

# malformations of a block list on atoms 1..n; each may come alone or with others
FAULTS = ("empty", "range", "duplicate", "missing", "float", "string", "bool")


@st.composite
def block_lists(draw):
    """(probs, blocks, normalized): a ragged shuffled partition of the atoms,
    its indices as Python or numpy integers, with up to three malformations."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n = sum(sizes)
    atoms = draw(st.permutations(range(1, n + 1)))
    cuts = np.cumsum([0] + sizes)
    wrap = draw(st.sampled_from([int, np.int64, np.uint16, np.intp]))
    blocks = [[wrap(i) for i in atoms[a:b]] for a, b in zip(cuts[:-1], cuts[1:])]
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    for fault in faults:
        j = draw(st.integers(0, len(blocks) - 1))
        k = draw(st.integers(0, max(0, len(blocks[j]) - 1)))
        if fault == "empty":
            blocks.insert(j, [])
        elif fault == "duplicate":
            blocks[j].append(draw(st.sampled_from(atoms)))
        elif not blocks[j]:
            continue
        elif fault == "range":
            blocks[j][k] = draw(st.sampled_from([0, -1, n + 1, n + 7, 2**70]))
        elif fault == "missing":
            del blocks[j][k]
        elif fault == "float":
            i = draw(st.sampled_from(atoms))
            blocks[j][k] = draw(st.sampled_from([float(i), i + 0.5, np.float64(i)]))
        elif fault == "bool":
            blocks[j][k] = draw(st.booleans())
        else:
            blocks[j][k] = str(draw(st.sampled_from(atoms)))
    if not faults and len(set(sizes)) == 1 and draw(st.booleans()):
        blocks = np.array(blocks, dtype=np.intp)  # as the transfer stacks pass them
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
    normalized = draw(st.booleans())
    return (weights if normalized else weights / weights.sum()), blocks, normalized


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block_lists())
def test_construction_matches_the_per_atom_reference(case):
    # the constructor reads the blocks as one array and scans them only to
    # word an error: it raises the reference's message, or builds its layout
    # bit for bit, blocks included
    probs, blocks, normalized = case
    want = reference_layout(probs, blocks, normalized)
    if isinstance(want, str):
        with pytest.raises(SpaceError) as err:
            FiniteProbSpace(probs, blocks, _normalized=normalized)
        assert str(err.value) == want
        return
    space = FiniteProbSpace(probs, blocks, _normalized=normalized)
    assert "blocks" not in vars(space)
    for name, arr in want.items():
        got = getattr(space, name)
        if isinstance(arr, np.ndarray):
            assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name
        else:
            assert got == arr, name
    assert all(type(i) is int for b in space.blocks for i in b)
    assert space.n_blocks == len(want["blocks"])


@pytest.mark.parametrize(
    "blocks, error",
    [
        ([[1.7], [2]], "block 1 holds 1.7, not an integer atom index"),
        ([[1], [2.0]], "block 2 holds 2.0, not an integer atom index"),
        ([["1"], [2]], "block 1 holds '1', not an integer atom index"),
        ([[1], [np.float64(2)]], "block 2 holds np.float64(2.0), not an integer atom index"),
        (["12"], "block 1 holds '1', not an integer atom index"),
        ([[True], [2]], "block 1 holds True, not an integer atom index"),
        ([[1], [True]], "block 2 holds True, not an integer atom index"),
        ([[False, 1], [2]], "block 1 holds False, not an integer atom index"),
        ([{True}, {2}], "block 1 holds True, not an integer atom index"),
    ],
)
def test_non_integer_atom_indices_are_refused_by_block(blocks, error):
    # int() would truncate 1.7 to atom 1 and read "1" as atom 1; a bool is
    # an int to Python, and [[True], [2]] is a partition of 1..2 read as one
    with pytest.raises(SpaceError) as err:
        FiniteProbSpace([0.5, 0.5], blocks)
    assert str(err.value) == error


def test_blocks_are_built_on_first_read(space8):
    # the layout serves every block query; the tuples are built when read
    space = FiniteProbSpace(space8.probs, [[3, 1, 2], [6, 4, 5], [8, 7]])
    space.cond_probs(2), space.block_index_array(3), space.block_space(1)
    assert space.n_blocks == 3 and "blocks" not in vars(space)
    assert space.blocks == ((3, 1, 2), (6, 4, 5), (8, 7))
    assert space.blocks is space.blocks
    with pytest.raises(AttributeError):
        space.blocks = ((1, 2, 3, 4, 5, 6, 7, 8),)
