"""The int-bitmask Boolean algebra against a frozenset reference, and the mask
truth recursion against the two-valued collapse oracle at m = 8 and m = 16."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import RefElem, random_formula, random_name, reference_elements
from condrisk import (
    AlgebraMismatchError,
    BooleanAlgebra,
    BoolElem,
    NotCoveringError,
    NotDisjointError,
    PartitionOfUnity,
    Universe,
    atom_collapse,
    collapse_eval,
    evaluate,
)

# 70 atoms puts masks past one 64-bit word
ATOM_COUNTS = (1, 5, 8, 16, 70)


@st.composite
def element_pairs(draw):
    m = draw(st.sampled_from(ATOM_COUNTS))
    atoms = st.sets(st.integers(min_value=1, max_value=m))
    return m, draw(atoms), draw(atoms)


@settings(max_examples=300, derandomize=True)
@given(element_pairs())
def test_operations_match_reference(case):
    m, sa, sb = case
    alg = BooleanAlgebra(m)
    a, b = alg.element(sa), alg.element(sb)
    ra, rb = RefElem(m, sa), RefElem(m, sb)
    assert isinstance(a.atoms, frozenset) and a.atoms == ra.atoms
    assert a.mask == sum(1 << (x - 1) for x in sa)
    assert (a & b).atoms == a.meet(b).atoms == ra.meet(rb).atoms
    assert (a | b).atoms == a.join(b).atoms == ra.join(rb).atoms
    assert (~a).atoms == a.complement().atoms == ra.complement().atoms
    assert a.implies(b).atoms == ra.implies(rb).atoms
    assert (a <= b) == (ra <= rb) and (a >= b) == (ra >= rb)
    assert a.is_zero == ra.is_zero and a.is_one == ra.is_one
    assert repr(a) == repr(ra)
    assert (a == b) == (sa == sb) and (a != b) == (sa != sb)
    if sa == sb:
        assert hash(a) == hash(b)
    assert alg.from_mask(a.mask) == a
    assert BoolElem(alg, sa) == a
    for result in (a & b, a | b, ~a, a.implies(b)):
        assert result.algebra is alg
        assert 0 <= result.mask <= alg.full


@settings(max_examples=100, derandomize=True)
@given(st.sampled_from(ATOM_COUNTS), st.data())
def test_validation_matches_reference(m, data):
    alg = BooleanAlgebra(m)
    bad = data.draw(
        st.one_of(
            st.integers(max_value=0),
            st.integers(min_value=m + 1),
            st.floats(allow_nan=False),
            st.text(max_size=2),
        )
    )
    with pytest.raises(ValueError) as ref:
        RefElem(m, [bad])
    with pytest.raises(ValueError) as got:
        alg.element([bad])
    assert str(got.value) == str(ref.value)
    with pytest.raises(ValueError) as got:
        alg.atom(bad)
    assert str(got.value) == str(ref.value)
    with pytest.raises(ValueError, match=r"outside 0\.\.") as got:
        alg.from_mask(data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << m))))
    with pytest.raises(ValueError):
        alg.from_mask(float(alg.full))


def test_elements_in_mask_order():
    for m in (1, 2, 3, 4, 5):
        alg = BooleanAlgebra(m)
        listed = list(alg.elements())
        assert [e.atoms for e in listed] == reference_elements(m)
        assert [e.mask for e in listed] == list(range(1 << m))


def test_mismatch_immutability_and_constants():
    alg, other = BooleanAlgebra(3), BooleanAlgebra(3)
    a = alg.element({1, 3})
    assert a != other.element({1, 3})
    with pytest.raises(AlgebraMismatchError):
        a | other.atom(1)
    with pytest.raises(AlgebraMismatchError):
        a <= other.atom(1)
    with pytest.raises(TypeError):
        a & frozenset({1})
    with pytest.raises(AttributeError):
        a.mask = 0
    assert alg.zero.mask == 0 and alg.one.mask == alg.full == 0b111
    assert [e.atoms for e in alg.atom_elements()] == [{1}, {2}, {3}]


def test_partition_errors_name_the_atoms():
    alg = BooleanAlgebra(5)
    with pytest.raises(NotDisjointError, match=r"parts overlap on atoms \[2, 4\]"):
        PartitionOfUnity([alg.element({1, 2, 4}), alg.element({2, 3, 4, 5})])
    with pytest.raises(NotCoveringError, match=r"parts do not cover atoms \[3, 5\]"):
        PartitionOfUnity([alg.element({1, 2}), alg.element({4})])


# -- the mask truth recursion against the collapse oracle ---------------------------


def _names(universe, rng, count):
    return [random_name(universe, rng, 3) for _ in range(count)]


@pytest.mark.parametrize("m", [8, 16])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_truth_values_match_collapse_oracle(m, seed):
    rng = np.random.default_rng(seed)
    uni = Universe(BooleanAlgebra(m))
    names = _names(uni, rng, 10)
    for u in names:
        cu = [atom_collapse(u, a) for a in range(1, m + 1)]
        for v in names:
            cv = [atom_collapse(v, a) for a in range(1, m + 1)]
            eq, member = uni.truth_eq(u, v), uni.truth_in(u, v)
            assert eq.atoms == {a for a in range(1, m + 1) if cu[a - 1] == cv[a - 1]}
            assert member.atoms == {a for a in range(1, m + 1) if cu[a - 1] in cv[a - 1]}


@pytest.mark.parametrize("m", [8, 16])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_mix_matches_collapse_oracle(m, seed):
    rng = np.random.default_rng(seed)
    alg = BooleanAlgebra(m)
    uni = Universe(alg)
    labels = rng.integers(0, int(rng.integers(1, 5)), m)
    parts = [
        alg.element(int(a) + 1 for a in np.flatnonzero(labels == k)) for k in np.unique(labels)
    ]
    names = _names(uni, rng, len(parts))
    mixed = uni.mix(PartitionOfUnity(parts), names)
    for part, u in zip(parts, names):
        assert part <= uni.truth_eq(mixed, u)
        for a in part.atoms:
            assert atom_collapse(mixed, a) == atom_collapse(u, a)


@pytest.mark.parametrize("m", [8, 16])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluate_matches_collapse_eval(m, seed):
    rng = np.random.default_rng(seed)
    uni = Universe(BooleanAlgebra(m))
    for _ in range(5):
        formula = random_formula(uni, rng, 2)
        truth = evaluate(formula)
        assert truth.atoms == {a for a in range(1, m + 1) if collapse_eval(formula, a)}
