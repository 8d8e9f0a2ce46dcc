import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (
    AlgebraMismatchError,
    BooleanAlgebra,
    NotCoveringError,
    NotDisjointError,
    PartitionOfUnity,
    iter_partitions,
    lattice_ops,
    partition_validate,
)


@pytest.fixture
def alg():
    return BooleanAlgebra(2)


def test_lattice_ops_examples(alg):
    b1, b2 = alg.atom(1), alg.atom(2)
    assert (b1 & b2).mask == 0
    assert b1.implies(alg.from_mask(0)) == b2
    assert (b1 | alg.element({1, 2})) == alg.one


def test_lattice_ops_dispatch(alg):
    b1, b2 = alg.atom(1), alg.atom(2)
    assert lattice_ops(b1, b2, "meet").mask == 0
    assert lattice_ops(b1, b2, "join") == alg.one
    assert lattice_ops(b1, None, "complement") == b2
    assert lattice_ops(b1, alg.from_mask(0), "implies") == b2
    with pytest.raises(ValueError):
        lattice_ops(b1, b2, "xor")


def test_algebra_mismatch(alg):
    other = BooleanAlgebra(2)
    with pytest.raises(AlgebraMismatchError):
        alg.atom(1) & other.atom(1)


def test_element_validation(alg):
    with pytest.raises(ValueError):
        alg.element({0})
    with pytest.raises(ValueError):
        alg.element({3})
    with pytest.raises(ValueError):
        BooleanAlgebra(0)


def test_partition_examples(alg):
    b1, b2 = alg.atom(1), alg.atom(2)
    assert len(partition_validate([b1, b2])) == 2
    with pytest.raises(NotDisjointError):
        partition_validate([b1, alg.element({1, 2})])
    # zero parts are silently dropped
    assert len(partition_validate([b1, alg.from_mask(0), b2])) == 2
    with pytest.raises(NotCoveringError):
        partition_validate([b1])
    with pytest.raises(ValueError):
        partition_validate([])


def test_partition_cardinalities():
    for m in (1, 2, 3, 4):
        alg = BooleanAlgebra(m)
        for part in iter_partitions(alg):
            assert sum(len(p.atoms) for p in part) == m


def test_iter_partitions_counts():
    # Bell numbers 1, 2, 5, 15
    for m, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
        assert sum(1 for _ in iter_partitions(BooleanAlgebra(m))) == bell


masks = st.integers(min_value=0, max_value=(1 << 5) - 1)


def _elem(alg, mask):
    return alg.element({i + 1 for i in range(alg.atom_count) if mask >> i & 1})


@settings(max_examples=200, derandomize=True)
@given(masks, masks, masks)
def test_algebra_laws(ma, mb, mc):
    alg = BooleanAlgebra(5)
    a, b, c = _elem(alg, ma), _elem(alg, mb), _elem(alg, mc)
    assert ~(a | b) == (~a & ~b)
    assert ~(a & b) == (~a | ~b)
    assert (a & (b | c)) == ((a & b) | (a & c))
    assert (a | (b & c)) == ((a | b) & (a | c))
    assert ~~a == a
    assert a.implies(b) == (~a | b)
    assert (a & ~a).mask == 0 and (a | ~a) == alg.one


def test_exhaustive_laws_small():
    alg = BooleanAlgebra(3)
    elems = list(alg.elements())
    assert len(elems) == 8
    for a in elems:
        for b in elems:
            assert ~(a | b) == (~a & ~b)
            assert (a <= b) == (a.atoms <= b.atoms)
