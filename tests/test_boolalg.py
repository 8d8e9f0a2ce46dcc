import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_name
from condrisk import (
    AlgebraMismatchError,
    BooleanAlgebra,
    BoolElem,
    NotCoveringError,
    NotDisjointError,
    PartitionOfUnity,
    Universe,
    iter_partitions,
    lattice_ops,
    partition_validate,
)
from condrisk import boolalg
from condrisk.boolalg import MEMO_CAP, mask_atoms


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


@pytest.mark.parametrize(
    "make, message",
    [
        # an atom count is a count, refused in the one sentence of a count
        (lambda alg: BooleanAlgebra(True), "atom_count must be a positive integer, got True"),
        (lambda alg: alg.from_mask(True), "mask must be an int, not a bool"),
        (lambda alg: alg.from_mask(False), "mask must be an int, not a bool"),
        (lambda alg: alg.atom(True), "atom index must be an int, not a bool"),
        (lambda alg: alg.element([True]), "atom index must be an int, not a bool"),
        (lambda alg: alg.element([2, False]), "atom index must be an int, not a bool"),
        (lambda alg: BoolElem(alg, [True]), "atom index must be an int, not a bool"),
    ],
    ids=["atom_count", "mask_true", "mask_false", "atom", "element", "element_false", "constructor"],
)
def test_a_bool_is_refused_where_the_algebra_takes_an_integer(alg, make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(alg)
    # the refusal stores nothing: the table still hands out int masks
    assert type(alg.atom(1).mask) is int and type(alg.from_mask(1).mask) is int
    assert all(type(e.mask) is int for e in alg._interned.values())


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


def test_reprs():
    alg = BooleanAlgebra(3)
    assert repr(alg) == "BooleanAlgebra(atoms=3)"
    assert repr(alg.element({1, 3})) == "{1,3}" and repr(alg.from_mask(0)) == "{}"
    parts = PartitionOfUnity([alg.element({1, 3}), alg.atom(2)])
    assert repr(parts) == "PartitionOfUnity([{1,3}, {2}])"


# -- one element per mask ------------------------------------------------------------


def _assert_equals_a_fresh_element(e):
    fresh = BoolElem(e.algebra, mask_atoms(e.mask))
    assert e is not fresh and e == fresh and fresh == e and hash(e) == hash(fresh)
    assert (e.mask, e.atoms, repr(e)) == (fresh.mask, fresh.atoms, repr(fresh))


def _read_past_a_clear(alg):
    """Read new masks from the top until the element table is cleared."""
    table = alg._interned
    for k in range(2 * MEMO_CAP):
        size = len(table)
        alg.from_mask(alg.full - k)
        assert len(table) <= MEMO_CAP
        if len(table) < size:
            return
    raise AssertionError("the element table was never cleared")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_interned_results_equal_fresh_elements(data):
    m = data.draw(st.sampled_from((1, 8, 16, 17, 70)))
    alg = BooleanAlgebra(m)
    uni = Universe(alg)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = [random_name(uni, rng, 2) for _ in range(4)]

    def reads():
        a = alg.from_mask(data.draw(st.integers(min_value=0, max_value=alg.full)))
        b = alg.element(data.draw(st.lists(st.integers(min_value=1, max_value=m), max_size=6)))
        u, v = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
        k = data.draw(st.integers(min_value=1, max_value=m))
        return [a, b, alg.atom(k), alg.one, a & b, a | b, ~a, a.implies(b), uni.truth_eq(u, v), uni.truth_in(u, v)]

    held = reads()
    for e in held:
        _assert_equals_a_fresh_element(e)
        assert alg.from_mask(e.mask) is e  # below the cap: one element per mask
    if 1 << m > MEMO_CAP and data.draw(st.booleans()):
        _read_past_a_clear(alg)
        for e in held + reads():
            _assert_equals_a_fresh_element(e)
            assert alg.from_mask(e.mask) == e


def test_the_element_table_is_cleared_at_its_cap():
    alg = BooleanAlgebra(16)
    sizes = []
    for mask in range(MEMO_CAP + 10):
        assert alg.from_mask(mask).mask == mask
        sizes.append(len(alg._interned))
    assert max(sizes) == MEMO_CAP
    assert sizes[-1] < MEMO_CAP  # cleared
    one = alg.one
    assert one is alg.one and ~alg.from_mask(0) is one


def test_concurrent_reads_across_clears(monkeypatch):
    # a small cap clears the table often while six threads read overlapping masks
    monkeypatch.setattr(boolalg, "MEMO_CAP", 32)
    alg = BooleanAlgebra(16)
    sizes, wrong = [], []

    def work(k):
        rng = np.random.default_rng(k % 3)
        for mask in map(int, rng.integers(0, 1 << 10, 2000)):
            e = alg.from_mask(mask)
            if (e.mask, e.atoms, (~e).mask) != (mask, frozenset(mask_atoms(mask)), alg.full ^ mask):
                wrong.append(mask)
            sizes.append(len(alg._interned))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # each thread that passed the cap check before another's insert adds one
    assert max(sizes) <= 32 + len(threads) - 1


# tracemalloc peaks with the table full and every element's .atoms read, on
# Python 3.11: 3.45 MB at 16 atoms (masks of 13 to 16 atoms, each set kept)
# and 1.07 MB at 1,000 (masks of atom 1,000 and up to 12 of atoms 17..28,
# no set kept: kept, they would add about 3 MB)
FULL_TABLE_PEAK_BYTES = {16: 4_500_000, 1000: 1_500_000}


@pytest.mark.parametrize("m", sorted(FULL_TABLE_PEAK_BYTES))
def test_a_full_element_table_stays_within_its_memory_bound(m):
    tracemalloc.start()
    try:
        alg = BooleanAlgebra(m)
        for k in range(MEMO_CAP):
            alg.from_mask(alg.full - k if m == 16 else 1 << 999 | k << 16)
        assert len(alg._interned) == MEMO_CAP
        for e in list(alg._interned.values()):
            assert len(e.atoms) == e.mask.bit_count()
            assert (e.atoms is e.atoms) == (m == 16)  # kept below 2^16 only
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < FULL_TABLE_PEAK_BYTES[m], peak
