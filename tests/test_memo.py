"""Every table filled on a miss is a ``boolalg._Memo``: bounded in memory at
``MEMO_CAP`` entries, and correct when read from several threads at once."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from condrisk import BooleanAlgebra, FiniteProbSpace, RandomVariable, Universe, YoungFunction, boolalg, young_power
from condrisk.boolalg import MEMO_CAP, _Memo, mask_atoms
from condrisk.bvm import _atom_set, parse_name_literal


def _elements(n):
    alg = BooleanAlgebra(16)

    def check(k, e):
        return (e.mask, e.atoms, (~e).mask) == (k, frozenset(mask_atoms(k)), alg.full ^ k)

    return alg._interned, alg.from_mask, check


def _literals(n):
    # key k spells name{empty: {a,b,c}}, with a, b and c its last three hex
    # digits plus one, 16^3 = MEMO_CAP spellings, and a space after each
    # comma from k = MEMO_CAP on
    uni = Universe(BooleanAlgebra(16))
    alg = uni.algebra

    def digits(k):
        return [(k >> s & 15) + 1 for s in (8, 4, 0)]

    def read(k):
        sep = "," if k < MEMO_CAP else ", "
        return parse_name_literal("name{empty: {" + sep.join(map(str, digits(k))) + "}}", uni)

    def check(k, u):
        return u is uni.make_name({uni.empty: alg.element(digits(k))})

    return uni._literal_memo, read, check


def _entries(n):
    # key k is the one entry (empty, mask k + 1)
    uni = Universe(BooleanAlgebra(16))
    alg = uni.algebra

    def read(k):
        return uni.make_name({uni.empty: alg.from_mask(k + 1)})

    def check(k, u):
        return u.universe is uni and u.masks == ((uni.empty, k + 1),)

    return uni._memo("_entry_memo"), read, check


def _atom_sets(n):
    # key k spells the atom set {a,b,c} of _literals' key k, as the literal
    # reader reads a mix[...] part
    uni = Universe(BooleanAlgebra(16))
    alg, memo = uni.algebra, uni._memo("_atom_memo")

    def digits(k):
        return [(k >> s & 15) + 1 for s in (8, 4, 0)]

    def read(k):
        sep = "," if k < MEMO_CAP else ", "
        return _atom_set("{" + sep.join(map(str, digits(k))) + "}", 0, alg, memo)[0]

    def check(k, e):
        return e == alg.element(digits(k))

    return memo, read, check


def _young(n):
    phi = YoungFunction(lambda t: t * t / 2, np.geomspace(0.01, 5.0, 32))

    def read(k):
        return phi(100.0 + k / 8)

    def check(k, v):
        t = 100.0 + k / 8
        return v == t * t / 2

    return phi._memo, read, check


def _block_spaces(n):
    # blocks of two atoms, with conditional probabilities unlike block to block
    p = np.random.default_rng(n).uniform(0.5, 2.0, 2 * n)
    space = FiniteProbSpace(p / p.sum(), [[2 * j + 1, 2 * j + 2] for j in range(n)])

    def read(k):
        return space.block_space(k + 1)

    def check(k, b):
        return b.n_blocks == 1 and b.probs is not space.probs and np.array_equal(b.probs, space.cond_probs(k + 1))

    return space._block_spaces, read, check


# each table with the tracemalloc peak, in bytes, of building its owner and
# filling the table to MEMO_CAP entries, each read checked.  Measured on
# Python 3.11: 1.26 MB for the elements (their atom sets included), 8.53 MB
# for the entries (their names included, each with 16 collapses, every empty
# one the shared empty set; 17.39 MB with a set of its own each), 0.44 MB
# for the atom sets, 3.61 MB for the literals (their names included), 0.36 MB
# for the Young values and 8.68 MB for the block spaces
TABLES = {
    "elements": (_elements, 1_700_000),
    "entries": (_entries, 11_200_000),
    "atom_sets": (_atom_sets, 600_000),
    "literals": (_literals, 4_800_000),
    "young": (_young, 500_000),
    "block_spaces": (_block_spaces, 11_500_000),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_a_full_memo_stays_within_its_memory_bound(table):
    make, bound = TABLES[table]
    tracemalloc.start()
    try:
        memo, read, check = make(MEMO_CAP + 1)
        assert type(memo) is _Memo
        for k in range(MEMO_CAP):
            assert check(k, read(k))
            if len(memo) == MEMO_CAP:
                break
        assert len(memo) == MEMO_CAP
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    # a new key clears the full memo before it is stored
    value = read(MEMO_CAP)
    assert len(memo) == 1 and check(MEMO_CAP, value)


@pytest.mark.parametrize("table", sorted(TABLES))
def test_concurrent_reads_of_a_small_memo(monkeypatch, table):
    # a cap of 32 clears the memo often while six threads read overlapping keys
    monkeypatch.setattr(boolalg, "MEMO_CAP", 32)
    make, _ = TABLES[table]
    memo, read, check = make(96)
    sizes, wrong = [], []

    def work(w):
        for k in map(int, np.random.default_rng(w % 3).integers(0, 96, 300)):
            if not check(k, read(k)):
                wrong.append(k)
            sizes.append(len(memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # each thread that passed the cap check before another's insert adds one
    assert 0 < max(sizes) <= 32 + len(threads) - 1


def test_a_value_stored_during_a_build_is_kept():
    # a thread that misses while another builds the same key: the value
    # stored first is kept and handed to both
    def build(key):
        memo.keep(key, "first")
        return "second"

    memo = _Memo(build)
    assert memo["k"] == "first" and memo == {"k": "first"}
    assert memo.keep("k", "third") == "first"


def test_an_owner_is_freed_with_its_last_reference():
    # a builder bound to its owner would hold the owner in a reference cycle,
    # freed only by the cyclic collector: a space of 1e5 atoms dropped
    # between jobs then raised the peak RSS of eval_large by about 15%
    space = FiniteProbSpace([0.25] * 4, [[1, 2], [3, 4]])
    phi = young_power(2)
    assert space.block_space(2) is space.block_space(2) and phi(3.0) == 4.5
    refs = [weakref.ref(space), weakref.ref(phi)]
    gc.disable()
    try:
        del space, phi
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# what a value of 1e5 atoms holds after three spaces of other layouts read it
# in turn, in bytes: one gather, the last layout's.  Measured on Python 3.11:
# 800,341, the 800,000 of the copy and its slot; a second copy kept would
# double it
SLOT_BOUND = 880_000


def test_a_value_keeps_one_gather_the_last_layouts():
    # the slot of FiniteProbSpace._in_order is a build-once cache of one
    # object, keyed by layout: a new layout replaces the copy, never adds one
    rng = np.random.default_rng(5)
    n = 100_000
    spaces = [
        FiniteProbSpace(np.full(n, 1 / n), [b.tolist() for b in np.split(rng.permutation(n) + 1, range(100, n, 100))])
        for _ in range(3)
    ]
    x = RandomVariable(rng.normal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        means = [space.cond_expect(x) for space in spaces]
        held = tracemalloc.get_traced_memory()[0] - sum(sys.getsizeof(m.values) for m in means)
    finally:
        tracemalloc.stop()
    assert held < SLOT_BOUND, held
    assert spaces[-1]._in_order(x) is x._gathered[1] and x._gathered[0] is spaces[-1].order
