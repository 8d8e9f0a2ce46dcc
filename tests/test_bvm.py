import re
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_name, reference_truth
from condrisk import bvm
from condrisk import (
    BooleanAlgebra,
    ConditionalValue,
    FiniteProbSpace,
    PartitionOfUnity,
    RandomVariable,
    Universe,
    atom_collapse,
    extensional_lift,
    maximum_witness,
    name_to_literal,
    parse_name_literal,
    seq_index,
    truth_atomic,
    verify_interp_props,
)
from condrisk.boolalg import AlgebraMismatchError
from condrisk.bvm import (
    ExtensionalityError,
    UniverseError,
    l1_eq_truth,
    l1_le_truth,
    mix_reals,
    real_eq_truth,
    real_le_truth,
)
from condrisk.errors import ParseError
from condrisk.probspace import SpaceError

EMPTY_HF = frozenset()
SINGLE_HF = frozenset({EMPTY_HF})


def test_truth_atomic_examples(u2, a2):
    e = u2.empty
    assert truth_atomic(e, e, "eq") == a2.one
    u = u2.make_name({e: a2.atom(1)})
    assert truth_atomic(e, u, "elem") == a2.atom(1)
    assert truth_atomic(u, e, "eq") == a2.atom(2)


def test_truth_atomic_guards(u2, a2):
    other = Universe(BooleanAlgebra(2))
    with pytest.raises(UniverseError):
        truth_atomic(u2.empty, other.empty, "eq")
    with pytest.raises(ValueError):
        truth_atomic(u2.empty, u2.empty, "subset")


def test_canonical_name_examples(u2):
    assert u2.canonical_name([]) is u2.empty
    assert u2.empty.rank == 0
    x = u2.canonical_name([[], [[]]])
    for atom in (1, 2):
        assert atom_collapse(x, atom) == frozenset({EMPTY_HF, SINGLE_HF})


def test_atom_collapse_example(u2, a2):
    u = u2.make_name({u2.empty: a2.atom(1)})
    assert atom_collapse(u, 1) == SINGLE_HF
    assert atom_collapse(u, 2) == EMPTY_HF
    assert atom_collapse(u, a2.atom(1)) == SINGLE_HF
    with pytest.raises(ValueError):
        atom_collapse(u, a2.one)


def test_atom_collapse_refuses_foreign_atoms_and_non_integral_indices(u2, a2):
    from condrisk import collapse_eval
    from condrisk.formulalang import In, Lit

    u = u2.make_name({u2.empty: a2.atom(1)})
    with pytest.raises(AlgebraMismatchError):
        atom_collapse(u, BooleanAlgebra(2).atom(1))
    for index in (True, False, np.bool_(True), 1.9, 1.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            atom_collapse(u, index)
    with pytest.raises(TypeError):
        collapse_eval(In(Lit(u2.empty), Lit(u)), True)
    assert atom_collapse(u, np.int64(1)) == SINGLE_HF
    assert atom_collapse(u, np.uint8(2)) == EMPTY_HF
    assert collapse_eval(In(Lit(u2.empty), Lit(u)), np.int32(1))


def test_mix_examples(u2, a2):
    e, single = u2.empty, u2.canonical_name([[]])
    ident = u2.mix(PartitionOfUnity([a2.one]), [single])
    assert ident is single

    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    mixed = u2.mix(parts, [e, single])
    assert atom_collapse(mixed, 1) == EMPTY_HF
    assert atom_collapse(mixed, 2) == SINGLE_HF
    assert truth_atomic(mixed, e, "eq") == a2.atom(1)

    again = u2.mix(parts, [mixed, mixed])
    assert again is mixed
    assert again.canonical_id == mixed.canonical_id


def test_mix_count_mismatch(u2, a2):
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    with pytest.raises(UniverseError):
        u2.mix(parts, [u2.empty])


def test_mixing_principle_random():
    rng = np.random.default_rng(30)
    for m in (2, 3):
        alg = BooleanAlgebra(m)
        uni = Universe(alg)
        from condrisk import iter_partitions

        partitions = list(iter_partitions(alg))
        for _ in range(20):
            partition = partitions[rng.integers(0, len(partitions))]
            names = [random_name(uni, rng, 3) for _ in partition]
            mixed = uni.mix(partition, names)
            for part, u in zip(partition, names):
                assert part <= uni.truth_eq(mixed, u)
            assert uni.mix(partition, [mixed] * len(partition)) is mixed


def test_factorization_oracle():
    rng = np.random.default_rng(31)
    pairs = 0
    for m in (1, 2, 3):
        alg = BooleanAlgebra(m)
        uni = Universe(alg)
        while pairs < 50 * m / 3:
            u = random_name(uni, rng, 3)
            v = random_name(uni, rng, 3)
            eq = uni.truth_eq(u, v)
            member = uni.truth_in(u, v)
            for atom in range(1, m + 1):
                assert (atom in eq.atoms) == (
                    atom_collapse(u, atom) == atom_collapse(v, atom)
                )
                assert (atom in member.atoms) == (
                    atom_collapse(u, atom) in atom_collapse(v, atom)
                )
            pairs += 1


def test_equality_laws_random(u2, a2):
    rng = np.random.default_rng(32)
    names = [random_name(u2, rng, 3) for _ in range(12)]
    for u in names:
        assert u2.truth_eq(u, u) == a2.one
    for u in names:
        for v in names:
            assert u2.truth_eq(u, v) == u2.truth_eq(v, u)
            for w in names:
                assert (u2.truth_eq(u, v) & u2.truth_eq(v, w)) <= u2.truth_eq(u, w)


def test_separated_universe_soundness(u2, a2):
    # two different surface descriptions of the same name share the object
    a = u2.make_name({u2.empty: a2.one})
    b = u2.mix(PartitionOfUnity([a2.atom(1), a2.atom(2)]), [a, a])
    assert a is b
    outer1 = u2.make_name({a: a2.atom(1)})
    outer2 = u2.make_name({b: a2.atom(1)})
    assert outer1 is outer2
    assert u2.truth_eq(outer1, outer2) == a2.one


def test_zero_entries_dropped(u2, a2):
    u = u2.make_name({u2.empty: a2.zero})
    assert u is u2.empty
    assert len(u.entries) == 0


def test_maximum_witness_examples(u2, a2):
    e = u2.empty
    v = u2.make_name({e: a2.one})
    wit = maximum_witness(lambda t: u2.truth_eq(t, e), v)
    assert wit is e

    single = u2.canonical_name([[]])
    v2 = u2.make_name({e: a2.atom(1), single: a2.atom(2)})
    phi = lambda t: u2.truth_eq(t, e)
    exists = (a2.atom(1) & u2.truth_eq(e, e)) | (a2.atom(2) & u2.truth_eq(single, e))
    wit2 = maximum_witness(phi, v2)
    assert exists == a2.atom(1)
    assert atom_collapse(wit2, 1) == EMPTY_HF
    assert phi(wit2) == a2.atom(1)

    # unsatisfiable formula: truth value zero, witness keeps it zero
    phi3 = lambda t: u2.truth_in(t, e)  # nothing belongs to the empty name
    wit3 = maximum_witness(phi3, v2)
    assert phi3(wit3) == a2.zero


def test_extensional_lift_examples(u2, a2):
    e, single = u2.empty, u2.canonical_name([[]])
    graph = extensional_lift({e: e})
    assert graph.rank >= 3  # kuratowski pair nesting

    mixpoint = u2.mix(PartitionOfUnity([a2.atom(1), a2.atom(2)]), [e, single])
    # consistent: [[e = mixpoint]] = {1} and both map into names equal on {1}
    ok = extensional_lift({e: single, mixpoint: u2.mix(
        PartitionOfUnity([a2.atom(1), a2.atom(2)]), [single, u2.canonical_name([[], [[]]])]
    )})
    assert ok is not None

    with pytest.raises(ExtensionalityError) as err:
        extensional_lift({e: e, mixpoint: single})
    assert err.value.pair is not None


def test_truth_map_examples(s4, a2):
    eta = ConditionalValue([2.0, 5.0])
    xi = ConditionalValue([2.0, 7.0])
    assert real_eq_truth(a2, eta, xi) == a2.atom(1)
    assert real_eq_truth(a2, eta, eta) == a2.one
    assert real_le_truth(a2, eta, xi) == a2.one
    for truth in (real_eq_truth, real_le_truth):
        with pytest.raises(ValueError, match="finite"):
            truth(a2, ConditionalValue([np.inf, 0.0]), eta)

    x = RandomVariable([1, 3, 2, 6])
    y = RandomVariable([1, 3, 0, 0])
    assert l1_eq_truth(s4, x, y) == a2.atom(1)
    assert l1_le_truth(s4, y, x) == a2.one


def test_truth_maps_name_length_mismatches(s4, a2):
    short = RandomVariable([1.0, 2.0, 3.0])
    x = RandomVariable([1.0, 2.0, 3.0, 4.0])
    for truth in (l1_eq_truth, l1_le_truth):
        with pytest.raises(SpaceError, match="length 3, space has 4 atoms"):
            truth(s4, x, short)
    for truth in (real_eq_truth, real_le_truth):
        with pytest.raises(ValueError, match="length 3, algebra has 2 atoms"):
            truth(a2, ConditionalValue([1.0, 2.0]), ConditionalValue([1.0, 2.0, 3.0]))


def test_mix_reals_examples(a2):
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    r = mix_reals(parts, [ConditionalValue([1, 2]), ConditionalValue([3, 4])])
    assert r == ConditionalValue([1, 4])
    n = mix_reals(parts, [ConditionalValue([1, 1]), ConditionalValue([2, 2])])
    assert n == ConditionalValue([1, 2])
    with pytest.raises(ValueError, match="length 1, algebra has 2 atoms"):
        mix_reals(parts, [ConditionalValue([1.0]), ConditionalValue([2.0, 3.0])])
    with pytest.raises(ValueError, match="finite"):
        mix_reals(parts, [ConditionalValue([np.inf, 1.0]), ConditionalValue([2.0, 3.0])])
    with pytest.raises(ValueError, match="2 parts but 1 reals"):
        mix_reals(parts, [ConditionalValue([1.0, 2.0])])


def test_mixing_shares_the_part_index_with_the_space(s4, a2):
    parts = PartitionOfUnity([a2.atom(2), a2.atom(1)])
    assert parts.part_index().tolist() == [1, 0]
    assert s4.part_index(parts).tolist() == [1, 1, 0, 0]


def test_seq_index_guards(s4):
    xs = [RandomVariable([1, 1, 1, 1]), RandomVariable([5, 5, 5, 5])]
    with pytest.raises(ValueError, match="block 2 index 1.5 is not an integer"):
        seq_index(xs, ConditionalValue([1, 1.5]), s4)
    with pytest.raises(IndexError, match=r"block 1 index -1 outside 1\.\.2"):
        seq_index(xs, ConditionalValue([-1, 1]), s4)
    with pytest.raises(SpaceError, match="length 3, space has 2 blocks"):
        seq_index(xs, ConditionalValue([1, 1, 1]), s4)


def test_seq_index_examples(s4):
    xs = [RandomVariable([1, 1, 1, 1]), RandomVariable([5, 5, 5, 5])]
    assert seq_index(xs, ConditionalValue([2, 2]), s4) == xs[1]
    out = seq_index(xs, ConditionalValue([1, 2]), s4)
    assert np.array_equal(out.values, [1, 1, 5, 5])
    with pytest.raises(IndexError, match=r"block 2 index 3 outside 1\.\.2"):
        seq_index(xs, ConditionalValue([1, 3]), s4)


def test_eventually_constant_blockwise_liminf(s4):
    # finite shadow of sequence indexing: an eventually constant sequence's
    # blockwise liminf equals the tail term's block values exactly
    xs = [RandomVariable([9, 9, 9, 9])] * 3 + [RandomVariable([1, 2, 3, 4])] * 5
    tail = np.min(np.stack([x.values for x in xs[3:]]), axis=0)
    assert np.array_equal(tail, xs[-1].values)


def test_concurrent_construction_is_consistent(a2):
    import threading

    uni = Universe(a2)
    rng_seeds = range(8)
    results = [None] * len(rng_seeds)

    def build(slot, seed):
        rng = np.random.default_rng(seed % 3)  # overlapping streams force races
        results[slot] = [random_name(uni, rng, 3) for _ in range(100)]

    threads = [threading.Thread(target=build, args=(i, s)) for i, s in enumerate(rng_seeds)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    by_id = {}
    for batch in results:
        for name in batch:
            assert by_id.setdefault(name.canonical_id, name) is name


def test_verify_interp_props(s4):
    report = verify_interp_props(s4, samples=100, seed=0)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert [c.name for c in report.checks] == ["real_truth_joins", "mixing", "l1_truth_joins"]


@pytest.mark.parametrize(
    "name, target, broken",
    [
        ("real_truth_joins", "real_le_truth", lambda algebra, u, v: algebra.one),
        ("mixing", "mix_reals", lambda partition, reals: reals[0]),
        ("l1_truth_joins", "l1_eq_truth", lambda space, x, y: space.algebra.zero),
    ],
)
def test_verify_interp_props_catches_a_broken_map(monkeypatch, s4, name, target, broken):
    monkeypatch.setattr(bvm, target, broken)
    report = verify_interp_props(s4, samples=20, seed=0)
    assert [c.name for c in report.checks if not c.passed] == [name]


@pytest.mark.parametrize("samples", [0, -3, True, 2.5, "3"])
def test_verify_interp_props_refuses_no_samples(s4, samples):
    with pytest.raises(ValueError, match=re.escape(f"samples must be a positive integer, got {samples!r}")):
        verify_interp_props(s4, samples=samples)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_verify_interp_props_refuses_a_bad_seed(s4, seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        verify_interp_props(s4, seed=seed)


def test_verify_interp_props_three_blocks(space8):
    report = verify_interp_props(space8, samples=60, seed=1)
    assert report.passed


# -- literals ----------------------------------------------------------------------


def test_literal_roundtrip(u2, a2):
    rng = np.random.default_rng(33)
    for _ in range(25):
        u = random_name(u2, rng, 3)
        assert parse_name_literal(name_to_literal(u), u2) is u


def test_literal_forms(u2, a2):
    assert parse_name_literal("empty", u2) is u2.empty
    assert parse_name_literal("check({{},{{}}})", u2) is u2.canonical_name([[], [[]]])
    u = parse_name_literal("name{empty: {1}}", u2)
    assert u is u2.make_name({u2.empty: a2.atom(1)})
    mixed = parse_name_literal("mix[{1}: empty; {2}: check({{}})]", u2)
    assert mixed is u2.mix(
        PartitionOfUnity([a2.atom(1), a2.atom(2)]), [u2.empty, u2.canonical_name([[]])]
    )


def test_literal_errors(u2):
    for text in ("name{empty: {5}}", "name{empty {1}}", "check({,})", "empty extra", "widget"):
        with pytest.raises(ParseError):
            parse_name_literal(text, u2)


def test_literal_of_a_shared_dag_is_refused_past_its_cap(u2, a2):
    from condrisk.bvm import LITERAL_CHAR_CAP

    # name k+1 = {name k: {1}, name k-1: {2}}: 41 names whose spellings grow
    # like 1.62^k, so name 40 would spell billions of characters
    chain = [u2.empty, u2.make_name({u2.empty: a2.atom(1)})]
    for _ in range(39):
        chain.append(u2.make_name({chain[-1]: a2.atom(1), chain[-2]: a2.atom(2)}))
    assert parse_name_literal(name_to_literal(chain[12]), u2) is chain[12]
    start = time.perf_counter()
    with pytest.raises(UniverseError, match=f"LITERAL_CHAR_CAP = {LITERAL_CHAR_CAP}"):
        name_to_literal(chain[40])
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    assert repr(chain[40]) == f"Name(canonical_id={chain[40].canonical_id}, rank=40)"
    assert time.perf_counter() - start < 0.1
    assert repr(chain[2]) == name_to_literal(chain[2])


def test_atom_collapse_rejects_atoms_outside_the_algebra(u2, a2):
    from condrisk import collapse_eval, parse

    u = u2.make_name({u2.empty: a2.atom(1)})
    formula = parse("empty in u", u2, free_names={"u"})
    for atom in (0, -1, 3):
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            atom_collapse(u, atom)
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            u.collapse_at(atom)
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            collapse_eval(formula, atom, {"u": u})


def test_interp_props_never_list_partitions(monkeypatch):
    import condrisk
    import condrisk.boolalg
    import condrisk.bvm

    def refuse(*args, **kwargs):
        raise AssertionError("set partitions listed")

    for module in (condrisk, condrisk.boolalg, condrisk.bvm):
        monkeypatch.setattr(module, "iter_partitions", refuse, raising=False)
    n = 12
    space = FiniteProbSpace(np.full(2 * n, 1.0 / (2 * n)), [[2 * j + 1, 2 * j + 2] for j in range(n)])
    report = verify_interp_props(space, samples=5, seed=7)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_verify_interp_props_runs_past_16_blocks():
    # 20 singleton blocks: the oracle asks each atom, it walks no subsets
    n = 20
    space = FiniteProbSpace(np.full(n, 1.0 / n), [[j] for j in range(1, n + 1)])
    report = verify_interp_props(space, samples=5, seed=3)
    assert report.passed, [c.name for c in report.checks if not c.passed]


# -- truth tables --------------------------------------------------------------------


def _closure_size(*roots) -> int:
    seen = set()
    stack = list(roots)
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack.extend(c for c, _ in w.entries)
    return len(seen)


def _assert_truth_matches(uni, ref, u, v):
    m = uni.algebra.atom_count
    eq, member = uni.truth_eq(u, v), uni.truth_in(u, v)
    assert eq.mask == ref.truth_eq(u, v)
    assert member.mask == ref.truth_in(u, v)
    cu = [atom_collapse(u, a) for a in range(1, m + 1)]
    cv = [atom_collapse(v, a) for a in range(1, m + 1)]
    assert eq.atoms == {a for a in range(1, m + 1) if cu[a - 1] == cv[a - 1]}
    assert member.atoms == {a for a in range(1, m + 1) if cu[a - 1] in cv[a - 1]}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    m=st.sampled_from([1, 8, 9, 16, 17, 32, 33, 64, 65]),
    cap=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_truth_tables_match_the_per_pair_recursion(m, cap, seed):
    # names are made in rounds between queries, so grows mix old and new
    # slots over several levels; the small cap makes closure-only grows and
    # clears happen as the registry passes it
    rng = np.random.default_rng(seed)
    uni = Universe(BooleanAlgebra(m))
    ref = reference_truth(uni)
    names = []
    with mock.patch.object(bvm, "TRUTH_TABLE_CAP", cap):
        for _ in range(4):
            names += [random_name(uni, rng, 3, 2) for _ in range(4)]
            for i, j in rng.integers(0, len(names), (12, 2)):
                u, v = names[i], names[j]
                if _closure_size(u, v) > cap:
                    with pytest.raises(UniverseError, match="TRUTH_TABLE_CAP"):
                        uni.truth_in(u, v)
                    continue
                _assert_truth_matches(uni, ref, u, v)
                _assert_truth_matches(uni, ref, v, u)
                assert len(uni._table.slot) <= cap


def _ordinals(k):
    out = [frozenset()]
    for _ in range(k):
        out.append(out[-1] | {out[-1]})
    return out


def test_truth_table_grows_then_clears_at_its_cap(monkeypatch):
    monkeypatch.setattr(bvm, "TRUTH_TABLE_CAP", 8)
    alg = BooleanAlgebra(3)
    uni = Universe(alg)
    ref = reference_truth(uni)
    # ordinal k has the k + 1 ordinals up to it as its closure
    o = [uni._canonical_from_hf(hf) for hf in _ordinals(11)]
    assert uni._table is None
    # 12 registered names do not fit: only the closure of the pair is slotted
    _assert_truth_matches(uni, ref, o[2], o[3])
    table = uni._table
    assert set(table.slot) == set(o[:4])
    # a pair whose new names still fit extends the same table
    _assert_truth_matches(uni, ref, o[7], o[0])
    assert uni._table is table and set(table.slot) == set(o[:8])
    # one that does not fit clears it: a new table takes its closure alone
    w = uni.make_name({o[1]: alg.atom(1)})
    _assert_truth_matches(uni, ref, w, o[0])
    assert uni._table is not table and set(uni._table.slot) == {w, o[1], o[0]}
    # the table a reader may still hold keeps its values
    s, t = table.slot[o[3]], table.slot[o[7]]
    assert table.inn.item(t, s) == ref.truth_in(o[3], o[7]) == alg.full
    # a pair whose closure alone exceeds the cap raises and clears nothing
    held = uni._table
    with pytest.raises(UniverseError, match="over TRUTH_TABLE_CAP = 8"):
        uni.truth_eq(o[8], o[0])
    assert uni._table is held and len(held.slot) == 3


def test_warm_truth_reads_build_no_checked_element(monkeypatch):
    uni = Universe(BooleanAlgebra(8))
    ref = reference_truth(uni)
    rng = np.random.default_rng(5)
    names = [random_name(uni, rng, 3) for _ in range(10)]
    uni.truth_eq(names[0], names[1])  # slots every registered name
    calls = []
    checked = BooleanAlgebra.from_mask
    monkeypatch.setattr(BooleanAlgebra, "from_mask", lambda self, mask: calls.append(mask) or checked(self, mask))
    for u in names:
        for v in names:
            assert uni.truth_eq(u, v).mask == ref.truth_eq(u, v)
            assert uni.truth_in(u, v).mask == ref.truth_in(u, v)
    assert calls == []
    # a name the table does not hold still meets the universe check
    other = Universe(uni.algebra)
    for bad in (other.empty, "empty", [names[0]]):
        for read in (uni.truth_eq, uni.truth_in):
            with pytest.raises(UniverseError, match="different universe"):
                read(names[0], bad)
            with pytest.raises(UniverseError, match="different universe"):
                read(bad, names[0])


def test_one_name_grows_reallocate_the_edge_arrays_by_doubling():
    alg = BooleanAlgebra(6)
    uni = Universe(alg)
    rng = np.random.default_rng(3)
    base = [random_name(uni, rng, 2) for _ in range(6)]
    uni.truth_eq(base[0], base[1])
    table = uni._table
    arrays = {key: getattr(table, key) for key in ("child", "mask", "start")}
    reallocations = dict.fromkeys(arrays, 0)
    partition = PartitionOfUnity([alg.atom(1), ~alg.atom(1)])
    chain = uni.empty
    grows = 0
    for k in range(300):
        # a new one-child name, then the mix, each slotted by a grow of one name
        chain = uni.make_name({chain: alg.one})
        before = len(table.slot)
        mixed = uni.mix(partition, [chain, base[k % len(base)]])
        grows += len(table.slot) - before
        assert table.slot[mixed] == len(table.slot) - 1
        for key, array in arrays.items():
            if getattr(table, key) is not array:
                reallocations[key] += 1
                arrays[key] = getattr(table, key)
    assert uni._table is table and grows == 600
    # about log2(600) + 2; a copy on every grow would make 600
    assert max(reallocations.values()) <= 11, reallocations
    ref = reference_truth(uni)
    for u in (chain, mixed, base[0]):
        assert uni.truth_eq(mixed, u).mask == ref.truth_eq(mixed, u)
        assert uni.truth_in(u, mixed).mask == ref.truth_in(u, mixed)


def test_concurrent_truth_queries_across_clears(monkeypatch):
    # rank-2, width-2 names have closures of at most 7 names, so every pair
    # fits under the cap while the registry outgrows it and tables clear
    monkeypatch.setattr(bvm, "TRUTH_TABLE_CAP", 24)
    uni = Universe(BooleanAlgebra(9))
    results = [None] * 6
    tables = []

    def work(k):
        rng = np.random.default_rng(k % 3)  # overlapping streams force races
        names, out = [], []
        for _ in range(60):
            names.append(random_name(uni, rng, 2, 2))
            u, v = names[int(rng.integers(len(names)))], names[-1]
            out.append((u, v, uni.truth_eq(u, v).mask, uni.truth_in(u, v).mask, uni.truth_in(v, u).mask))
            tables.append(uni._table)
        results[k] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    ref = reference_truth(uni)
    for out in results:
        for u, v, eq, uv, vu in out:
            assert (eq, uv, vu) == (ref.truth_eq(u, v), ref.truth_in(u, v), ref.truth_in(v, u))
    assert len({id(t) for t in tables}) > 1
    assert all(len(t.slot) <= 24 for t in tables)
