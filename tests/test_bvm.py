import numpy as np
import pytest

from _helpers import random_name
from condrisk import (
    BooleanAlgebra,
    ConditionalValue,
    FiniteProbSpace,
    NatName,
    PartitionOfUnity,
    RandomVariable,
    Universe,
    atom_collapse,
    extensional_lift,
    iota,
    iota_inv,
    jmath,
    jmath_inv,
    maximum_witness,
    mix_names,
    name_to_literal,
    parse_name_literal,
    seq_index,
    truth_atomic,
    verify_interp_props,
)
from condrisk.bvm import (
    ExtensionalityError,
    UniverseError,
    expect_q,
    l1_eq_truth,
    l1_le_truth,
    mix_nats,
    mix_reals,
    real_eq_truth,
    real_le_truth,
)
from condrisk.errors import ParseError

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


def test_mix_examples(u2, a2):
    e, single = u2.empty, u2.canonical_name([[]])
    ident = mix_names(PartitionOfUnity([a2.one]), [single])
    assert ident is single

    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    mixed = mix_names(parts, [e, single])
    assert atom_collapse(mixed, 1) == EMPTY_HF
    assert atom_collapse(mixed, 2) == SINGLE_HF
    assert truth_atomic(mixed, e, "eq") == a2.atom(1)

    again = mix_names(parts, [mixed, mixed])
    assert again is mixed
    assert again.canonical_id == mixed.canonical_id


def test_mix_count_mismatch(u2, a2):
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    with pytest.raises(UniverseError):
        mix_names(parts, [u2.empty])


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


def test_iota_jmath_examples(s4, a2):
    eta = ConditionalValue([2.0, 5.0])
    xi = ConditionalValue([2.0, 7.0])
    assert real_eq_truth(a2, iota(eta), iota(xi)) == a2.atom(1)
    assert real_eq_truth(a2, iota(eta), iota(eta)) == a2.one
    assert real_le_truth(a2, iota(eta), iota(xi)) == a2.one
    assert iota_inv(iota(eta)) == eta
    with pytest.raises(ValueError):
        iota(ConditionalValue([np.inf, 0.0]))

    x = RandomVariable([1, 3, 2, 6])
    assert jmath_inv(jmath(x)) == x
    lhs = iota(s4.cond_expect(x))
    rhs = expect_q(s4, jmath(x))
    assert np.array_equal(lhs.blockwise, [2, 4])
    assert np.max(np.abs(lhs.blockwise - rhs.blockwise)) <= 1e-12

    y = RandomVariable([1, 3, 0, 0])
    assert l1_eq_truth(s4, jmath(x), jmath(y)) == a2.atom(1)
    assert l1_le_truth(s4, jmath(y), jmath(x)) == a2.one


def test_mix_carriers(a2, s4):
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    r = mix_reals(parts, [iota(ConditionalValue([1, 2])), iota(ConditionalValue([3, 4]))])
    assert np.array_equal(r.blockwise, [1, 4])
    n = mix_nats(parts, [NatName([1, 1]), NatName([2, 2])])
    assert np.array_equal(n.blockwise, [1, 2])


def test_nat_name_guards():
    with pytest.raises(ValueError):
        NatName([1.5])
    with pytest.raises(ValueError):
        NatName([-1])


def test_seq_index_examples(s4):
    xs = [RandomVariable([1, 1, 1, 1]), RandomVariable([5, 5, 5, 5])]
    assert seq_index(xs, NatName([2, 2]), s4) == xs[1]
    out = seq_index(xs, NatName([1, 2]), s4)
    assert np.array_equal(out.values, [1, 1, 5, 5])
    with pytest.raises(IndexError):
        seq_index(xs, NatName([1, 3]), s4)


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
    arithmetic = {c.name: c.max_deviation for c in report.checks}
    assert arithmetic["cond_expect_transfer"] <= 1e-12


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


def test_agreement_join_refuses_past_its_cap():
    from condrisk.bvm import AGREEMENT_ATOM_CAP, ExhaustiveCapError, _agreement_join_exhaustive

    alg = BooleanAlgebra(5)
    assert _agreement_join_exhaustive(alg, lambda i: i % 2 == 1) == alg.element({1, 3, 5})
    big = BooleanAlgebra(AGREEMENT_ATOM_CAP + 1)
    with pytest.raises(ExhaustiveCapError, match=f"cap of {AGREEMENT_ATOM_CAP}"):
        _agreement_join_exhaustive(big, lambda i: True)
    n = AGREEMENT_ATOM_CAP + 1
    space = FiniteProbSpace(np.full(n, 1.0 / n), [[j] for j in range(1, n + 1)])
    with pytest.raises(ExhaustiveCapError):
        verify_interp_props(space, samples=1)
