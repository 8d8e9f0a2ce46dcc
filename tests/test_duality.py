import math

import numpy as np
import pytest

from condrisk import (
    ConditionalValue,
    DualSearchConfig,
    DualVariable,
    FiniteProbSpace,
    PartitionOfUnity,
    RandomVariable,
    admissible_dual,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    dual_representation,
    fenchel,
    neg_cond_expectation,
    penalty_map,
    penalty_of,
    sigma_s_membership,
    stable_sublevel_check,
    verify_representation,
)
from condrisk.duality import DualityError, _project_capped_simplex

LOG2 = math.log(2.0)


def test_dual_variable_guards():
    with pytest.raises(ValueError):
        DualVariable([0.5, -1.0])
    with pytest.raises(ValueError):
        DualVariable([-1.0, np.inf])
    y = DualVariable([-1.0, -1.0, -1.0, -1.0])
    assert len(y) == 4


def test_admissibility(s4):
    assert DualVariable([-1, -1, -1, -1]).is_admissible(s4)
    assert DualVariable([-2, 0, -1, -1]).is_admissible(s4)
    assert not DualVariable([-0.5, -0.5, -1, -1]).is_admissible(s4)


def test_projection_properties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        v = rng.normal(0, 3, k)
        cap = None if rng.random() < 0.5 else float(rng.uniform(1.1, 4.0))
        d = _project_capped_simplex(v, w, cap)
        assert np.all(d >= -1e-15)
        if cap is not None:
            assert np.all(d <= cap + 1e-10)
        assert abs(np.dot(w, d) - 1.0) <= 1e-10


def test_fenchel_examples_neg_expectation(s4):
    ne = neg_cond_expectation(s4)
    assert np.array_equal(
        fenchel(ne, DualVariable([-1, -1, -1, -1])).values, [0.0, 0.0]
    )
    pen = fenchel(ne, DualVariable([-2, 0, -1, -1]))
    assert math.isinf(pen.values[0]) and pen.values[1] == 0.0
    # the numeric route must certify the same divergence
    grid = fenchel(ne, DualVariable([-2, 0, -1, -1]), "grid_refine")
    assert math.isinf(grid.values[0]) and abs(grid.values[1]) <= 1e-9


def test_fenchel_examples_entropic(s4):
    ent = cond_entropic(s4, 1.0)
    y = DualVariable([-2, 0, -1, -1])
    pen = fenchel(ent, y)
    assert pen.values == pytest.approx([LOG2, 0.0], abs=1e-12)
    grid = fenchel(ent, y, "grid_refine")
    assert grid.values == pytest.approx([LOG2, 0.0], abs=1e-6)


def test_fenchel_method_validation(s4):
    ent = cond_entropic(s4, 1.0)
    with pytest.raises(ValueError):
        fenchel(ent, DualVariable([-1, -1, -1, -1]), "magic")
    from condrisk import CondRiskMeasure

    plain = CondRiskMeasure(s4, lambda x: -s4.cond_expect(x), "plain")
    with pytest.raises(DualityError):
        fenchel(plain, DualVariable([-1, -1, -1, -1]), "closed_form")


def test_grid_matches_closed_form_entropic(s4):
    ent = cond_entropic(s4, 1.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        y = admissible_dual(s4, rng.uniform(0.05, 2.5, 4))
        a = fenchel(ent, y).values
        b = fenchel(ent, y, "grid_refine").values
        assert np.max(np.abs(a - b)) <= 1e-5


def test_dual_representation_examples(s4):
    ent = cond_entropic(s4, 1.0)
    xe = RandomVariable([-LOG2, -LOG2, 0, 0])
    res = dual_representation(ent, xe)
    assert res.value.values == pytest.approx([LOG2, 0.0], abs=1e-7)
    assert res.maximizer.values == pytest.approx([-1, -1, -1, -1], abs=1e-5)

    wc = cond_worst_case(s4)
    x = RandomVariable([1, 3, 2, 6])
    res = dual_representation(wc, x)
    assert res.value.values == pytest.approx([-1.0, -2.0], abs=1e-9)
    assert res.maximizer.values == pytest.approx([-2, 0, -2, 0], abs=1e-9)

    ne = neg_cond_expectation(s4)
    rng = np.random.default_rng(18)
    for _ in range(5):
        x = RandomVariable(rng.normal(0, 2, 4))
        res = dual_representation(ne, x)
        assert np.allclose(res.value.values, -s4.cond_expect(x).values, atol=1e-9)
        assert np.allclose(res.maximizer.values, -1.0, atol=1e-12)


def test_verify_representation_builtins(s4):
    rng = np.random.default_rng(19)
    payoffs = [RandomVariable(rng.normal(0, 2, 4)) for _ in range(20)]
    for m in (
        cond_entropic(s4, 1.0),
        cond_avar(s4, 0.5),
        cond_worst_case(s4),
        neg_cond_expectation(s4),
    ):
        rep = verify_representation(m, payoffs, tol=1e-6)
        assert rep.attained_all, m.label
        for e in rep.entries:
            assert e.maximizer.is_admissible(s4, 1e-10)
    zero = RandomVariable([0, 0, 0, 0])
    rep = verify_representation(cond_entropic(s4, 1.0), [zero], tol=1e-6)
    e = rep.entries[0]
    assert np.allclose(e.direct.values, 0.0) and np.allclose(e.dual.values, 0.0, atol=1e-8)


def test_weak_duality_quantified(s4):
    rng = np.random.default_rng(20)
    measures = (
        cond_entropic(s4, 1.0),
        cond_avar(s4, 0.5),
        cond_worst_case(s4),
        neg_cond_expectation(s4),
    )
    for _ in range(40):
        x = RandomVariable(rng.normal(0, 2, 4))
        y = admissible_dual(s4, rng.uniform(0.05, 2.0, 4))
        pairing = np.array(
            [
                np.dot(s4.cond_probs(j) * y.values[s4.block_index_array(j)], x.values[s4.block_index_array(j)])
                for j in (1, 2)
            ]
        )
        for m in measures:
            pen = penalty_of(m, y).values
            lhs = np.where(np.isfinite(pen), pairing - pen, -np.inf)
            assert np.all(lhs <= m.evaluate(x).values + 1e-9), m.label


def test_fenchel_blockwise_locality(s4):
    rng = np.random.default_rng(21)
    for m in (cond_entropic(s4, 1.0), cond_avar(s4, 0.5), neg_cond_expectation(s4)):
        for _ in range(10):
            y = admissible_dual(s4, rng.uniform(0.05, 2.0, 4))
            swapped = y.values.copy()
            swapped[s4.block_index_array(2)] = -1.0  # replace off-block by the barycenter
            a = penalty_of(m, y).values[0]
            b = penalty_of(m, DualVariable(swapped)).values[0]
            assert a == b or (math.isinf(a) and math.isinf(b))


def test_representation_json_shape(s4):
    rep = verify_representation(neg_cond_expectation(s4), [RandomVariable([1, 3, 2, 6])])
    d = rep.to_dict()
    entry = d["entries"][0]
    assert set(entry) == {"payoff", "direct", "dual", "gap", "maximizer", "attained"}
    assert entry["attained"] is True


def test_representation_json_carries_ascent_warnings(s4):
    x = RandomVariable([1, 3, 2, 6])
    # one ascent step leaves the gap open for this gamma
    rep = verify_representation(
        cond_entropic(s4, 0.2), [x], tol=1.0, cfg=DualSearchConfig(max_iters=1)
    )
    entry = rep.to_dict()["entries"][0]
    assert len(entry["warnings"]) == 2
    assert all("ascent stopped after 1 iterations" in w for w in entry["warnings"])


# -- stable topology ---------------------------------------------------------------


def test_sigma_s_examples(s4, a2):
    ones = RandomVariable([1, 1, 1, 1])
    part_i = PartitionOfUnity([a2.one])
    assert sigma_s_membership(
        s4, RandomVariable([0, 0, 0, 0]), [[ones]], part_i, ConditionalValue([1, 1])
    )
    assert not sigma_s_membership(s4, ones, [[ones]], part_i, ConditionalValue([1, 1]))
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    assert sigma_s_membership(
        s4,
        RandomVariable([1, 1, -1, -1]),
        [[RandomVariable([1, 1, 0, 0])], [RandomVariable([0, 0, 1, 1])]],
        parts,
        ConditionalValue([2, 2]),
    )


def test_sigma_s_guards(s4, a2):
    part_i = PartitionOfUnity([a2.one])
    with pytest.raises(ValueError):
        sigma_s_membership(s4, RandomVariable([0] * 4), [[]], part_i, ConditionalValue([1, 1]))
    with pytest.raises(ValueError):
        sigma_s_membership(
            s4, RandomVariable([0] * 4), [[RandomVariable([1] * 4)]], part_i, ConditionalValue([0, 1])
        )


def test_sublevel_entropic_rho_unbounded(s4):
    ent = cond_entropic(s4, 1.0)
    probe = [
        RandomVariable([0, 0, 0, 0]),
        RandomVariable([1, 1, 1, 1]),
        RandomVariable([1, -1, 2, 0]),
    ]
    rep = stable_sublevel_check(s4, ent.evaluate, ConditionalValue([0, 0]), probe)
    assert rep.mixing_closure_passed
    assert rep.bounded_per_block == [False, False]
    assert rep.inf_compact_per_block == [False, False]
    assert rep.qualifier == "at probe resolution"


def test_sublevel_penalty_compact(s4):
    ent = cond_entropic(s4, 1.0)
    probes = [
        RandomVariable([-1, -1, -1, -1]),
        RandomVariable([-2, 0, -1, -1]),
        RandomVariable([-0.5, -1.5, -0.2, -1.8]),
    ]
    rep = stable_sublevel_check(s4, penalty_map(ent), ConditionalValue([1, 1]), probes)
    assert rep.mixing_closure_passed
    assert rep.inf_compact_per_block == [True, True]


def test_sublevel_singleton(s4):
    ne = neg_cond_expectation(s4)
    rep = stable_sublevel_check(
        s4, penalty_map(ne), ConditionalValue([0, 0]), [RandomVariable([-1, -1, -1, -1])]
    )
    assert rep.members == 1
    assert rep.inf_compact_per_block == [True, True]


def test_sublevel_trivial_partition_membership(s4):
    ent = cond_entropic(s4, 1.0)
    x = RandomVariable([5, 5, 5, 5])  # rho(x) = -5 <= 0: inside
    rep = stable_sublevel_check(s4, ent.evaluate, ConditionalValue([0, 0]), [x])
    assert rep.members == 1 and rep.mixing_closure_passed
    y = RandomVariable([-5, -5, -5, -5])  # rho(y) = 5 > 0: outside
    rep = stable_sublevel_check(s4, ent.evaluate, ConditionalValue([0, 0]), [y])
    assert rep.members == 0 and rep.notes


def test_sublevel_walk_cap_is_reported(s4):
    # 12 singleton blocks and 5 members: Bell(12) partitions, 5^12 choices on
    # the first alone; the walk stops at its cap and says how far it got
    rng = np.random.default_rng(0)
    wide = FiniteProbSpace([1 / 12] * 12, [[j] for j in range(1, 13)])
    for space, capped in ((wide, True), (s4, False)):
        probes = [RandomVariable(-np.ones(space.n_atoms))] + [
            RandomVariable(admissible_dual(space, rng.uniform(0.2, 1.8, space.n_atoms)).values)
            for _ in range(4)
        ]
        f = penalty_map(cond_worst_case(space))
        rep = stable_sublevel_check(space, f, ConditionalValue(np.ones(space.n_blocks)), probes)
        assert rep.members == 5
        assert rep.mixing_closure_passed and all(rep.inf_compact_per_block)
        cap_notes = [n for n in rep.notes if "cap" in n]
        if capped:
            assert len(cap_notes) == 1 and "first 4097 combinations" in cap_notes[0]
        else:
            assert cap_notes == []
