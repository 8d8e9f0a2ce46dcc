import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (
    ConditionalValue,
    CondRiskMeasure,
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
from _helpers import reference_risk, reference_sublevel_walk
from condrisk import duality
from condrisk.duality import SUBLEVEL_MAX_COMBOS, DualityError, _project_capped_simplex

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


def _dual_probes(space, rng):
    return [RandomVariable(-np.ones(space.n_atoms))] + [
        RandomVariable(admissible_dual(space, rng.uniform(0.2, 1.8, space.n_atoms)).values)
        for _ in range(4)
    ]


def test_sublevel_walk_cap_is_reported(s4):
    # 12 singleton blocks and 5 members: 5^12 choices, one member per block;
    # the walk stops at its cap and says how far it got, in the words of the
    # walk through indicator_mix
    rng = np.random.default_rng(0)
    wide = FiniteProbSpace([1 / 12] * 12, [[j] for j in range(1, 13)])
    for space, capped in ((wide, True), (s4, False)):
        probes = _dual_probes(space, rng)
        f = penalty_map(cond_worst_case(space))
        eta = ConditionalValue(np.ones(space.n_blocks))
        rep = stable_sublevel_check(space, f, eta, probes)
        assert rep.members == 5
        assert rep.mixing_closure_passed and all(rep.inf_compact_per_block)
        assert (rep.members, rep.mixing_violation, rep.notes) == reference_sublevel_walk(
            space, f, eta, probes, SUBLEVEL_MAX_COMBOS
        )
        cap_notes = [n for n in rep.notes if "cap" in n]
        if capped:
            assert len(cap_notes) == 1 and "first 4097 combinations" in cap_notes[0]
        else:
            assert cap_notes == []
    # s4's whole walk is 5^2 = 25 choices: a cap one below stops on the last
    # of them, with none left and no note; a cap two below leaves one
    for cap, noted in ((24, False), (23, True)):
        with mock.patch.object(duality, "SUBLEVEL_MAX_COMBOS", cap):
            rep = stable_sublevel_check(s4, f, eta, probes)
        assert (rep.members, rep.mixing_violation, rep.notes) == reference_sublevel_walk(
            s4, f, eta, probes, cap
        )
        assert bool(rep.notes) == noted


def test_mixing_walk_matches_indicator_mix_reference():
    # four blocks of two shuffled atoms, five members: 5^4 = 625 choices of
    # one member per block.  This f is not even a function of the payoff: it
    # turns away the k-th payoff it is shown, so its violation lands wherever
    # the walk is at that call, and the walk must be at the same choice as
    # the reference
    rng = np.random.default_rng(8)
    space = FiniteProbSpace([1 / 8] * 8, [[3, 5], [1, 8], [6, 2], [7, 4]])
    probes = _dual_probes(space, rng)
    eta = ConditionalValue(np.ones(space.n_blocks))
    base = penalty_map(cond_worst_case(space))
    # calls 1-5 screen the members, 6-630 are the choices, 631 on probe the
    # rays
    for k in (9, 320, 630, 631):
        calls = [0]

        def f(v, k=k):
            calls[0] += 1
            out = base(v)
            return ConditionalValue(out.values + 5.0) if calls[0] == k else out

        rep = stable_sublevel_check(space, f, eta, probes)
        calls[0] = 0
        want = reference_sublevel_walk(space, f, eta, probes, SUBLEVEL_MAX_COMBOS)
        assert (rep.members, rep.mixing_violation, rep.notes) == want
        assert rep.mixing_closure_passed == (k == 631)
        if k == 630:  # the last choice: the last member on every block
            assert rep.mixing_violation["partition"] == [[1], [2], [3], [4]]
            assert rep.mixing_violation["choice"] == [probes[-1].values.tolist()] * 4


def test_mixing_walk_runs_to_its_end_under_the_cap():
    # 5 singleton blocks and 5 members: 5^5 = 3,125 choices fit under the cap,
    # so every choice is checked and no cap note is added
    space = FiniteProbSpace([1 / 5] * 5, [[j] for j in range(1, 6)])
    rows = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 5))
    probes = [RandomVariable(r) for r in rows]
    seen = []

    def f(v):
        # record the member each atom was taken from, for pasted payoffs
        hit = v.values[None, :] == rows
        if hit.any(axis=0).all():
            seen.append(tuple(int(np.argmax(c)) for c in hit.T))
        return ConditionalValue(np.abs(v.values))

    rep = stable_sublevel_check(space, f, ConditionalValue(np.ones(5)), probes)
    assert rep.members == 5 and rep.mixing_closure_passed
    assert rep.notes == []
    walked = seen[5:]  # the first five calls screen the members
    assert len(walked) == 3125 and set(walked) == set(itertools.product(range(5), repeat=5))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_any_partition_mix_is_a_mix_along_the_blocks(data):
    # the lemma the walk rests on: a mix along a partition of unity equals the
    # mix along the finest partition that gives each block its part's member
    m = data.draw(st.integers(1, 6))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    n = sum(sizes)
    order = data.draw(st.permutations(range(1, n + 1)))
    bounds = np.cumsum(sizes)[:-1]
    blocks = [list(b) for b in np.split(np.array(order), bounds)]
    space = FiniteProbSpace(np.full(n, 1.0 / n), blocks)
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    used = sorted(set(labels))
    partition = PartitionOfUnity(
        [space.algebra.element([j + 1 for j in range(m) if labels[j] == lab]) for lab in used]
    )
    members = [RandomVariable(np.arange(n) + 100.0 * r) for r in range(4)]
    choice = data.draw(st.lists(st.integers(0, 3), min_size=len(used), max_size=len(used)))
    mixed = space.indicator_mix(partition, [members[c] for c in choice])
    # the part of block j + 1 is the one holding its atom of the algebra
    part_of = [next(i for i, p in enumerate(partition) if p.mask >> j & 1) for j in range(m)]
    finest = PartitionOfUnity(space.algebra.atom_elements())
    composed = space.indicator_mix(finest, [members[choice[part_of[j]]] for j in range(m)])
    assert np.array_equal(mixed.values, composed.values)


def test_user_ascent_stays_on_the_density_simplex():
    # every penalty is +inf off the simplex, so the ascent of a user measure
    # with no gradient hook asks the grid conjugate only about densities
    space = FiniteProbSpace([0.1, 0.2, 0.3, 0.15, 0.25], [[2, 4, 5], [1, 3]])

    def ev(x):
        return ConditionalValue(reference_risk(space, "entropic", [1.0, 1.0], x.values))

    user = CondRiskMeasure(space, ev, "user_entropic")
    gaps = []
    grid = duality._block_conjugate_grid

    def spy(measure, y_block):
        gaps.append(abs(float(np.dot(measure.space.cond_probs(1), y_block)) + 1.0))
        return grid(measure, y_block)

    x = RandomVariable([0.5, -1.0, 2.0, 0.0, 1.0])
    with mock.patch.object(duality, "_block_conjugate_grid", spy):
        result = dual_representation(user, x, DualSearchConfig(max_iters=3))
    assert gaps and max(gaps) <= 1e-9
    assert np.all(result.value.values <= user.evaluate(x).values + 1e-9)


def test_user_ascent_climbs_along_the_grid_maximizer():
    # a user measure declares no penalty gradient; the grid conjugate's
    # maximizer supplies it, and the ascent must reach rho(x) on every block,
    # the 3-atom block included
    p = np.array([0.113, 0.26, 0.156, 0.102, 0.124, 0.245])
    space = FiniteProbSpace(p / p.sum(), [[2], [1, 4], [3, 5, 6]])
    blocks = [np.array(b) - 1 for b in space.blocks]

    def batch(xs):
        out = np.empty((len(xs), len(blocks)))
        for j, idx in enumerate(blocks):
            q = space.probs[idx] / space.probs[idx].sum()
            a = -1.3 * xs[:, idx]
            top = a.max(axis=1)
            out[:, j] = (top + np.log(np.exp(a - top[:, None]) @ q)) / 1.3
        return out

    user = CondRiskMeasure(
        space, lambda x: ConditionalValue(batch(x.values[None])[0]), "user", evaluate_batch_fn=batch
    )
    x = RandomVariable([1.09, -2.9, 0.6, 1.99, 0.94, 0.52])
    result = dual_representation(user, x)
    assert result.converged == [True, True, True] and result.warnings == []
    gap = user.evaluate(x).values - result.value.values
    assert np.all(gap >= -1e-9) and np.all(gap <= 1e-7)
