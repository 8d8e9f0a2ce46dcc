import itertools
import math
import re
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
    SpaceError,
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
from _helpers import reference_risk, reference_sublevel_rays, reference_sublevel_walk
from condrisk import duality
from condrisk.duality import SUBLEVEL_MAX_COMBOS, DualityError, _project_capped_simplex
from condrisk.riskcore import BUILTIN_FACTORIES

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


def test_grid_conjugate_is_infinite_just_off_the_density_simplex():
    # on this block the grid's gains stop under GRID_TOL before they show the
    # slope |E[y] + 1| of a dual moved off the simplex by 1e-7 or 1e-4, so
    # the constant ray x = c sign(E[y] + 1) must certify +inf first
    space = FiniteProbSpace([0.178, 0.623, 0.199], [[1, 2, 3]])
    ent = cond_entropic(space, 1.3)
    y = admissible_dual(space, [2.13, 0.94, 0.19]).values
    value, _, ray = duality._block_conjugate_grid(ent, y)
    assert ray is None
    assert abs(value - ent.closed_form_penalty(y[None])[0, 0]) <= 1e-6
    for i in range(3):
        for shift in (1e-7, -1e-7, 1e-4, -1e-4):
            z = y.copy()
            z[i] += shift
            assert math.isinf(ent.closed_form_penalty(z[None])[0, 0])
            value, _, ray = duality._block_conjugate_grid(ent, z)
            assert math.isinf(value)
            assert np.allclose(ray, math.copysign(1.0, shift) / math.sqrt(3.0))


@pytest.mark.parametrize("kind", sorted(BUILTIN_FACTORIES))
def test_grid_conjugate_is_infinite_a_hair_off_the_density_simplex(kind):
    # a gap just over ADMISSIBLE_TOL gains under GRID_TOL at the constant
    # ray's first radius unless the ray's unit is stretched to clear it
    space = FiniteProbSpace([0.178, 0.623, 0.199], [[1, 2, 3]])
    measure = BUILTIN_FACTORIES[kind](space, gamma=1.3, **{"lambda": 0.4})
    y = admissible_dual(space, [2.13, 0.94, 0.19]).values
    for gap in (2e-10, -2e-10, 1.01e-10):
        z = y * (1.0 - gap)  # E[z] + 1 = gap
        assert math.isinf(measure.closed_form_penalty(z[None])[0, 0])
        value, _, ray = duality._block_conjugate_grid(measure, z)
        assert math.isinf(value), (gap, value)
        assert np.allclose(ray, math.copysign(1.0, gap) / math.sqrt(3.0))


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


def test_ascent_warning_names_a_stalled_step_search(space8):
    # a closed-form penalty without a gradient hook: the ascent climbs the
    # linear part alone, and its step search stalls well before max_iters
    ent = cond_entropic(space8, 2.0)
    user = CondRiskMeasure(
        space8, ent.evaluate_fn, "user_entropic", closed_form_penalty=ent.closed_form_penalty
    )
    x = RandomVariable(np.random.default_rng(5).normal(0.0, 2.0, 8))
    cfg = DualSearchConfig(max_iters=400)
    result = dual_representation(user, x, cfg)
    assert result.warnings and len(result.warnings) == result.converged.count(False)
    for warning in result.warnings:
        assert "step search stalled after" in warning and " with gap " in warning
        assert int(warning.split("stalled after ")[1].split()[0]) < cfg.max_iters


def _message(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_penalty_map_row_form_keeps_the_row_checks(s4, space8):
    rng = np.random.default_rng(12)
    for measure in (cond_entropic(space8, 1.5), cond_avar(space8, 0.4).restrict(2)):
        f = penalty_map(measure)
        n = measure.space.n_atoms
        vs = np.vstack([rng.normal(-1.0, 1.0, (6, n)), -np.ones(n)])
        assert np.array_equal(f.rows(vs), np.stack([f(RandomVariable(v)).values for v in vs]))
        bad = vs.copy()
        bad[3, 0] = -np.inf
        assert _message(lambda: f.rows(bad)) == _message(lambda: DualVariable(bad[3]))
    f = penalty_map(cond_worst_case(s4))
    wrong = -np.ones(5)
    assert _message(lambda: f.rows(wrong[None])) == _message(lambda: f(RandomVariable(wrong)))
    # a NaN penalty is refused as a ConditionalValue refuses it
    nan = cond_worst_case(s4)
    nan.closed_form_penalty = lambda ys: np.full((len(ys), 2), math.nan)
    f = penalty_map(nan)
    v = -np.ones(4)
    assert _message(lambda: f.rows(v[None])) == _message(lambda: f(RandomVariable(v)))
    # user measures, and their padded restrictions, have the row form too
    worst = cond_worst_case(s4)
    user = CondRiskMeasure(
        s4, lambda x: s4.esssup_cond(-x), "user_worst", closed_form_penalty=worst.closed_form_penalty
    )
    for measure in (user, user.restrict(1)):
        f = penalty_map(measure)
        vs = -np.ones((2, measure.space.n_atoms))
        assert np.array_equal(f.rows(vs), np.stack([f(RandomVariable(v)).values for v in vs]))


def test_reassigned_closed_form_moves_f_and_its_row_form_alike(s4):
    m = cond_worst_case(s4)
    m.closed_form_penalty = lambda ys: np.full((len(ys), 2), 7.0)
    f = penalty_map(m)
    v = -np.ones(4)
    assert f(RandomVariable(v)) == ConditionalValue([7.0, 7.0])
    assert np.array_equal(f.rows(v[None]), [[7.0, 7.0]])


@pytest.mark.parametrize("shape", [lambda rows: (rows, 3), lambda rows: (rows,), lambda rows: (2,)])
def test_closed_form_of_wrong_shape_refused_for_every_caller(s4, shape):
    m = CondRiskMeasure(
        s4,
        lambda x: s4.esssup_cond(-x),
        "misshapen",
        closed_form_penalty=lambda ys: np.zeros(shape(len(ys))),
    )
    named = re.escape(f"misshapen returned penalties of shape {shape(1)}")
    y = DualVariable([-1.0] * 4)
    for call in (
        lambda: fenchel(m, y),
        lambda: penalty_of(m, y),
        lambda: penalty_map(m)(RandomVariable(y.values)),
        lambda: penalty_map(m.restrict(2)).rows(-np.ones((1, 2))),
        lambda: dual_representation(m, RandomVariable([1.0, 2.0, 3.0, 4.0])),
    ):
        with pytest.raises(SpaceError, match=named):
            call()


def test_hypothesis_can_report_a_falsifying_example():
    # Hypothesis imports this module to print a failing example; the warning
    # filter must let it in, or a failing property ends the run with an
    # INTERNALERROR that hides the example
    import hypothesis.extra._patching  # noqa: F401


def _with_rows(per_row, rows):
    def f(v):
        return per_row(v)

    f.rows = rows
    return f


def test_rays_past_float_range_act_as_one_payoff_at_a_time(s4):
    # a ray that has left the set on every block before it leaves float range
    # is fine; one that leaves float range first raises, as that payoff would
    bary = RandomVariable(-np.ones(4))
    huge = RandomVariable([-1e300, -1.0, -1.0, -1.0])
    pen = penalty_map(cond_worst_case(s4))
    for f in (pen, lambda v: pen(v)):
        rep = stable_sublevel_check(s4, f, ConditionalValue([1, 1]), [bary, huge])
        assert rep.members == 1 and rep.bounded_per_block == [True, True]
    ent = cond_entropic(s4, 1.0)
    for f in (_with_rows(ent.evaluate, ent.evaluate_batch), ent.evaluate):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="entries must be finite"):
            stable_sublevel_check(s4, f, ConditionalValue([5, 5]), [RandomVariable([5.0] * 4), huge])


@st.composite
def sublevel_cases(draw):
    m = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
    blocks = [b.tolist() for b in np.split(np.array(order), np.cumsum(sizes)[:-1])]
    space = FiniteProbSpace(weights / weights.sum(), blocks)
    measure = BUILTIN_FACTORIES[draw(st.sampled_from(sorted(BUILTIN_FACTORIES)))](
        space, gamma=draw(st.sampled_from([0.5, 2.0])), **{"lambda": draw(st.sampled_from([0.3, 1.0]))}
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probes = [RandomVariable(-np.ones(n))] + [
        RandomVariable(admissible_dual(space, rng.uniform(0.2, 1.8, n)).values)
        for _ in range(draw(st.integers(0, 4)))
    ]
    if draw(st.booleans()):  # a zero direction and a payoff off the density cone
        probes += [RandomVariable(np.zeros(n)), RandomVariable(rng.normal(0.0, 1.0, n))]
    levels = draw(st.lists(st.sampled_from([0.0, 0.05, 1.0]), min_size=m, max_size=m))
    return space, measure, probes, ConditionalValue(levels), draw(st.integers(1, 40))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(sublevel_cases(), st.booleans())
def test_batched_walk_and_rays_match_the_row_by_row_references(case, on_risk):
    # f is a built-in's penalty map, or its risk, whose sublevel sets are
    # unbounded along payoffs that rise; each walk runs under a small cap and
    # under the real one, so caps are both hit and not hit
    space, measure, probes, eta, cap = case
    if on_risk:
        f = _with_rows(measure.evaluate, measure.evaluate_batch)
    else:
        f = penalty_map(measure)
        assert f.rows is not None
    members = [v for v in probes if np.all(f(v).values <= eta.values)]
    rays = reference_sublevel_rays(space, f, eta, probes, members)
    for max_combos in (cap, SUBLEVEL_MAX_COMBOS):
        with mock.patch.object(duality, "SUBLEVEL_MAX_COMBOS", max_combos):
            rep = stable_sublevel_check(space, f, eta, probes)
        walk = reference_sublevel_walk(space, f, eta, probes, max_combos)
        assert (rep.members, rep.mixing_violation, rep.notes) == walk
        assert rep.bounded_per_block == rays


def test_row_form_walk_reports_the_first_violation_in_product_order():
    # 4 uneven shuffled blocks and 4 members: 256 choices, and no block is a
    # singleton, on which every member is -1.  This row-form f breaks
    # locality on chosen mixes; a batch may hold several of them, and the
    # report must name the first in product order
    space = FiniteProbSpace(np.full(9, 1 / 9), [[4, 9], [1, 6], [7, 2, 5], [3, 8]])
    probes = _dual_probes(space, np.random.default_rng(5))[:4]
    eta = ConditionalValue(np.ones(4))
    base = penalty_map(cond_worst_case(space))
    choices = list(itertools.product(range(4), repeat=4))
    stack = np.stack([p.values for p in probes])
    cols = np.arange(space.n_atoms)
    # no chosen mix is a probe itself, as choices 0, 85, 170 and 255 are
    for bad in ([5, 6], [100, 97, 120], [1], [254], [200, 130]):
        mixes = np.stack([stack[space.broadcast(np.array(choices[c])), cols] for c in bad])
        seen = []

        def hit(vs, mixes=mixes):
            return (vs[:, None, :] == mixes[None]).all(axis=-1).any(axis=-1)

        def rows(vs, seen=seen, hit=hit):
            seen.append(len(vs))
            return base.rows(vs) + 5.0 * hit(vs)[:, None]

        f = _with_rows(lambda v, hit=hit: ConditionalValue(base(v).values + 5.0 * hit(v.values[None])[0]), rows)
        rep = stable_sublevel_check(space, f, eta, probes)
        want = reference_sublevel_walk(space, f, eta, probes, SUBLEVEL_MAX_COMBOS)
        assert (rep.members, rep.mixing_violation, rep.notes) == want
        first = min(bad)
        assert rep.mixing_violation["choice"] == [probes[k].values.tolist() for k in choices[first]]
        # one call screens the probe and one takes every ray at its first
        # step, where all 8 leave the set; the walk between them pastes
        # batches of 1, 2, 4, ... rows and stops with the batch that holds the
        # first violation
        assert seen[0] == 4 and seen[-1] == 8
        assert sum(seen[1:-1]) == 2 ** (first + 1).bit_length() - 1


def _hook_variant(hook, variant):
    """A closed form as declared, or one that breaks its contract on every call."""
    if variant == "nan":
        return lambda ys: hook(ys) * math.nan
    if variant == "misshapen":
        return lambda ys: hook(ys)[..., None]
    return hook


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sublevel_cases(), st.sampled_from(["plain", "nan", "misshapen"]))
def test_user_row_form_is_the_stack_of_its_rows(case, variant):
    # a user measure that declares a closed form, and each of its padded
    # restrictions: the row form gives what f gives on each row, values and
    # errors alike, and the values of the built-in it was made from
    space, builtin, _, _, _ = case
    user = CondRiskMeasure(
        space,
        builtin.evaluate_fn,
        "user",
        closed_form_penalty=_hook_variant(builtin.closed_form_penalty, variant),
    )
    rng = np.random.default_rng(space.n_atoms)
    for j, measure in [(0, user)] + [(j, user.restrict(j)) for j in range(1, space.n_blocks + 1)]:
        f = penalty_map(measure)
        n = measure.space.n_atoms
        vs = np.vstack([rng.normal(-1.0, 1.0, (5, n)), -np.ones(n)])
        if variant != "plain":
            for v in vs:
                assert _message(lambda: f.rows(v[None])) == _message(lambda: f(RandomVariable(v)))
            continue
        rows = f.rows(vs)
        assert np.array_equal(rows, np.stack([f(RandomVariable(v)).values for v in vs]))
        native = penalty_map(builtin if j == 0 else builtin.restrict(j)).rows(vs)
        assert np.array_equal(np.isinf(rows), np.isinf(native))
        assert np.allclose(rows[~np.isinf(rows)], native[~np.isinf(native)], rtol=0, atol=1e-12)
        bad = vs.copy()
        bad[2, 0] = math.nan
        assert _message(lambda: f.rows(bad)) == _message(lambda: DualVariable(bad[2]))
        wrong = -np.ones(n + 1)
        assert _message(lambda: f.rows(wrong[None])) == _message(lambda: f(RandomVariable(wrong)))
