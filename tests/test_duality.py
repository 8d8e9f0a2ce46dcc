import dataclasses
import itertools
import math
import re
import tracemalloc
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
    fenchel_consistency,
    neg_cond_expectation,
    penalty_map,
    penalty_of,
    stable_sublevel_check,
    verify_representation,
)
from _helpers import (
    max_of_linear,
    reference_risk,
    reference_sublevel_rays,
    reference_sublevel_walk,
    spy_calls,
    user_entropic,
)
from condrisk import duality, riskcore
from condrisk.duality import SUBLEVEL_MAX_COMBOS, DualityError
from condrisk.riskcore import BUILTIN_FACTORIES

LOG2 = math.log(2.0)


def _no_difference_duals():
    """The difference route off, as ``_exact_duals`` is off for a user
    measure: every block of a user measure goes to the fallback candidates."""
    return mock.patch.object(duality, "_difference_duals", return_value=None)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda s4: DualVariable([-1.0] * 5).is_admissible(s4),
        lambda s4: DualVariable([-1.0] * 3).is_admissible(s4),
        lambda s4: admissible_dual(s4, [1.0] * 3),
        lambda s4: admissible_dual(s4, [1.0] * 5),
    ],
    ids=["admissible_long", "admissible_short", "density_short", "density_long"],
)
def test_length_mismatches_are_named(s4, call):
    # the one length check of the dual layer, as penalty_of has it
    with pytest.raises(DualityError, match="^dual variable length does not match the space$"):
        call(s4)


def test_admissible_dual_refuses_a_negative_or_massless_density(s4):
    with pytest.raises(ValueError, match="^densities must be nonnegative$"):
        admissible_dual(s4, [1, -1, 1, 1])
    with pytest.raises(ValueError, match="^density has zero conditional mass on block 1$"):
        admissible_dual(s4, [0, 0, 1, 1])


def test_empty_payoffs_and_probes_are_refused(s4):
    m = cond_entropic(s4, 1.0)
    with pytest.raises(ValueError, match="^verify_representation needs at least one payoff$"):
        verify_representation(m, [])
    with pytest.raises(ValueError, match="^probe must be nonempty$"):
        stable_sublevel_check(s4, penalty_map(m), ConditionalValue([1.0, 1.0]), [])


def test_a_closed_form_below_the_conjugate_trips_the_weak_duality_guard(s4):
    # the negated mean with its closed form lowered by 1 on block 2 keeps its
    # exact dual oracle, whose value there is then rho(x) + 1
    m = neg_cond_expectation(s4)
    closed = m.closed_form_penalty
    object.__setattr__(m, "closed_form_penalty", lambda ys: closed(ys) - np.array([0.0, 1.0]))
    with pytest.raises(DualityError, match=r"^weak duality violated by 1\.000e\+00 for neg_expectation$"):
        verify_representation(m, [RandomVariable([1.0, -2.0, 0.5, 3.0])])


def test_an_anti_monotone_user_measure_gets_no_difference_dual(s4):
    # rho(x) = E[x | F] rises with x: its differences give no density, and no
    # fallback candidate reaches rho(x) on a block where E[x | F] is not 0
    user = CondRiskMeasure(s4, lambda x: s4.cond_expect(x), "anti_monotone")
    x = RandomVariable([1.0, 3.0, 2.0, 6.0])
    assert duality._difference_duals(user, x.values) is None
    result = dual_representation(user, x)
    assert result.converged == [False, False]
    assert [w.split(",")[0] for w in result.warnings] == [
        f"block {j}: no candidate dual within {duality.ASCENT_GAP_TOL:g}" for j in (1, 2)
    ]


def test_fenchel_examples_neg_expectation(s4):
    ne = neg_cond_expectation(s4)
    assert np.array_equal(
        penalty_of(ne, DualVariable([-1, -1, -1, -1])).values, [0.0, 0.0]
    )
    pen = penalty_of(ne, DualVariable([-2, 0, -1, -1]))
    assert math.isinf(pen.values[0]) and pen.values[1] == 0.0
    # the numeric route must certify the same divergence
    grid = fenchel(ne, DualVariable([-2, 0, -1, -1]))
    assert math.isinf(grid.values[0]) and abs(grid.values[1]) <= 1e-9


def test_fenchel_examples_entropic(s4):
    ent = cond_entropic(s4, 1.0)
    y = DualVariable([-2, 0, -1, -1])
    pen = penalty_of(ent, y)
    assert pen.values == pytest.approx([LOG2, 0.0], abs=1e-12)
    grid = fenchel(ent, y)
    assert grid.values == pytest.approx([LOG2, 0.0], abs=1e-6)


def test_fenchel_never_reads_a_closed_form(s4):
    # fenchel is the numeric conjugate: a closed form that fails when read,
    # or none at all, leaves it as it is, while penalty_of reads the closed
    # form wherever there is one
    ent = cond_entropic(s4, 1.0)
    y = DualVariable([-2, 0, -1, -1])

    def unreadable(ys):
        raise AssertionError("closed form read")

    failing = dataclasses.replace(ent, closed_form_penalty=unreadable)
    for m in (failing, dataclasses.replace(ent, closed_form_penalty=None)):
        assert fenchel(m, y).values == pytest.approx([LOG2, 0.0], abs=1e-6)
    with pytest.raises(AssertionError, match="closed form read"):
        penalty_of(failing, y)


def test_grid_matches_closed_form_entropic(s4):
    ent = cond_entropic(s4, 1.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        y = admissible_dual(s4, rng.uniform(0.05, 2.5, 4))
        a = penalty_of(ent, y).values
        b = fenchel(ent, y).values
        assert np.max(np.abs(a - b)) <= 1e-5


@st.composite
def one_block_builtins(draw):
    """One of the four built-ins on one block of 1-5 atoms, and an admissible dual."""
    k = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), float)
    space = FiniteProbSpace(weights / weights.sum(), [list(range(1, k + 1))])
    kind = draw(st.sampled_from(sorted(BUILTIN_FACTORIES)))
    params = {"gamma": draw(st.sampled_from([0.4, 1.3, 3.0])), "lambda": draw(st.sampled_from([0.2, 0.5, 1.0]))}
    dens = np.array(draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)), float)
    dens[draw(st.integers(0, k - 1))] += 1.0
    return BUILTIN_FACTORIES[kind](space, **params), admissible_dual(space, dens)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(one_block_builtins())
def test_grid_matches_every_closed_form_on_one_block(case):
    # the slice grid and its compass polish reach each built-in's closed-form
    # penalty; +inf verdicts agree exactly
    measure, y = case
    closed, grid = penalty_of(measure, y).values[0], fenchel(measure, y).values[0]
    assert math.isinf(closed) == math.isinf(grid)
    if math.isfinite(closed):
        assert abs(closed - grid) <= 1e-10


@pytest.mark.parametrize("kind", ["worst_case", "avar"])
def test_a_polish_that_never_moves_divides_its_step_by_two_to_the_scales(monkeypatch, s4, kind):
    # at an admissible dual under the cap the best point of these measures is
    # x = 0, so no compass candidate gains and each lockstep step divides the
    # step by 2^COMPASS_SCALES until it is at most 1e-5.  Both blocks of s4
    # hold 2 atoms: one stack, whose two pairs are polished in one lockstep
    measure = BUILTIN_FACTORIES[kind](s4, **{"lambda": 0.5})
    refine, polishes = duality._compass_refine, []

    def counted(objective, rows, per, points, steps, best):
        first, calls = steps.copy(), []

        def step(pairs, cand):
            calls.append(pairs)
            return objective(pairs, cand)

        refine(step, rows, per, points, steps, best)
        polishes.append((first, len(calls), points.copy()))

    monkeypatch.setattr(duality, "_compass_refine", counted)
    fenchel(measure, DualVariable([-1.5, -0.5, -1.0, -1.0]))
    assert len(polishes) == 1
    first, steps, points = polishes[0]
    assert first.shape == (2,) and (first > 0).all()
    bound = math.ceil(math.log2(first.max() / 1e-5) / duality.COMPASS_SCALES) + 1
    assert 0 < steps <= bound and not points.any()


def test_a_padded_restriction_grid_holds_no_rows_by_atoms_array():
    # a user copy's block restriction pads grid rows to the whole space in
    # row batches of at most CHUNK_ELEMENTS entries, so one grid conjugate on
    # a 5-atom block of a 2,000-atom space never holds grid rows x 2,000 floats
    n = 2000
    probs = np.random.default_rng(5).uniform(0.5, 2.0, n)
    space = FiniteProbSpace(probs / probs.sum(), [list(range(1, 6)), list(range(6, n + 1))])
    block = _hookless(cond_entropic(space, 1.3)).restrict(1)
    y = admissible_dual(block.space, [1.0, 2.0, 3.0, 1.0, 0.5]).values[None]
    tracemalloc.start()
    try:
        duality._block_conjugate_grid(block, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_a_grid_over_its_cap_is_refused_before_it_is_built(monkeypatch):
    # the smallest block whose slice grid holds more than GRID_MAX_POINTS
    # points, on a user copy without a closed form: refused by name, and
    # _grid_points never runs
    k = next(k for k in itertools.count(4) if 5 ** (k - 1) > duality.GRID_MAX_POINTS)
    space = FiniteProbSpace(np.full(k, 1.0 / k), [list(range(1, k + 1))])
    measure = _hookless(cond_entropic(space, 1.0))
    monkeypatch.setattr(duality, "_grid_points", mock.Mock(side_effect=AssertionError("grid built")))
    message = f"a block of {k} atoms needs a grid of 5^{k - 1} points, over GRID_MAX_POINTS = {duality.GRID_MAX_POINTS}"
    with pytest.raises(DualityError, match=f"^{re.escape(message)}$"):
        fenchel(measure, DualVariable(-np.ones(k)))


def test_grid_conjugate_is_infinite_just_off_the_density_simplex():
    # on this block the grid's gains stop under GRID_TOL before they show the
    # slope |E[y] + 1| of a dual moved off the simplex by 1e-7 or 1e-4, so
    # the constant ray x = c sign(E[y] + 1) must certify +inf first
    space = FiniteProbSpace([0.178, 0.623, 0.199], [[1, 2, 3]])
    ent = cond_entropic(space, 1.3)
    y = admissible_dual(space, [2.13, 0.94, 0.19]).values
    shifts = [(i, shift) for i in range(3) for shift in (1e-7, -1e-7, 1e-4, -1e-4)]
    zs = np.tile(y, (len(shifts) + 1, 1))
    for row, (i, shift) in enumerate(shifts, start=1):
        zs[row, i] += shift
    # the admissible row and the twelve shifted ones in one lockstep call
    values, _, rays = duality._block_conjugate_grid(ent, zs)
    assert values.shape == (len(zs), 1) and np.isnan(rays[0]).all()
    assert abs(values[0, 0] - ent.closed_form_penalty(y[None])[0, 0]) <= 1e-6
    for row, (i, shift) in enumerate(shifts, start=1):
        assert math.isinf(ent.closed_form_penalty(zs[row][None])[0, 0])
        assert math.isinf(values[row, 0])
        assert np.allclose(rays[row], math.copysign(1.0, shift) / math.sqrt(3.0))


@pytest.mark.parametrize("kind", sorted(BUILTIN_FACTORIES))
def test_grid_conjugate_is_infinite_a_hair_off_the_density_simplex(kind):
    # a gap just over ADMISSIBLE_TOL gains under GRID_TOL at the constant
    # ray's first radius unless the ray's unit is stretched to clear it
    space = FiniteProbSpace([0.178, 0.623, 0.199], [[1, 2, 3]])
    measure = BUILTIN_FACTORIES[kind](space, gamma=1.3, **{"lambda": 0.4})
    y = admissible_dual(space, [2.13, 0.94, 0.19]).values
    gaps = np.array([2e-10, -2e-10, 1.01e-10])
    zs = y * (1.0 - gaps[:, None])  # E[z] + 1 = gap on each row
    assert np.isinf(measure.closed_form_penalty(zs)).all()
    values, _, rays = duality._block_conjugate_grid(measure, zs)
    for gap, value, ray in zip(gaps, values[:, 0], rays):
        assert math.isinf(value), (gap, value)
        assert np.allclose(ray, math.copysign(1.0, gap) / math.sqrt(3.0))


@st.composite
def lockstep_cases(draw):
    """A stack of 1-4 shuffled blocks of 1-5 atoms (``riskcore._stacked``) of
    one of the four built-ins, a copy without closed form or
    ``user_entropic``, with a block of 2 atoms outside it, or a measure on
    one block in order, which is its own stack; the measure it is cut from,
    its blocks, and 1-4 rows of duals on the stack whose part on each block
    is admissible, off the density simplex by 1e-7 either way, or has one
    positive entry."""
    k = draw(st.sampled_from([1, 2, 3, 4, 5]))
    size = draw(st.integers(1, 4))
    alone = size == 1 and draw(st.booleans())
    n = size * k + (0 if alone else 2)
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
    atoms = list(range(1, n + 1)) if alone else draw(st.permutations(range(1, n + 1)))
    cuts = [atoms[a : a + k] for a in range(0, size * k, k)] + [atoms[size * k :]] * (not alone)
    space = FiniteProbSpace(weights / weights.sum(), cuts)
    kind = draw(st.sampled_from(sorted(BUILTIN_FACTORIES) + ["hookless", "user"]))
    params = {"gamma": draw(st.sampled_from([0.4, 1.3, 3.0])), "lambda": draw(st.sampled_from([0.2, 0.5, 1.0]))}
    if kind == "user":
        measure = user_entropic(space, params["gamma"])
    elif kind == "hookless":
        measure = _hookless(BUILTIN_FACTORIES["entropic"](space, **params))
    else:
        measure = BUILTIN_FACTORIES[kind](space, **params)
    blocks = np.arange(size)
    stack = riskcore._stacked(measure, blocks)[0]
    ys = []
    for _ in range(draw(st.integers(1, 4))):
        dens = np.array(draw(st.lists(st.integers(0, 6), min_size=size * k, max_size=size * k)), float).reshape(size, k)
        dens[blocks, draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))] += 1.0
        y = admissible_dual(stack.space, dens.ravel()).values.reshape(size, k).copy()
        for a in blocks:
            shape = draw(st.sampled_from(["admissible", "off", "positive"]))
            if shape == "off":
                y[a] *= 1.0 + draw(st.sampled_from([1e-7, -1e-7]))
            elif shape == "positive":
                y[a, draw(st.integers(0, k - 1))] = draw(st.sampled_from([0.25, 1.0]))
        ys.append(y.ravel())
    return measure, blocks, stack, np.array(ys)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lockstep_cases())
def test_lockstep_grid_rows_are_one_row_calls(case):
    # every (row, block) pair's value, point and ray are those of a one-row
    # call on its block's restriction, bit for bit
    measure, blocks, stack, ys = case
    values, points, rays = duality._block_conjugate_grid(stack, ys)
    k = ys.shape[1] // len(blocks)
    assert values.shape == (len(ys), len(blocks)) and points.shape == ys.shape and rays.shape == ys.shape
    for i, a in itertools.product(range(len(ys)), blocks):
        cut = slice(a * k, (a + 1) * k)
        value, point, ray = values[i, a], points[i, cut], rays[i, cut]
        alone = duality._block_conjugate_grid(measure.restrict(a + 1), ys[None, i, cut])
        assert value == alone[0][0, 0] or (math.isnan(value) and math.isnan(alone[0][0, 0]))
        assert np.array_equal(point, alone[1][0]) and np.array_equal(np.signbit(point), np.signbit(alone[1][0]))
        assert np.array_equal(ray, alone[2][0], equal_nan=True)
        assert np.isnan(ray).all() == math.isfinite(value)


@pytest.mark.parametrize("user", [False, True])
def test_a_grid_step_evaluates_all_rows_of_a_block_at_once(monkeypatch, user):
    # three rows of one block searched in lockstep: one call for the start
    # and one per grid doubling for every row still at it, so as many
    # doublings as the slowest row takes alone, where one search per row
    # made the sum.  The grid covers the slice E[x] = 0 alone, per_axis^2
    # points on 3 atoms.  A compass step of 2k candidates at COMPASS_SCALES
    # step sizes is one call for every row of a built-in, and one call per
    # row of a user measure, whose batch function may round a row by the
    # rows beside it
    space = FiniteProbSpace([0.178, 0.623, 0.199], [[1, 2, 3]])
    ent = cond_entropic(space, 1.3)
    measure = _hookless(ent) if user else ent
    ys = np.stack([admissible_dual(space, d).values for d in ([2.13, 0.94, 0.19], [1, 1, 1], [0.3, 2.0, 1.1])])
    calls = spy_calls(monkeypatch, CondRiskMeasure, "evaluate_batch")
    grid, candidates = duality.GRID_PER_AXIS**2, 6 * duality.COMPASS_SCALES

    def counts(rows):
        del calls[:]
        pen = duality._penalty_rows(measure, rows, closed_form=False)
        sizes = [len(xs) for _, xs in calls]
        return pen, sizes.count(1), sizes.count(grid), sum(n % candidates == 0 for n in sizes), len(sizes)

    alone = [counts(y[None]) for y in ys]
    pen, start, doublings, steps, total = counts(ys)
    assert np.array_equal(pen, np.concatenate([a[0] for a in alone]))
    assert sum(a[2] for a in alone) > max(a[2] for a in alone) and sum(a[3] for a in alone) > max(a[3] for a in alone)
    assert start == 1 and doublings == max(a[2] for a in alone)
    assert steps == (sum if user else max)(a[3] for a in alone)
    assert total == start + doublings + steps


def test_user_measure_rows_do_not_depend_on_their_batch():
    # user_entropic takes one matrix-vector product over its whole batch, so
    # it can round a row by the rows beside it; its penalty rows and sublevel
    # walk are still those of one-row calls.  It has no closed form, so
    # fenchel_consistency would compare the grid with itself: it refuses
    space = FiniteProbSpace(np.array([3.0, 9.0, 5.0, 2.0, 2.0]) / 21.0, [[1, 2, 3], [4, 5]])
    user = user_entropic(space, 1.3)
    rng = np.random.default_rng(12)
    duals = [admissible_dual(space, rng.uniform(0.2, 1.8, 5)) for _ in range(6)]
    vs = np.stack([y.values for y in duals])
    f = penalty_map(user)
    assert np.array_equal(f.rows(vs), np.stack([f(RandomVariable(v)).values for v in vs]))
    with pytest.raises(DualityError, match="^fenchel_consistency needs a closed-form penalty; user_entropic has none$"):
        fenchel_consistency(user, duals)
    probes = [RandomVariable(v) for v in vs]
    eta = ConditionalValue(np.median(f.rows(vs), axis=0))
    walk = stable_sublevel_check(space, f, eta, probes)
    one_by_one = stable_sublevel_check(space, lambda v: f(v), eta, probes)
    assert 0 < walk.members < len(probes)
    assert walk == one_by_one


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the grid conjugate stops short of the sup of a polyhedral user "
    "measure: it gives 5/36 where LP duality gives 1/6",
)
def test_grid_conjugate_reaches_a_polyhedral_sup():
    # the objective E[xy] - rho(x) is 1/6 at x = (0, -3.75, -3), and no x
    # does better: 1/6 is the LP value of the conjugate of this max of pieces
    space = FiniteProbSpace(np.full(3, 1.0 / 3.0), [[1, 2, 3]])
    d = np.array([[1.0, 1.0, 1.0], [0.5, 0.0, 2.5], [1.0, 2.0, 0.0]])
    measure = max_of_linear(space, d, [[0.0], [0.25], [0.25]])
    y = DualVariable([-5.0 / 6.0, -1.0, -7.0 / 6.0])
    x = RandomVariable([0.0, -3.75, -3.0])
    attained = space.cond_expect(x * y.values).values - measure.evaluate(x).values
    assert attained == pytest.approx([1.0 / 6.0], abs=1e-12)
    assert fenchel(measure, y).values == pytest.approx([1.0 / 6.0], abs=1e-9)


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
            assert e.maximizer.is_admissible(s4)
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


def test_representation_json_carries_dual_warnings(s4):
    # a built-in's exact dual leaves no gap; a user copy of entropic whose
    # penalty is moved up by 1 leaves every candidate 1 short, and the
    # warning that names each block's shortfall reaches the JSON
    x = RandomVariable([1, 3, 2, 6])
    ent = cond_entropic(s4, 0.2)
    pen = ent.closed_form_penalty
    moved = dataclasses.replace(ent, closed_form_penalty=lambda ys: pen(ys) + 1.0)
    entry = verify_representation(moved, [x]).to_dict()["entries"][0]
    assert entry["attained"] is False
    assert [w.split(", short")[0] for w in entry["warnings"]] == [
        f"block {j}: no candidate dual within 1e-08" for j in (1, 2)
    ]
    for w, short in zip(entry["warnings"], entry["gap"]):
        assert w.endswith(f"short of rho(x) by {short:.3e}") and abs(short - 1.0) <= 1e-8


def test_verify_representation_evaluates_each_payoff_once(space8):
    m = cond_avar(space8, 0.4)
    calls = []
    evaluate = m.evaluate_fn
    # a spy on the built-in itself: a replaced copy would take the user route
    object.__setattr__(m, "evaluate_fn", lambda x: calls.append(x) or evaluate(x))
    payoffs = [RandomVariable(np.arange(8.0)), RandomVariable(np.ones(8))]
    assert verify_representation(m, payoffs).attained_all
    assert calls == payoffs


def test_worst_case_dual_takes_the_first_tied_minimum():
    space = FiniteProbSpace([0.1, 0.2, 0.3, 0.15, 0.25], [[3, 1, 5], [4, 2]])
    x = RandomVariable([-1.0, 2.0, -1.0, 2.0, 0.5])
    result = dual_representation(cond_worst_case(space), x)
    # atom 3 comes before atom 1 in block 1; atom 4 before atom 2 in block 2
    q = space.probs / space.block_mass[space.block_of]
    assert result.maximizer.values == pytest.approx([0, 0, -1 / q[2], -1 / q[3], 0], rel=1e-15)
    assert result.value.values == pytest.approx([1.0, -2.0], abs=1e-15)


def test_avar_dual_splits_tied_boundary_atoms_under_the_cap():
    space = FiniteProbSpace([0.125] * 8, [[1, 2, 3, 4], [5, 6, 7, 8]])
    m = cond_avar(space, [0.5, 1.0])
    x = RandomVariable([1.0, 0.0, 1.0, 1.0, 3.0, -1.0, 0.0, 2.0])
    result = dual_representation(m, x)
    rho = m.evaluate(x).values
    assert rho == pytest.approx([-0.5, -1.0], abs=1e-15)
    assert np.all(np.abs(result.value.values - rho) <= 1e-15)
    d = -result.maximizer.values
    # block 1: the tail is atom 2 and a half of the tied atoms 1, 3 and 4,
    # which the oracle fills one at a time; block 2 is at lambda = 1
    assert np.all(d[:4] <= 2.0 + 1e-10) and d[1] == pytest.approx(2.0, rel=1e-15)
    assert sorted(d[[0, 2, 3]]) == pytest.approx([0.0, 0.0, 2.0], abs=1e-15)
    assert d[4:] == pytest.approx([1.0] * 4, rel=1e-15)


def test_entropic_dual_past_exp_underflow():
    space = FiniteProbSpace([0.3, 0.7], [[1, 2]])
    m = cond_entropic(space, 1.0)
    x = RandomVariable([0.0, 800.0])
    result = dual_representation(m, x)
    assert result.converged == [True] and result.warnings == []
    assert result.value.values == pytest.approx(m.evaluate(x).values, rel=1e-15)
    assert result.maximizer.values == pytest.approx([-1 / 0.3, 0.0], rel=1e-15)


def test_a_replaced_penalty_takes_the_user_route(s4):
    # a copy with another penalty has no oracle and no native cut: its
    # padded restriction holds the new penalty, which grades every candidate
    x = RandomVariable([1, 3, 2, 6])
    ent = cond_entropic(s4, 0.2)
    pen = ent.closed_form_penalty
    moved = dataclasses.replace(ent, closed_form_penalty=lambda ys: pen(ys) + 1.0)
    assert moved._dual_oracle is None and moved._kernel is None
    assert moved.restrict(1).closed_form_penalty(-np.ones((1, 2))).tolist() == [[1.0]]
    rho = ent.evaluate(x).values
    result = dual_representation(moved, x)
    assert np.all(np.abs(result.value.values - (rho - 1.0)) <= duality.ASCENT_GAP_TOL)
    assert result.converged == [False, False] and len(result.warnings) == 2
    assert not verify_representation(moved, [x]).attained_all


def test_the_fallback_ascent_starts_from_the_difference_density(space8):
    # a penalty moved up by 1 leaves every candidate at least 1 short, so no
    # block converges; each keeps its best candidate, the difference
    # density, whose value is rho(x) - 1
    ent = cond_entropic(space8, 2.0)
    pen = ent.closed_form_penalty
    moved = CondRiskMeasure(space8, ent.evaluate_fn, "moved", closed_form_penalty=lambda ys: pen(ys) + 1.0)
    x = RandomVariable(np.random.default_rng(5).normal(0.0, 2.0, 8))
    result = dual_representation(moved, x)
    assert result.converged == [False, False, False]
    assert np.all(np.abs(result.value.values - (ent.evaluate(x).values - 1.0)) <= duality.ASCENT_GAP_TOL)


def test_a_block_short_at_payoff_scale_1e8_is_reported_not_climbed(space8):
    # the exact dual of block 1 grades 1.1e-8 short, a rounding of payoffs
    # near 1e8; a built-in never asks the user route's candidates
    m = cond_avar(space8, 0.4)
    x = RandomVariable(np.random.default_rng(1).normal(0.0, 1e8, 8))
    with mock.patch.object(duality, "_candidate_duals", side_effect=AssertionError("candidates")):
        rep = verify_representation(m, [x], tol=1e-6)
        result = dual_representation(m, x)
    assert rep.attained_all
    assert result.converged == [False, True, True]
    assert len(result.warnings) == 1 and result.warnings[0].startswith("block 1: exact dual short")
    graded = duality._graded(m, x.values, result.maximizer)
    assert np.array_equal(result.value.values, graded)


# -- stable topology ---------------------------------------------------------------


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
    # past its cap the walk takes a covering array of 5^2 * 4 = 100 choices
    # and says so, in the words of the walk through indicator_mix
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
        if capped:
            assert len(rep.notes) == 1 and "covering array of 100 of the 5^12 choices" in rep.notes[0]
            assert "every pair of blocks" in rep.notes[0] and "three or more blocks" in rep.notes[0]
        else:
            assert rep.notes == []
    # s4's whole walk is 5^2 = 25 choices: a cap of 25 walks them all with no
    # note; a cap one below takes the covering array, here the same 25
    # choices, and says so
    for cap, noted in ((25, False), (24, True)):
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


def test_one_block_walks_nothing_past_the_screening():
    # on one block every choice is a member, which the screening judged: f.rows
    # sees the probe once, then only the ray steps.  Rays start at (1, 0)
    # along +-(1, 0) and +-(0, 1) with level 1.5: step t = 1 takes all 4 and
    # (2, 0) leaves, t = 2 takes 3 and (1, 2), (1, -2) leave, t = 4 takes
    # the last, (-3, 0)
    space = FiniteProbSpace([0.5, 0.5], [[1, 2]])
    seen = []

    def rows(vs):
        seen.append(vs.tolist())
        return np.abs(vs).max(axis=1, keepdims=True)

    f = _with_rows(lambda v: ConditionalValue(rows(v.values[None])[0]), rows)
    probes = [RandomVariable([1.0, 0.0]), RandomVariable([0.0, 1.0])]
    rep = stable_sublevel_check(space, f, ConditionalValue([1.5]), probes)
    assert rep.members == 2 and rep.mixing_closure_passed
    assert rep.bounded_per_block == [True]
    assert [len(batch) for batch in seen] == [2, 4, 3, 1]
    assert seen[0] == [[1.0, 0.0], [0.0, 1.0]] and seen[-1] == [[-3.0, 0.0]]


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
    # every penalty is +inf off the simplex, so every candidate of a user
    # measure is a density, and the grid conjugate is asked about nothing
    # else; the difference route is off, so every block takes a fallback
    # candidate
    space = FiniteProbSpace([0.1, 0.2, 0.3, 0.15, 0.25], [[2, 4, 5], [1, 3]])

    def ev(x):
        return ConditionalValue(reference_risk(space, "entropic", [1.0, 1.0], x.values))

    user = CondRiskMeasure(space, ev, "user_entropic")
    gaps = []
    grid = duality._block_conjugate_grid

    def spy(measure, ys):
        gaps.extend(np.abs(ys @ measure.space.cond_probs(1) + 1.0))
        return grid(measure, ys)

    x = RandomVariable([0.5, -1.0, 2.0, 0.0, 1.0])
    with mock.patch.object(duality, "_block_conjugate_grid", spy), _no_difference_duals():
        result = dual_representation(user, x, DualSearchConfig(max_iters=3))
    assert gaps and max(gaps) <= 1e-9
    assert np.all(result.value.values <= user.evaluate(x).values + 1e-9)


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
        assert _message(lambda: f.rows(bad)) == _message(lambda: RandomVariable(bad[3]))
    f = penalty_map(cond_worst_case(s4))
    wrong = -np.ones(5)
    assert _message(lambda: f.rows(wrong[None])) == _message(lambda: f(RandomVariable(wrong)))
    # a NaN penalty is refused as a ConditionalValue refuses it
    nan = dataclasses.replace(
        cond_worst_case(s4), closed_form_penalty=lambda ys: np.full((len(ys), 2), math.nan)
    )
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


def test_replaced_closed_form_moves_f_and_its_row_form_alike(s4):
    m = dataclasses.replace(
        cond_worst_case(s4), closed_form_penalty=lambda ys: np.full((len(ys), 2), 7.0)
    )
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


def test_a_ray_is_judged_on_the_blocks_it_moves(s4):
    # the second probe is 0 on block 2, so its rays say nothing there; the
    # barycenter's rays leave the set on both blocks
    probes = [RandomVariable(-np.ones(4)), RandomVariable([-0.5, -1.5, 0.0, 0.0])]
    pen, level = penalty_map(cond_worst_case(s4)), ConditionalValue([1, 1])
    assert stable_sublevel_check(s4, pen, level, probes).bounded_per_block == [True, True]
    assert duality._bounded_blocks(s4, pen, level, probes).tolist() == [True, True]


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
    if m > 1 and draw(st.booleans()):  # the barycenter cut to 0 on one block
        probes.append(RandomVariable(np.where(space.block_of == draw(st.integers(0, m - 1)), 0.0, -1.0)))
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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(sublevel_cases())
def test_bounded_blocks_are_each_blocks_own_sublevel_check(case):
    # the per-block route of the transfer suite's item 7: each block's
    # verdict is what stable_sublevel_check gives that block alone, on the
    # probe cut to it, with zero directions and blocks without a member
    space, measure, probes, eta, _ = case
    got = duality._bounded_blocks(space, penalty_map(measure), eta, probes)
    for j in range(1, space.n_blocks + 1):
        block = measure.restrict(j)
        cut = [RandomVariable(space.restrict(p, j)) for p in probes]
        rep = stable_sublevel_check(block.space, penalty_map(block), ConditionalValue(eta.values[j - 1 : j]), cut)
        assert bool(got[j - 1]) == (rep.mixing_closure_passed and rep.inf_compact_per_block[0]), j


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
        # batches of about CHUNK_ELEMENTS >> 5 payoff entries, 227 rows of 9
        # atoms, then 29 rows, and stops with the batch that holds the first
        # violation
        assert seen[0] == 4 and seen[-1] == 8
        head = (riskcore.CHUNK_ELEMENTS >> 5) // space.n_atoms
        assert seen[1:-1] == ([head] if first < head else [head, 256 - head])


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
        assert _message(lambda: f.rows(bad)) == _message(lambda: RandomVariable(bad[2]))
        wrong = -np.ones(n + 1)
        assert _message(lambda: f.rows(wrong[None])) == _message(lambda: f(RandomVariable(wrong)))


def _drawn_space(draw):
    m = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
    blocks = [b.tolist() for b in np.split(np.array(order), np.cumsum(sizes)[:-1])]
    return FiniteProbSpace(weights / weights.sum(), blocks)


@st.composite
def user_dual_cases(draw):
    """A user measure and a payoff: a ``replace`` copy of a built-in, with or
    without its closed form, at payoff scale 1, 1e3 or 1e5, or a max of
    linear pieces whose first one, two or three pieces tie for the maximum
    on every block, at scale 1.  Payoffs on a grid of halves tie at the
    minimum and at AVaR's boundary often.  At scale 1e5 rounding leaves
    some copies' difference duals short, and the fallback candidates take
    them."""
    space = _drawn_space(draw)
    n = space.n_atoms
    point = st.one_of(st.integers(-8, 8).map(lambda k: k / 2), st.floats(-4.0, 4.0))
    x = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(sorted(BUILTIN_FACTORIES) + ["max_of_linear"]))
    if kind != "max_of_linear":
        builtin = BUILTIN_FACTORIES[kind](
            space, gamma=draw(st.sampled_from([0.5, 2.0])), **{"lambda": draw(st.sampled_from([0.4, 1.0]))}
        )
        keep = draw(st.booleans())
        copy = dataclasses.replace(builtin, closed_form_penalty=builtin.closed_form_penalty if keep else None)
        return copy, x * draw(st.sampled_from([1.0, 1e3, 1e5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = draw(st.integers(2, 4))
    d = np.stack([-admissible_dual(space, rng.uniform(0.1, 2.0, n)).values for _ in range(pieces)])
    # alphas put each piece's value at x at t: 0 for the tied pieces, below
    # for the rest
    t = -rng.uniform(0.1, 1.0, (pieces, space.n_blocks))
    t[: draw(st.integers(1, 3))] = 0.0
    return max_of_linear(space, d, space.block_mean(-x * d) - t), x


@settings(max_examples=80, derandomize=True, deadline=None)
@given(user_dual_cases())
def test_user_measures_converge_on_a_candidate_dual(case):
    measure, x = case
    rho = measure.evaluate(RandomVariable(x)).values
    result = dual_representation(measure, RandomVariable(x))
    assert all(result.converged) and result.warnings == []
    assert np.all(result.value.values <= rho + duality.ASCENT_GAP_TOL)
    assert result.maximizer.is_admissible(measure.space)


def _hookless(measure):
    return dataclasses.replace(measure, closed_form_penalty=None)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_penalty_of_is_the_closed_form_or_fenchel_and_rows_are_one_row_each(data):
    # every built-in and a copy without its closed form: penalty_of is the
    # closed form where there is one and fenchel where there is none, and
    # penalty_map's row form is its one-row form stacked, bit for bit
    space = _drawn_space(data.draw)
    n = space.n_atoms
    kind = data.draw(st.sampled_from(sorted(BUILTIN_FACTORIES)))
    builtin = BUILTIN_FACTORIES[kind](space, gamma=1.5, **{"lambda": 0.5})
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vs = np.vstack([admissible_dual(space, rng.uniform(0.2, 1.8, n)).values, -np.ones(n), rng.normal(-1.0, 1.0, n)])
    for measure in (builtin, _hookless(builtin)):
        f = penalty_map(measure)
        for v in vs:
            y = DualVariable(np.minimum(v, 0.0))
            if measure.closed_form_penalty is None:
                expect = fenchel(measure, y).values
            else:
                expect = measure.closed_form_penalty(y.values[None])[0]
            assert np.array_equal(penalty_of(measure, y).values, expect)
        assert np.array_equal(f.rows(vs), np.stack([f(RandomVariable(v)).values for v in vs]))


def test_a_hookless_user_grades_only_the_blocks_still_short():
    # block 1 is constant at scale 1e5: its differences miss the barycenter,
    # which the fourth candidate is.  The other 19 blocks take the first
    # candidate and are not graded again: 20 + 3 grid conjugates, not 20 x 4
    w = np.tile([0.15, 0.25, 0.1], 20)
    space = FiniteProbSpace(w / w.sum(), [[3 * b + 1, 3 * b + 2, 3 * b + 3] for b in range(20)])
    copy = _hookless(cond_entropic(space, 2.0))
    x = np.random.default_rng(0).normal(0.0, 1e5, 60)
    x[:3] = 1e5
    with mock.patch.object(duality, "_block_conjugate_grid", wraps=duality._block_conjugate_grid) as spy:
        result = dual_representation(copy, RandomVariable(x))
    assert all(result.converged) and result.warnings == []
    assert spy.call_count <= 23
    assert -result.maximizer.values[:3] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_a_hookless_row_form_cuts_each_block_size_once(monkeypatch, space8):
    # space8 holds two blocks of 3 atoms and one of 2: one cut per size
    copy = _hookless(cond_entropic(space8, 1.5))
    vs = np.vstack([-np.ones(8), admissible_dual(space8, np.arange(1.0, 9.0)).values, -np.ones(8)])
    calls = spy_calls(monkeypatch, riskcore, "_stacked")
    rows = penalty_map(copy).rows(vs)
    assert [blocks.tolist() for _, blocks in calls] == [[2], [0, 1]]
    assert rows.shape == (3, space8.n_blocks) and np.array_equal(rows[0], rows[2])


@pytest.mark.parametrize("marked", [[True, True, True], [True, False, True], [False, False, True], [False, False, False]])
def test_penalty_rows_cut_each_marked_block_size_once(monkeypatch, space8, marked):
    # one stack per size among the marked blocks, and +inf on the others
    copy = _hookless(cond_entropic(space8, 1.5))
    ys = np.stack([admissible_dual(space8, d).values for d in (np.ones(8), np.arange(1.0, 9.0))])
    calls = spy_calls(monkeypatch, riskcore, "_stacked")
    pen = duality._penalty_rows(copy, ys, blocks=np.array(marked))
    sizes = np.diff(space8._bounds)
    assert len(calls) == len(set(sizes[marked].tolist()))
    assert sorted(j for _, blocks in calls for j in blocks.tolist()) == np.flatnonzero(marked).tolist()
    assert np.isinf(pen[:, ~np.array(marked)]).all() and np.isfinite(pen[:, marked]).all()
    assert np.array_equal(pen[:, marked], duality._penalty_rows(copy, ys)[:, marked])


def test_coherent_copies_at_payoff_scale_1e5_converge_on_exact_candidates():
    # at payoff scale 1e5 rounding leaves a difference density off the cap
    # or off the barycenter by more than ADMISSIBLE_TOL, where a coherent
    # penalty is +inf.  Of these 400 blocks, copies of AVaR(0.4) take the
    # fill to their cap on 37, and copies of the negated mean take the
    # barycenter on 251
    space = FiniteProbSpace(np.full(10, 0.1), [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
    xs = np.random.default_rng(0).normal(0.0, 1e5, (200, 10))
    for builtin in (cond_avar(space, 0.4), neg_cond_expectation(space)):
        copy = dataclasses.replace(builtin)
        for x in xs:
            rho = copy.evaluate(RandomVariable(x)).values
            result = dual_representation(copy, RandomVariable(x))
            assert all(result.converged) and result.warnings == [], builtin.label
            assert np.all(result.value.values <= rho + duality.ASCENT_GAP_TOL)


def test_a_smooth_copy_with_tied_minima_at_scale_1e5_takes_the_finer_differences():
    # the Gibbs density of block 1 is 1.25 on its two tied minima; steps of
    # 2^(e - 20) stretch the tilt too far for a central difference to find
    # it, the generic points near x untie the minima, and neither the
    # barycenter nor the vertex is it.  Steps of 2^(e - 36) find it
    space = FiniteProbSpace([0.15, 0.25, 0.1, 0.3, 0.2], [[1, 2, 3], [4, 5]])
    copy = dataclasses.replace(cond_entropic(space, 2.0))
    x = RandomVariable(np.array([-4.0, -4.0, 1.0, 0.5, 2.5]) * 1e5)
    rho = copy.evaluate(x).values
    result = dual_representation(copy, x)
    assert result.converged == [True, True] and result.warnings == []
    assert np.all(np.abs(result.value.values - rho) <= duality.ASCENT_GAP_TOL)
    assert -result.maximizer.values[:3] == pytest.approx([1.25, 1.25, 0.0], abs=1e-4)


def test_an_infeasible_density_cap_is_refused_by_name(s4):
    # a cap below 1 leaves no density on its block; the capped fill, asked
    # once the moved penalty leaves every earlier candidate short, refuses
    # the first such block
    ent = cond_entropic(s4, 0.2)
    pen = ent.closed_form_penalty
    caps = [2.0, 0.5]
    moved = dataclasses.replace(ent, closed_form_penalty=lambda ys: pen(ys) + 1.0, dual_density_cap=caps)
    with pytest.raises(DualityError, match=r"^block 2: density cap 0\.5 is infeasible, below 1$"):
        dual_representation(moved, RandomVariable([1, 3, 2, 6]))
    # the cap is data: a read-only copy of one finite value per block
    caps[1] = 3.0
    assert moved.dual_density_cap.tolist() == [2.0, 0.5] and not moved.dual_density_cap.flags.writeable
    assert dataclasses.replace(ent, dual_density_cap=2.0).dual_density_cap.tolist() == [2.0, 2.0]
    with pytest.raises(ValueError, match="dual_density_cap must be finite"):
        dataclasses.replace(ent, dual_density_cap=[2.0, math.inf])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_difference_duals_of_homogeneous_copies_scale_exactly(data):
    # the steps are powers of 2 of each block's scale, so for a positively
    # homogeneous measure x and 2^k x give the same density to the bit, on
    # blocks where max |x| is at least 1
    space = _drawn_space(data.draw)
    n = space.n_atoms
    x = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    big = st.sampled_from([-3.5, -1.0, 1.0, 2.25])
    x[space.order[space.starts]] = data.draw(
        st.lists(big, min_size=space.n_blocks, max_size=space.n_blocks)
    )
    kind = data.draw(st.sampled_from(["neg_expectation", "worst_case", "avar"]))
    copy = dataclasses.replace(BUILTIN_FACTORIES[kind](space, **{"lambda": 0.4}))
    k = data.draw(st.integers(1, 30))
    y = duality._difference_duals(copy, x)
    assert y is not None
    assert np.array_equal(duality._difference_duals(copy, np.ldexp(x, k)).values, y.values)
