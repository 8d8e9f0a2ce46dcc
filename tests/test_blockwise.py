"""The batched blockwise layer against a plain per-block reference.

Spaces are uneven, with shuffled atoms and single-atom blocks; payoffs sit on
a coarse grid, so tied losses are common.
"""

import dataclasses
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    reference_admissible_dual,
    reference_block_verdicts,
    reference_check_axiom,
    reference_cond_ops,
    reference_law_permutation,
    reference_penalty,
    reference_risk,
    reference_trial_streams,
    spy_calls,
)
from condrisk import (
    CondRiskMeasure,
    ConditionalValue,
    FiniteProbSpace,
    RandomVariable,
    admissible_dual,
    check_axiom,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    dual_representation,
    neg_cond_expectation,
    penalty_of,
    transfer_verify,
)
from condrisk import duality, riskcore
from condrisk.riskcore import AXIOMS, BUILTIN_FACTORIES

TOL = 1e-9


@st.composite
def spaces(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n = sum(sizes)
    atoms = draw(st.permutations(range(1, n + 1)))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
    cuts = np.cumsum(sizes)[:-1]
    blocks = [b.tolist() for b in np.split(np.array(atoms), cuts)]
    return FiniteProbSpace(weights / weights.sum(), blocks)


@st.composite
def cases(draw):
    space = draw(spaces())
    n, m = space.n_atoms, space.n_blocks
    rows = draw(st.sampled_from([1, 3]))
    grid = st.integers(-4, 4)
    xs = np.array(draw(st.lists(grid, min_size=rows * n, max_size=rows * n)), float)
    gamma = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=m, max_size=m)))
    lam = np.array(
        draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]), min_size=m, max_size=m))
    )
    dens = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), float)
    dens[[b[0] - 1 for b in space.blocks]] += 1.0  # positive mass on every block
    eta = np.array(draw(st.lists(grid, min_size=m, max_size=m)), float) / 2.0
    stretch = draw(st.integers(0, m))  # block whose dual is pushed off the density set
    return space, xs.reshape(rows, n) / 2.0, gamma, lam, dens, eta, stretch


def _close(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    assert np.array_equal(np.isinf(a), np.isinf(b)), (a, b)
    fin = np.isfinite(b)
    assert np.all(np.abs(a[fin] - b[fin]) <= TOL * np.maximum(1.0, np.abs(b[fin]))), (a, b)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cases())
def test_batched_forms_match_per_block_reference(case):
    space, xs, gamma, lam, dens, eta, stretch = case
    measures = {
        "neg_expectation": (neg_cond_expectation(space), None),
        "worst_case": (cond_worst_case(space), None),
        "entropic": (cond_entropic(space, gamma), gamma),
        "avar": (cond_avar(space, lam), lam),
    }

    y = reference_admissible_dual(space, dens)
    duals = [y, -np.ones(space.n_atoms)]
    if stretch < space.n_blocks:
        off = y.copy()
        off[np.array(space.blocks[stretch]) - 1] *= 1.5
        duals.append(off)
    for kind, (measure, param) in measures.items():
        ref = np.stack([reference_risk(space, kind, param, row) for row in xs])
        _close(measure.evaluate_batch(xs), ref)
        _close(measure.evaluate(RandomVariable(xs[0])).values, ref[0])
        for dual in duals:
            _close(
                measure.closed_form_penalty(dual[None])[0],
                reference_penalty(space, kind, param, dual),
            )

    for row in xs:
        x = RandomVariable(row)
        mean, top, bottom, cdf, lifted = reference_cond_ops(space, row, eta)
        _close(space.cond_expect(x).values, mean)
        _close(space.esssup_cond(x).values, top)
        _close(space.essinf_cond(x).values, bottom)
        _close(space.cond_cdf(x, ConditionalValue(eta)).values, cdf)
        _close(space.lift(ConditionalValue(eta)).values, lifted)
    _close(admissible_dual(space, dens).values, y)


def _relabelled(space, perm):
    """``space`` with atom i renamed perm[i - 1]: one more layout of the same
    atom count, so one value can be read through both."""
    return FiniteProbSpace(space.probs[np.argsort(perm)], [[perm[i - 1] for i in b] for b in space.blocks])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cases(), st.data())
def test_one_gather_per_value_and_layout(case, data):
    """A value read through a space keeps its gather into that space's block
    order, read-only: every single-value route then answers as the rows
    route, which gathers afresh, bit for bit, and a value read through two
    layouts in turn gets each layout's answer."""
    space, xs, gamma, lam, dens, eta, _ = case
    perm = data.draw(st.permutations(range(1, space.n_atoms + 1)))
    other = _relabelled(space, perm)
    x, y = RandomVariable(xs[0]), admissible_dual(space, dens)
    for sp in (space, other, space):
        measures = [neg_cond_expectation(sp), cond_worst_case(sp), cond_entropic(sp, gamma), cond_avar(sp, lam)]
        for m in measures:
            assert np.array_equal(m.evaluate(x).values, m.evaluate_batch(x.values[None])[0]), m.label
            assert np.array_equal(penalty_of(m, y).values, m.closed_form_penalty(y.values[None])[0]), m.label
        mean, top, bottom, cdf, _ = reference_cond_ops(sp, x.values, eta)
        _close(sp.cond_expect(x).values, mean)
        assert np.array_equal(sp.esssup_cond(x).values, top)
        assert np.array_equal(sp.essinf_cond(x).values, bottom)
        _close(sp.cond_cdf(x, ConditionalValue(eta)).values, cdf)
        assert y.is_admissible(sp) == bool(np.all(np.abs(reference_cond_ops(sp, y.values, eta)[0] + 1.0) <= 1e-10))
        for v in (x, y):
            kept = sp._in_order(v)
            assert kept is sp._in_order(v) and np.array_equal(kept, v.values[sp.order])
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0


def test_a_value_is_gathered_once_through_every_single_value_route(monkeypatch):
    # the single-value section of an eval_large job, on 2e4 shuffled atoms:
    # each call of the one gather is recorded with what it returned, and a
    # gather of some entries is a result not seen before for them
    rng = np.random.default_rng(83)
    space = _shuffled_space(rng, 1 + rng.multinomial(19_800, np.full(200, 1 / 200)))
    measures = _builtins_on(space, rng)
    x = RandomVariable(rng.normal(0.0, 2.0, space.n_atoms))
    eta = ConditionalValue(rng.normal(0.0, 1.0, space.n_blocks))
    dens = rng.uniform(0.2, 1.8, space.n_atoms)
    calls, real = [], FiniteProbSpace._in_order

    def spy(sp, v, *args):
        out = real(sp, v, *args)
        calls.append((v, out))
        return out

    def gathers(*entries):
        """How many distinct arrays the calls on a value or rows that hold ``entries`` returned."""
        outs = {id(out) for v, out in calls if any(np.shares_memory(getattr(v, "values", v), e) for e in entries)}
        assert outs
        return len(outs)

    monkeypatch.setattr(FiniteProbSpace, "_in_order", spy)
    risks = [m.evaluate(x).values for m in measures]
    ops = [space.cond_expect(x), space.esssup_cond(x), space.essinf_cond(x), space.cond_cdf(x, eta)]
    assert gathers(x.values) == 1
    # admissible_dual gathers the densities once, and that gather is the
    # dual's copy, which the four penalties read
    y = admissible_dual(space, dens)
    pens = [penalty_of(m, y).values for m in measures]
    assert gathers(dens, y.values) == 1
    monkeypatch.undo()
    # the same figures as the rows route, which gathers afresh
    for m, risk, pen in zip(measures, risks, pens):
        assert np.array_equal(risk, m.evaluate_batch(x.values[None])[0]), m.label
        assert np.array_equal(pen, m.closed_form_penalty(y.values[None])[0]), m.label
    mean, top, bottom, cdf, _ = reference_cond_ops(space, x.values, eta.values)
    _close(ops[0].values, mean)
    assert np.array_equal(ops[1].values, top) and np.array_equal(ops[2].values, bottom)
    _close(ops[3].values, cdf)


def _user_entropic(space, gamma):
    """A user measure with no batch function and no dual hooks."""

    def ev(x):
        return ConditionalValue(reference_risk(space, "entropic", gamma, x.values))

    return CondRiskMeasure(space, ev, "user_entropic")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cases())
def test_restrict_matches_its_parent(case):
    space, xs, gamma, lam, dens, eta, stretch = case
    n = space.n_atoms
    y = reference_admissible_dual(space, dens)
    off = y.copy()
    if stretch < space.n_blocks:
        off[np.array(space.blocks[stretch]) - 1] *= 1.5
    # a one-block space that lists its atoms in order is its own block space
    own = space.n_blocks == 1 and space.blocks[0] == tuple(range(1, n + 1))
    measures = (
        neg_cond_expectation(space),
        cond_worst_case(space),
        cond_entropic(space, gamma),
        cond_avar(space, lam),
        _user_entropic(space, gamma),
    )
    for m in measures:
        with pytest.raises(ValueError):
            m.restrict(space.n_blocks + 1)
        for j in range(1, space.n_blocks + 1):
            bm = m.restrict(j)
            assert (bm is m) == own
            assert bm.restrict(1) is bm
            if own:
                continue
            idx = space.block_index_array(j)
            assert bm.space is space.block_space(j)
            assert bm.label == f"{m.label}@block{j}"
            _close(bm.evaluate_batch(xs[:, idx]), m.evaluate_batch(xs)[:, j - 1 : j])
            _close(
                bm.evaluate(RandomVariable(xs[0, idx])).values,
                m.evaluate(RandomVariable(xs[0])).values[j - 1 : j],
            )
            if m.closed_form_penalty is None:
                assert bm.closed_form_penalty is None
            else:
                for dual in (y, -np.ones(n), off):
                    _close(
                        bm.closed_form_penalty(dual[None, idx])[0],
                        m.closed_form_penalty(dual[None])[0, j - 1 : j],
                    )
                if j == stretch + 1:
                    assert np.isinf(bm.closed_form_penalty(off[None, idx])[0, 0])
            if m.dual_density_cap is None:
                assert bm.dual_density_cap is None
            else:
                assert np.array_equal(bm.dual_density_cap, m.dual_density_cap[j - 1 : j])


def _uneven_space(rng, n_blocks, max_size):
    """Blocks of 1..max_size shuffled atoms under uneven probabilities."""
    return _shuffled_space(rng, rng.integers(1, max_size + 1, n_blocks))


def _shuffled_space(rng, sizes):
    """Blocks of the given sizes over shuffled atoms, uneven probabilities."""
    n = int(np.sum(sizes))
    blocks = [b.tolist() for b in np.split(rng.permutation(n) + 1, np.cumsum(sizes)[:-1])]
    weights = rng.uniform(0.5, 2.0, n)
    return FiniteProbSpace(weights / weights.sum(), blocks)


def test_builtins_restrict_natively():
    rng = np.random.default_rng(61)
    space = _uneven_space(rng, 4, 4)
    params = {"gamma": np.array([0.5, 1.0, 2.5, 4.0]), "lambda": np.array([0.1, 0.5, 0.7, 1.0])}
    xs = rng.integers(-4, 5, (3, space.n_atoms)) / 2.0
    y = admissible_dual(space, rng.uniform(0.2, 1.8, space.n_atoms)).values
    cuts = [space.block_index_array(j) for j in range(1, space.n_blocks + 1)]

    def refuse(*args):
        raise AssertionError("the parent measure was evaluated")

    for kind, factory in BUILTIN_FACTORIES.items():
        parent = factory(space, **params)
        before = [
            (parent.restrict(j).evaluate_batch(xs[:, idx]),
             parent.restrict(j).closed_form_penalty(y[None, idx])[0])
            for j, idx in enumerate(cuts, start=1)
        ]
        # spies on the built-in itself: a replaced copy would have no native cut
        for hook in ("evaluate_fn", "evaluate_batch_fn", "closed_form_penalty"):
            object.__setattr__(parent, hook, refuse)
        for j, idx in enumerate(cuts, start=1):
            block = parent.restrict(j)
            assert np.array_equal(block.evaluate_batch(xs[:, idx]), before[j - 1][0]), kind
            assert np.array_equal(block.closed_form_penalty(y[None, idx])[0], before[j - 1][1])
            name = riskcore._KERNELS[kind][3]
            assert block._kernel[0] == parent._kernel[0] == kind
            if name is None:
                assert block._kernel[1] is None, kind
            else:
                assert np.array_equal(block._kernel[1], params[name][j - 1 : j]), (kind, name)

    # a user measure has no other route than padding to the parent's width
    user = _user_entropic(space, params["gamma"])
    object.__setattr__(user, "evaluate_fn", refuse)
    with pytest.raises(AssertionError, match="parent measure"):
        user.restrict(1).evaluate_batch(xs[:, cuts[0]])


def test_avar_restrictions_past_1023_blocks():
    # the parent's fixed-point scale drops to 2^51 past 1,023 blocks, while a
    # block's own AVaR keeps 2^52: the two roundings must still agree
    rng = np.random.default_rng(62)
    space = _uneven_space(rng, 1100, 5)
    lam = rng.choice([0.1, 0.25, 0.5, 0.7, 1.0], space.n_blocks)
    measure = cond_avar(space, lam)
    xs = rng.integers(-4, 5, (3, space.n_atoms)) / 2.0  # tied payoffs
    whole = measure.evaluate_batch(xs)
    for j in range(1, space.n_blocks + 1):
        block = measure.restrict(j).evaluate_batch(xs[:, space.block_index_array(j)])
        _close(block, whole[:, j - 1 : j])


# -- the dense classical kernels, stacked by block size --------------------------------


def _size_groups(space):
    """The blocks of each size, 0-based, smallest size first."""
    sizes = np.array([len(b) for b in space.blocks])
    return [np.flatnonzero(sizes == k) for k in np.unique(sizes)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cases())
def test_dense_kernels_match_the_per_block_reference(case):
    # the blocks of each size stacked on one space: the kernel's risk and
    # penalty against the per-block reference, and the oracle's dual attains
    # the kernel's own risk
    space, xs, gamma, lam, dens, _, stretch = case
    y = reference_admissible_dual(space, dens)
    off = y.copy()
    if stretch < space.n_blocks:
        off[np.array(space.blocks[stretch]) - 1] *= 1.5
    for kind, factory in BUILTIN_FACTORIES.items():
        param = {"entropic": gamma, "avar": lam}.get(kind)
        measure = factory(space, gamma=gamma, **{"lambda": lam})
        risk = np.stack([reference_risk(space, kind, param, row) for row in xs])
        for blocks in _size_groups(space):
            stack, atoms = riskcore._stacked(measure, blocks)
            _close(stack.evaluate_batch(xs[:, atoms]), risk[:, blocks])
            for dual in (y, -np.ones(space.n_atoms), off):
                _close(
                    stack.closed_form_penalty(dual[None, atoms])[0],
                    reference_penalty(space, kind, param, dual)[blocks],
                )
            for row in xs[:, atoms]:
                dual = admissible_dual(stack.space, stack._dual_oracle(row[None])[0]).values
                value = stack.space.block_mean(row * dual) - stack.closed_form_penalty(dual[None])[0]
                rho = stack.evaluate_batch(row[None])[0]
                assert np.all(np.abs(value - rho) <= 1e-12 * np.maximum(1.0, np.abs(rho))), kind


def _tilted(kernels):
    """Each kernel's risk plus 0.1 max(x_first - x_last, 0), and plus 1 where
    the block's first payoff is an integer; its penalty 0 in place of +inf on
    the blocks whose first atom outweighs their last.  The dual oracle then
    falls short where the risk's tilt is positive, law invariance fails
    where the first and last atoms share a mass, Fatou and Lebesgue fail
    where the first payoff sits on an integer, and the sublevel set is
    unbounded where the penalty is tilted.  The risk's tilt is never
    negative and the penalty's is 0 on densities, so weak duality holds."""

    def tilted(risk, penalty):
        def tilted_risk(x, q, p):
            first = x[..., 0]
            return risk(x, q, p) + 0.1 * np.maximum(first - x[..., -1], 0.0) + (first == np.floor(first))

        def tilted_penalty(y, q, p):
            pen = penalty(y, q, p)
            return np.where((q[:, 0] > q[:, -1]) & np.isinf(pen), 0.0, pen)

        return tilted_risk, tilted_penalty

    return {kind: (*tilted(risk, pen), *rest) for kind, (risk, pen, *rest) in kernels.items()}


def _tilted_copy(measure):
    """A user copy of a built-in with the tilt of ``_tilted`` on each block,
    read from the block's first and last atoms in block order: its risk
    through the built-in's whole-space batch, which the ``_KERNELS`` patch
    does not reach, and its penalty through the built-in's closed form."""
    space = measure.space
    first = space.order[space.starts]
    last = space.order[np.append(space.starts[1:], space.n_atoms) - 1]
    heavier = space.cond[first] > space.cond[last]

    def batch(xs):
        a = xs[..., first]
        return measure.evaluate_batch(xs) + 0.1 * np.maximum(a - xs[..., last], 0.0) + (a == np.floor(a))

    def penalty(ys):
        pen = measure.closed_form_penalty(ys)
        return np.where(heavier & np.isinf(pen), 0.0, pen)

    return dataclasses.replace(
        measure,
        evaluate_fn=lambda x: ConditionalValue(batch(x.values[None])[0]),
        evaluate_batch_fn=batch,
        closed_form_penalty=penalty,
    )


@settings(max_examples=50, derandomize=True, deadline=None)
@given(cases(), st.booleans(), st.integers(0, 3), st.sets(st.sampled_from([1, 3, 4, 5, 7]), min_size=1))
def test_stacked_verdicts_match_the_per_block_loop(case, tilt, seed, items):
    # the classical side of transfer_verify, one stacked run per block size,
    # against the public checks run on each block's restriction, for each
    # built-in and a user copy of it; a tilted kernel, and a tilted copy,
    # make the verdicts differ from block to block (a space of one block may
    # be its own restriction, which the kernel does not reach)
    space, xs, gamma, lam, *_ = case
    payoffs = [RandomVariable(row) for row in xs]
    items = sorted(items)
    kernels = _tilted(riskcore._KERNELS) if tilt and space.n_blocks > 1 else riskcore._KERNELS
    with mock.patch.dict(riskcore._KERNELS, kernels):
        for factory in BUILTIN_FACTORIES.values():
            builtin = factory(space, gamma=gamma, **{"lambda": lam})
            copy = _tilted_copy(builtin) if tilt else dataclasses.replace(builtin)
            for measure in (builtin, copy):
                report = transfer_verify(measure, items, payoffs, seed=seed)
                want = reference_block_verdicts(measure, items, payoffs, seed)
                assert {i: report.items[i].per_atom for i in items} == want, (measure.label, measure is copy)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cases(), st.sampled_from(AXIOMS), st.sampled_from([1, 2, 3, 6, 500]), st.integers(0, 3))
def test_failing_blocks_of_a_stack_are_each_blocks_own_check(case, axiom, trials, seed):
    # a few trials of a tilted kernel, so which blocks fail depends on the
    # draws: the stack repeats one block's trials on every block, and each
    # block fails exactly when check_axiom on its restriction does
    space, _, gamma, lam, *_ = case
    if space.n_blocks == 1:
        return  # a space of one block may be its own restriction
    with mock.patch.dict(riskcore._KERNELS, _tilted(riskcore._KERNELS)):
        for factory in BUILTIN_FACTORIES.values():
            measure = factory(space, gamma=gamma, **{"lambda": lam})
            for blocks in _size_groups(space):
                stack, _ = riskcore._stacked(measure, blocks)
                got = riskcore._failing_blocks(stack, axiom, trials, seed, len(blocks))
                want = [not check_axiom(measure.restrict(j + 1), axiom, trials, seed).passed for j in blocks]
                assert got.tolist() == want, (measure.label, blocks)


def test_failing_blocks_runs_on_until_every_block_has_failed(s4):
    # block 1 fails monotonicity on every trial; block 2 jumps by 10 where
    # x at atom 3 passes c, so it fails on the trials whose step from x to
    # x + up crosses c, and c is a point no trial of the first row batch
    # crosses: a check that stopped at the first failing block misses block 2
    trials, seed = 2000, 0
    first = next(riskcore._row_batches(s4.n_atoms, trials))[1]
    x, up = riskcore._draw_trials("monotonicity", s4, riskcore._trial_streams("monotonicity", seed), trials)
    lo, hi = x[:, 2], x[:, 2] + up[:, 2]
    c = next(c for c in np.nextafter(hi[first:], -np.inf) if not ((lo[:first] <= c) & (c < hi[:first])).any())

    def batch(xs):
        return np.stack([xs[:, :2].mean(axis=1), -xs[:, 2:].mean(axis=1) + 10.0 * (xs[:, 2] > c)], axis=1)

    measure = CondRiskMeasure(s4, lambda v: ConditionalValue(batch(v.values[None])[0]), "late", evaluate_batch_fn=batch)
    assert riskcore._failing_blocks(measure, "monotonicity", first, seed, 1).tolist() == [True, False]
    assert riskcore._failing_blocks(measure, "monotonicity", trials, seed, 1).tolist() == [True, True]


# -- exact dual oracles against evaluate and the user route's candidates -------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cases())
def test_exact_duals_match_evaluate_and_beat_every_candidate(case):
    space, xs, gamma, lam, _, _, _ = case
    x = RandomVariable(xs[0])
    cap = space.broadcast(1.0 / lam) + riskcore.ADMISSIBLE_TOL
    for kind, factory in BUILTIN_FACTORIES.items():
        measure = factory(space, gamma=gamma, **{"lambda": lam})
        rho = measure.evaluate(x).values
        # the oracle route takes every block: the user route is never asked
        with mock.patch.object(duality, "_candidate_duals", side_effect=AssertionError(kind)):
            result = dual_representation(measure, x)
        value, y = result.value.values, result.maximizer
        assert result.converged == [True] * space.n_blocks and result.warnings == []
        assert np.all(np.abs(value - rho) <= 1e-12 * np.maximum(1.0, np.abs(rho))), kind
        assert y.is_admissible(space), kind
        if kind == "avar":
            assert np.all(-y.values <= cap)
        # the value is the one graded at the returned dual
        assert np.array_equal(value, duality._graded(measure, xs[:1], y.values[None])[0])
        # no candidate of the user route, fallbacks included, grades above
        # it, but by the slack of a closed form that admits duals within
        # ADMISSIBLE_TOL of a density
        slack = 1e-12 + riskcore.ADMISSIBLE_TOL * space.block_mean(np.abs(xs[0]))
        for candidate in duality._candidate_duals(measure):
            ys = candidate(xs[:1])
            if not np.isnan(ys).any():
                assert np.all(value >= duality._graded(measure, xs[:1], ys)[0] - slack), kind


def _axiom_measures(space, gamma, lam):
    """The four built-ins, a broken measure with a batch function and a
    non-local user measure without one."""

    def broken_rows(xs):
        mu = space.block_mean(xs)
        return -mu - 0.1 * np.sign(mu)

    broken = CondRiskMeasure(
        space,
        lambda x: ConditionalValue(broken_rows(x.values)),
        "broken_sign",
        evaluate_batch_fn=broken_rows,
    )

    def leaky(x):
        # every block's figure also sees the global mean: not local
        return ConditionalValue(-space.block_mean(x.values) - 0.25 * np.dot(space.probs, x.values))

    return [
        neg_cond_expectation(space),
        cond_worst_case(space),
        cond_entropic(space, gamma),
        cond_avar(space, lam),
        broken,
        CondRiskMeasure(space, leaky, "leaky"),
    ]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(cases(), st.integers(0, 2**16))
def test_check_axiom_matches_one_trial_at_a_time(case, seed):
    space, _, gamma, lam, _, _, _ = case
    for measure in _axiom_measures(space, gamma, lam):
        for axiom in AXIOMS:
            want = reference_check_axiom(measure, axiom, 25, seed)
            # batches of at most three trials as well: the cap on a batch
            # and the trial offset of later batches come into play
            for chunk in (3 * space.n_atoms, riskcore.CHUNK_ELEMENTS):
                with mock.patch.object(riskcore, "CHUNK_ELEMENTS", chunk):
                    got = check_axiom(measure, axiom, 25, seed)
                assert (got.passed, got.trials) == (want.passed, want.trials)
                assert repr(got.counterexample) == repr(want.counterexample)


# conditional masses of one block: the thirds 1/3 - 4e-13, 1/3, 1/3 + 4e-13
# round to two 12-decimal values, so exact sums tell the first two apart
BLOCK_MASSES = (
    [1 / 3 - 4e-13, 1 / 3, 1 / 3 + 4e-13],
    [0.2, 0.1, 0.2, 0.5],
    [0.25] * 4,
    [0.5, 0.5],
    [1.0],
)


@st.composite
def near_equal_mass_spaces(draw):
    """Shuffled blocks, each with the conditional masses of a row of
    ``BLOCK_MASSES`` in some order, and a seed."""
    rows = draw(st.lists(st.sampled_from(BLOCK_MASSES), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    probs = np.concatenate([w * np.array(draw(st.permutations(r))) for w, r in zip(weights, rows)])
    atoms = np.array(draw(st.permutations(range(1, probs.size + 1))))
    blocks = [b.tolist() for b in np.split(atoms, np.cumsum([len(r) for r in rows])[:-1])]
    space_probs = np.empty(probs.size)
    space_probs[atoms - 1] = probs / sum(weights)
    return FiniteProbSpace(space_probs, blocks), draw(st.integers(0, 2**16))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(near_equal_mass_spaces())
def test_every_law_trial_is_a_same_law_pair(case):
    # the trials and same_conditional_law read one equal-mass rule, so each
    # drawn permutation of a payoff keeps its law, near-equal masses included
    space, seed = case
    axiom = "conditional_law_invariance"
    streams = riskcore._trial_streams(axiom, seed)
    for size in (1, 2, 4):
        xs, perms = riskcore._draw_trials(axiom, space, streams, size)
        for x, perm in zip(xs, perms):
            assert space.same_conditional_law(RandomVariable(x), RandomVariable(x[perm]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cases(), st.integers(0, 2**16))
def test_law_permutations_shuffle_equal_mass_groups_only(case, seed):
    space, _, gamma, lam, _, _, _ = case
    axiom = "conditional_law_invariance"
    # batches of 1, 2 and 4 trials: trial t is row t of the key stream
    streams = riskcore._trial_streams(axiom, seed)
    perms = np.concatenate([riskcore._draw_trials(axiom, space, streams, size)[1] for size in (1, 2, 4)])
    keys = reference_trial_streams(seed)["keys"]
    for perm in perms:
        # a permutation inside each block that keeps every conditional mass:
        # each equal-mass group onto itself, every other atom fixed
        assert np.array_equal(np.sort(perm), np.arange(space.n_atoms))
        assert np.array_equal(space.block_of[perm], space.block_of)
        assert np.array_equal(space.cond[perm], space.cond)
        assert np.array_equal(perm, reference_law_permutation(space, keys.random(space.n_atoms)))
    # one trial per batch and the default batches give the same reports
    for measure in _axiom_measures(space, gamma, lam):
        for axiom in AXIOMS:
            with mock.patch.object(riskcore, "CHUNK_ELEMENTS", space.n_atoms):
                one = check_axiom(measure, axiom, 25, seed)
            assert repr(one.to_dict()) == repr(check_axiom(measure, axiom, 25, seed).to_dict())


# -- the packed-key sort of long AVaR rows -----------------------------------------


def _long_space(rng, max_size):
    """Uneven shuffled blocks of 1..max_size atoms, long enough for the
    packed-key sort of cond_avar."""
    sizes = []
    while sum(sizes) < riskcore.PACKED_SORT_MIN_ATOMS:
        sizes.append(int(rng.integers(1, max_size + 1)))
    return _shuffled_space(rng, sizes)


def _routes(space, lam, xs):
    """The risks of the long-row route, the rows it sorted again the exact
    way (in block order, as the kernel reads them), and the risks of the
    short-row route."""
    with mock.patch.object(riskcore, "_two_sorts", wraps=riskcore._two_sorts) as spy:
        packed = cond_avar(space, lam).evaluate_batch(xs)
    again = [call.args[2] for call in spy.call_args_list]
    with mock.patch.object(riskcore, "PACKED_SORT_MIN_ATOMS", space.n_atoms + 1):
        exact = cond_avar(space, lam).evaluate_batch(xs)
    return packed, again, exact


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 6, 300]), st.sampled_from([1, 3]))
def test_packed_avar_matches_per_block_reference(seed, max_size, rows):
    rng = np.random.default_rng(seed)
    space = _long_space(rng, max_size)
    lam = rng.choice([0.1, 0.25, 0.5, 0.7, 1.0], space.n_blocks)
    xs = rng.integers(-4, 5, (rows, space.n_atoms)) / 2.0  # tied payoffs
    packed, again, exact = _routes(space, lam, xs)
    assert again == []  # ties share a bucket in position order: no row is sorted again
    ref = np.stack([reference_risk(space, "avar", lam, row) for row in xs])
    _close(packed, ref)
    _close(exact, ref)


def test_packed_avar_collision_falls_back_to_the_exact_sort():
    rng = np.random.default_rng(71)
    space = _long_space(rng, 8)
    xs = rng.normal(0.0, 2.0, (3, space.n_atoms))
    # two payoffs one ulp apart share a key bucket, where the block position
    # puts the larger one first
    j = next(j for j, b in enumerate(space.blocks, start=1) if len(b) > 1)
    first, second = space.block_index_array(j)[:2]
    xs[1, second] = 1.5
    xs[1, first] = np.nextafter(1.5, np.inf)
    lam = np.full(space.n_blocks, 0.3)
    packed, again, exact = _routes(space, lam, xs)
    assert len(again) == 1 and np.array_equal(again[0], xs[1:2, space.order])
    assert np.array_equal(packed, exact)
    _close(packed, np.stack([reference_risk(space, "avar", lam, row) for row in xs]))


def test_packed_avar_collision_keeps_the_oracle_weights_of_the_exact_sort():
    # the fallback also sorts the row's atoms again, for the dual oracle
    rng = np.random.default_rng(71)
    space = _long_space(rng, 8)
    xs = rng.normal(0.0, 2.0, (3, space.n_atoms))
    j = next(j for j, b in enumerate(space.blocks, start=1) if len(b) > 1)
    first, second = space.block_index_array(j)[:2]
    xs[1, space.block_index_array(j)] = 10.0
    xs[1, first], xs[1, second] = 1.0 + 5 * 2.0**-52, 1.0 + 3 * 2.0**-52  # one key bucket, descending
    # the two head block j's tail, which ends inside the smaller: each atom's
    # weight then shows which of them the sort put first
    lam = np.full(space.n_blocks, 0.3)
    lam[j - 1] = space.cond_probs(j).min() / 2
    with mock.patch.object(riskcore, "_two_sorts", wraps=riskcore._two_sorts) as spy:
        weights = cond_avar(space, lam)._dual_oracle(xs)
    assert [call.args[2].tolist() for call in spy.call_args_list] == [xs[1:2, space.order].tolist()]
    with mock.patch.object(riskcore, "PACKED_SORT_MIN_ATOMS", space.n_atoms + 1):
        exact = cond_avar(space, lam)._dual_oracle(xs)
    assert np.array_equal(weights, exact)
    assert weights[1, second] > 0 and weights[1, first] == 0


def test_packed_avar_signed_zeros():
    rng = np.random.default_rng(72)
    space = _long_space(rng, 12)
    xs = rng.integers(-1, 2, (2, space.n_atoms)) * 0.0  # +0.0 and -0.0 only
    xs[1, ::3] = rng.normal(0.0, 1.0, xs[1, ::3].size)
    lam = np.full(space.n_blocks, 0.4)
    packed, again, exact = _routes(space, lam, xs)
    assert np.array_equal(packed, exact)
    _close(packed, np.stack([reference_risk(space, "avar", lam, row) for row in xs]))


def test_packed_avar_non_finite_rows_match_the_exact_route():
    rng = np.random.default_rng(73)
    space = _long_space(rng, 40)
    xs = rng.normal(0.0, 2.0, (6, space.n_atoms))
    for r in range(1, 6):
        at = rng.choice(space.n_atoms, 8, replace=False)
        xs[r, at] = rng.choice([np.inf, -np.inf, np.nan], at.size)
    xs[5, :] = np.nan
    for lam in (0.3, 1.0):
        with np.errstate(invalid="ignore"):
            packed, _, exact = _routes(space, lam, xs)
        assert np.array_equal(packed, exact, equal_nan=True), lam
        assert np.isnan(packed).any() and np.isinf(packed).any()
        assert np.isfinite(packed[0]).all()


def test_avar_routes_give_tied_atoms_one_oracle_weight():
    # both sorts order tied payoffs by position in block order, so where the
    # tail's boundary falls among ties the two routes weight the same atom
    rng = np.random.default_rng(75)
    space = _shuffled_space(rng, [3, 5, 4])
    lam = np.array([0.3, 0.5, 0.7])
    xs = rng.integers(0, 3, (200, space.n_atoms)).astype(float)
    short = cond_avar(space, lam)
    with mock.patch.object(riskcore, "PACKED_SORT_MIN_ATOMS", 1), \
            mock.patch.object(riskcore, "_packed_sort", wraps=riskcore._packed_sort) as packed:
        long = cond_avar(space, lam)
        weights = long._dual_oracle(xs)
    assert packed.called
    assert np.array_equal(weights, short._dual_oracle(xs))
    assert np.array_equal(long.evaluate_batch(xs), short.evaluate_batch(xs))


def test_avar_route_follows_the_row_length():
    rng = np.random.default_rng(74)
    for space, long_rows in ((_uneven_space(rng, 9, 4), False), (_long_space(rng, 30), True)):
        xs = rng.normal(0.0, 2.0, (3, space.n_atoms))
        with mock.patch.object(riskcore, "_packed_sort", wraps=riskcore._packed_sort) as packed, \
                mock.patch.object(riskcore, "_two_sorts", wraps=riskcore._two_sorts) as exact:
            cond_avar(space, 0.3).evaluate_batch(xs)
        assert packed.called == long_rows
        assert exact.called != long_rows


# -- the chunks of a built-in's batch, shared among CPUs ---------------------------


def _builtins_on(space, rng):
    m = space.n_blocks
    return [
        neg_cond_expectation(space),
        cond_worst_case(space),
        cond_entropic(space, rng.choice([0.5, 1.0, 2.5], m)),
        cond_avar(space, rng.choice([0.1, 0.25, 0.5, 0.7, 1.0], m)),
    ]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([4, 300]),
    st.booleans(),
    st.sampled_from([1, 2, 5]),
    st.sampled_from([1, 2, 3]),
)
def test_chunked_batches_equal_one_row_calls(seed, max_size, long, rows_per_chunk, cpus):
    """Whatever the chunk size and the number of threads that share the
    chunks, each row of a batch is its one-row call bit for bit."""
    rng = np.random.default_rng(seed)
    space = _long_space(rng, max_size) if long else _uneven_space(rng, 40, max_size)
    xs = rng.integers(-4, 5, (11, space.n_atoms)) / 2.0  # tied payoffs
    xs[::2] = rng.normal(0.0, 2.0, xs[::2].shape)
    with mock.patch.object(riskcore, "CHUNK_ELEMENTS", rows_per_chunk * space.n_atoms), \
            mock.patch.object(riskcore, "_CPUS", tuple(range(cpus))):
        for measure in _builtins_on(space, rng):
            one = np.stack([measure.evaluate(RandomVariable(row)).values for row in xs])
            assert np.array_equal(measure.evaluate_batch(xs), one), measure.label


def test_chunks_survive_more_threads_than_cpus_and_fast_switches(monkeypatch):
    rng = np.random.default_rng(79)
    space = _long_space(rng, 20)
    monkeypatch.setattr(riskcore, "CHUNK_ELEMENTS", space.n_atoms)
    monkeypatch.setattr(riskcore, "_CPUS", tuple(range(8)))
    xs = rng.normal(0.0, 2.0, (40, space.n_atoms))
    measures = _builtins_on(space, rng)
    expected = [np.stack([m.evaluate(RandomVariable(row)).values for row in xs]) for m in measures]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for measure, one in zip(measures, expected):
                assert np.array_equal(measure.evaluate_batch(xs), one), measure.label
    finally:
        sys.setswitchinterval(switch)


def test_helper_rows_keep_the_callers_errstate(monkeypatch):
    # one row per chunk on two CPUs: the caller takes row 0, a helper row 1
    rng = np.random.default_rng(80)
    space = _uneven_space(rng, 30, 6)
    monkeypatch.setattr(riskcore, "CHUNK_ELEMENTS", space.n_atoms)
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1))
    measure = cond_entropic(space, 1.0)
    xs = rng.normal(0.0, 1.0, (2, space.n_atoms))
    xs[1, 3] = -np.inf  # exp(inf - inf)
    started = spy_calls(monkeypatch, threading.Thread, "start")
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            measure.evaluate_batch(xs[1:])
        with pytest.raises(FloatingPointError):
            measure.evaluate_batch(xs)
    assert len(started) == 1
    with np.errstate(invalid="ignore"):
        assert np.isnan(measure.evaluate_batch(xs)[1]).any()


def test_first_failing_chunk_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1, 2))

    def batch(chunk):
        if chunk in (4, 5):
            raise ValueError(f"chunk {chunk}")
        return chunk

    # chunk 4 runs in a helper, chunk 5 in another; the serial loop stops at 4
    with pytest.raises(ValueError, match="chunk 4"):
        riskcore._map_chunks(batch, list(range(9)))
    assert riskcore._map_chunks(batch, list(range(4))) == [0, 1, 2, 3]


def test_a_batch_leaves_no_thread_behind(monkeypatch):
    rng = np.random.default_rng(81)
    space = _long_space(rng, 20)
    monkeypatch.setattr(riskcore, "CHUNK_ELEMENTS", space.n_atoms)
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1, 2))
    measures = _builtins_on(space, rng)
    before = threading.active_count()
    started = spy_calls(monkeypatch, threading.Thread, "start")
    for measure in measures:
        measure.evaluate_batch(rng.normal(0.0, 1.0, (7, space.n_atoms)))
    assert len(started) == 2 * len(measures)
    assert threading.active_count() == before


def test_serial_batches_start_no_thread(monkeypatch):
    rng = np.random.default_rng(82)
    space = _uneven_space(rng, 30, 6)
    xs = rng.normal(0.0, 1.0, (9, space.n_atoms))
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1))
    started = spy_calls(monkeypatch, threading.Thread, "start")
    # one chunk: the whole batch fits in CHUNK_ELEMENTS
    for measure in _builtins_on(space, rng):
        measure.evaluate_batch(xs)
    # a user measure's batch hook and its padded restriction, at one row per chunk
    monkeypatch.setattr(riskcore, "CHUNK_ELEMENTS", space.n_atoms)
    user = CondRiskMeasure(
        space,
        lambda x: ConditionalValue(-space.block_mean(x.values)),
        "user_mean",
        evaluate_batch_fn=lambda xs: -space.block_mean(xs),
    )
    user.evaluate_batch(xs)
    user.restrict(1).evaluate_batch(xs[:, space.block_index_array(1) - 1])
    # one CPU: the serial loop
    monkeypatch.setattr(riskcore, "_CPUS", (0,))
    for measure in _builtins_on(space, rng):
        measure.evaluate_batch(xs)
    assert started == []


def test_helpers_run_on_the_cpus_but_the_callers(monkeypatch):
    rng = np.random.default_rng(83)
    space = _uneven_space(rng, 30, 6)
    monkeypatch.setattr(riskcore, "CHUNK_ELEMENTS", space.n_atoms)
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1, 2, 3, 4))
    monkeypatch.setattr(riskcore, "_other_cpus", lambda: (0, 1, 3, 4))
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the OS gives no thread affinity")
    bound = spy_calls(monkeypatch, os, "sched_setaffinity")
    # the spy makes the real call too: a mask that meets no CPU of the machine
    # is refused, and that helper runs unbound
    cond_worst_case(space).evaluate_batch(rng.normal(0.0, 1.0, (3, space.n_atoms)))
    assert sorted(cpus for _, cpus in bound) == [(0, 3), (1, 4)]


def _fill_tables(measure):
    """cond_avar's lazily built tables, as its batch function holds them."""
    cells = [c.cell_contents for c in measure.evaluate_batch_fn.__closure__]
    return next(f for f in cells if hasattr(f, "cache_info"))


def test_avar_tables_are_built_once_before_the_helpers_start(monkeypatch):
    rng = np.random.default_rng(84)
    space = _long_space(rng, 20)
    monkeypatch.setattr(riskcore, "CHUNK_ELEMENTS", space.n_atoms)
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1, 2))
    for _ in range(5):
        measure = cond_avar(space, 0.3)
        measure.evaluate_batch(rng.normal(0.0, 1.0, (16, space.n_atoms)))
        assert _fill_tables(measure).cache_info().misses == 1
