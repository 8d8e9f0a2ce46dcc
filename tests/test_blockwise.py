"""The batched blockwise layer against a plain per-block reference.

Spaces are uneven, with shuffled atoms and single-atom blocks; payoffs sit on
a coarse grid, so tied losses are common.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    reference_admissible_dual,
    reference_check_axiom,
    reference_cond_ops,
    reference_penalty,
    reference_risk,
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
    neg_cond_expectation,
)
from condrisk import riskcore
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
                assert bm.dual_density_cap(1) == m.dual_density_cap(j)
            if m.dual_penalty_grad is None:
                assert bm.dual_penalty_grad is None
            else:
                d = dens[idx]
                assert np.array_equal(bm.dual_penalty_grad(1, d), m.dual_penalty_grad(j, d))


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
        parent.evaluate_fn = parent.evaluate_batch_fn = parent.closed_form_penalty = refuse
        for j, idx in enumerate(cuts, start=1):
            block = parent.restrict(j)
            assert np.array_equal(block.evaluate_batch(xs[:, idx]), before[j - 1][0]), kind
            assert np.array_equal(block.closed_form_penalty(y[None, idx])[0], before[j - 1][1])
            assert block.params.keys() == parent.params.keys()
            for name, value in block.params.items():
                assert np.array_equal(value, params[name][j - 1 : j]), (kind, name)

    # a user measure has no other route than padding to the parent's width
    user = _user_entropic(space, params["gamma"])
    user.evaluate_fn = refuse
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
    way, and the risks of the short-row route."""
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
    assert len(again) == 1 and np.array_equal(again[0], xs[1:2])
    assert np.array_equal(packed, exact)
    _close(packed, np.stack([reference_risk(space, "avar", lam, row) for row in xs]))


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


def test_avar_route_follows_the_row_length():
    rng = np.random.default_rng(74)
    for space, long_rows in ((_uneven_space(rng, 9, 4), False), (_long_space(rng, 30), True)):
        xs = rng.normal(0.0, 2.0, (3, space.n_atoms))
        with mock.patch.object(riskcore, "_packed_sort", wraps=riskcore._packed_sort) as packed, \
                mock.patch.object(riskcore, "_two_sorts", wraps=riskcore._two_sorts) as exact:
            cond_avar(space, 0.3).evaluate_batch(xs)
        assert packed.called == long_rows
        assert exact.called != long_rows
