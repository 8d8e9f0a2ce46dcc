"""The batched blockwise layer against a plain per-block reference.

Spaces are uneven, with shuffled atoms and single-atom blocks; payoffs sit on
a coarse grid, so tied losses are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    reference_admissible_dual,
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
    cond_avar,
    cond_entropic,
    cond_worst_case,
    neg_cond_expectation,
)

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
                measure.closed_form_penalty(dual).values,
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
                        bm.closed_form_penalty(dual[idx]).values,
                        m.closed_form_penalty(dual).values[j - 1 : j],
                    )
                if j == stretch + 1:
                    assert np.isinf(bm.closed_form_penalty(off[idx]).values[0])
            if m.dual_density_cap is None:
                assert bm.dual_density_cap is None
            else:
                assert bm.dual_density_cap(1) == m.dual_density_cap(j)
            if m.dual_penalty_grad is None:
                assert bm.dual_penalty_grad is None
            else:
                d = dens[idx]
                assert np.array_equal(bm.dual_penalty_grad(1, d), m.dual_penalty_grad(j, d))
