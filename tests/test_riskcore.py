import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from _helpers import reference_check_axiom, reference_trial_streams, spy_calls
from condrisk import (
    AXIOMS,
    CondRiskMeasure,
    ConditionalValue,
    DualVariable,
    FiniteProbSpace,
    RandomVariable,
    ShrinkingPerturbationSeq,
    SpaceError,
    check_all_axioms,
    check_axiom,
    check_convergence_property,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    fenchel,
    neg_cond_expectation,
)
from condrisk import riskcore
from condrisk.boolalg import _Memo, mask_array
from condrisk.riskcore import RiskMeasureError, UndominatedSequenceError


LOG2 = math.log(2.0)


def broken_measure(space):
    """Negated mean plus a sign kink: convexity fails at sign crossings."""

    def ev(x):
        mu = space.cond_expect(x)
        return ConditionalValue(-mu.values - 0.1 * np.sign(mu.values))

    return CondRiskMeasure(space, ev, "broken_sign")


def test_evaluate_examples(s4):
    x = RandomVariable([1, 3, 2, 6])
    assert np.array_equal(neg_cond_expectation(s4).evaluate(x).values, [-2, -4])
    assert np.array_equal(cond_worst_case(s4).evaluate(x).values, [-1, -2])
    xe = RandomVariable([-LOG2, -LOG2, 0, 0])
    out = cond_entropic(s4, 1.0).evaluate(xe).values
    assert out == pytest.approx([LOG2, 0.0], abs=1e-12)


def test_space_mismatch(s4):
    with pytest.raises(Exception):
        neg_cond_expectation(s4).evaluate(RandomVariable([1, 2, 3]))


def test_param_validation(s4):
    with pytest.raises(ValueError):
        cond_entropic(s4, -1.0)
    with pytest.raises(ValueError):
        cond_avar(s4, 0.0)
    with pytest.raises(ValueError):
        cond_avar(s4, 1.5)
    with pytest.raises(ValueError):
        cond_entropic(s4, [1.0, 1.0, 1.0])


def test_builtins_pass_all_axioms(s4):
    for m in (
        neg_cond_expectation(s4),
        cond_worst_case(s4),
        cond_entropic(s4, [1.0, 2.0]),
        cond_avar(s4, [0.5, 0.25]),
    ):
        for axiom, report in check_all_axioms(m, trials=150, seed=21).items():
            assert report.passed, (m.label, axiom, report.counterexample)


def test_entropic_cash_identity(s4):
    # log E[exp(-(x + eta)) | F] = rho(x) - eta, checked via the axiom driver
    report = check_axiom(cond_entropic(s4, 1.0), "cash_invariance", trials=100, seed=3)
    assert report.passed


def test_broken_measure_flagged(s4):
    report = check_axiom(broken_measure(s4), "convexity", trials=100, seed=0)
    assert not report.passed
    ce = report.counterexample
    assert ce is not None and "trial" in ce and "block" in ce
    assert ce["lhs"] > ce["rhs"] + 1e-9


def test_worst_case_local_exact(s4, a2):
    m = cond_worst_case(s4)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = RandomVariable(rng.normal(0, 2, 4))
        cut = RandomVariable(x.values * s4.broadcast(mask_array(a2.atom(1).mask, 2)))
        assert m.evaluate(x).values[0] == m.evaluate(cut).values[0]


def test_axioms_never_list_the_algebra(monkeypatch):
    # 20 blocks: listing the 2^20 algebra elements would be the whole cost
    from condrisk import BooleanAlgebra, FiniteProbSpace, scalarize

    def refuse(self):
        raise AssertionError("algebra elements listed")

    monkeypatch.setattr(BooleanAlgebra, "elements", refuse)
    space = FiniteProbSpace([1 / 40] * 40, [[2 * j + 1, 2 * j + 2] for j in range(20)])
    m = cond_avar(space, 0.5)
    for axiom in AXIOMS:
        assert check_axiom(m, axiom, trials=20, seed=5).passed, axiom
    assert scalarize(m, 20).space is space.block_space(20)


@pytest.mark.parametrize(
    "factory, value",
    [
        (cond_entropic, math.nan),
        (cond_entropic, None),
        (cond_entropic, math.inf),
        (cond_entropic, [1.0, math.nan]),
        (cond_avar, math.nan),
        (cond_avar, None),
    ],
)
def test_block_params_refuse_non_finite(s4, factory, value):
    # refused at construction, not later as a NaN risk figure
    with pytest.raises(ValueError, match="must be finite"):
        factory(s4, value)


@pytest.mark.parametrize(
    "factory, value, message",
    [
        (cond_entropic, "abc", "gamma must be a number or one number per block"),
        (cond_entropic, [1.0, "x"], "gamma must be a number or one number per block"),
        (cond_avar, object(), "lambda must be a number or one number per block"),
        (cond_entropic, 10**400, "gamma must be finite: int too large to convert to float"),
        (cond_avar, [0.5, -(10**400)], "lambda must be finite: int too large to convert to float"),
    ],
)
def test_block_params_refuse_what_is_not_a_float(s4, factory, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        factory(s4, value)


def test_measures_refuse_field_assignment(s4):
    user = CondRiskMeasure(s4, lambda x: s4.esssup_cond(-x), "user_worst")
    for m in (cond_entropic(s4, 0.5), cond_avar(s4, 0.5).restrict(1), user):
        for f in dataclasses.fields(m):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, f.name, getattr(m, f.name))


def test_builtin_params_are_read_only_copies(s4):
    # a write here would split the measure: on block 1 the whole space kept
    # gamma 0.5 (-0.440) while restrict(1) took gamma 2 (-1.337)
    gamma = np.array([0.5, 0.5])
    m = cond_entropic(s4, gamma)
    with pytest.raises(ValueError, match="read-only"):
        m._kernel[1][0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        cond_avar(s4, 0.5)._kernel[1][0] = 1.0
    gamma[0] = 2.0  # the caller's array stays the caller's
    x = RandomVariable([1, 3, 2, 6])
    assert m.evaluate(x).values[0] == m.restrict(1).evaluate(RandomVariable([1, 3])).values[0]


def test_unknown_axiom(s4):
    with pytest.raises(ValueError):
        check_axiom(neg_cond_expectation(s4), "coherence", trials=1)
    with pytest.raises(ValueError):
        check_axiom(neg_cond_expectation(s4), "convexity", trials=0)


def _trial_payoffs(space, trials, seed):
    """The payoff x of each trial: row t of the payoff stream is trial t."""
    rng = reference_trial_streams(seed)["x"]
    return [rng.normal(0.0, 2.0, space.n_atoms) for _ in range(trials)]


def _infinite_at(space, rows, x_bad, batched, fault=None):
    """A measure from ``rows`` that is +inf on every block at payoff ``x_bad``,
    or that raises ``fault`` there if one is given."""

    def inf_rows(vals):
        hit = np.all(vals == x_bad, axis=-1)
        if fault is not None and hit.any():
            raise fault
        return np.where(hit[..., None], math.inf, rows(vals))

    return CondRiskMeasure(
        space,
        lambda x: ConditionalValue(inf_rows(x.values)),
        "inf_at_k",
        evaluate_batch_fn=inf_rows if batched else None,
    )


def _raised(fault):
    if fault is None:
        return pytest.raises(RiskMeasureError, match="non-finite")
    return pytest.raises(type(fault))


@pytest.mark.parametrize("fault", [None, ZeroDivisionError("k")], ids=["inf", "error"])
@pytest.mark.parametrize("batched", [False, True])
def test_non_finite_risk_against_first_failure(s4, batched, fault):
    # trial k's own payoff gets an infinite risk, or the measure raises
    # there; that is raised when k comes at or before the first failing
    # trial, and after it the failing trial is reported, as one at a time.
    # Seed 21: broken_sign first fails convexity at trial 5, inside the batch
    # of trials 3..6
    seed, first_fail = 21, 5
    xs = _trial_payoffs(s4, 10, seed)
    assert reference_check_axiom(broken_measure(s4), "convexity", 10, seed).counterexample[
        "trial"
    ] == first_fail
    broken_rows = lambda v: -s4.block_mean(v) - 0.1 * np.sign(s4.block_mean(v))
    for k in (0, 3, 4, 5, 6, 9):
        measure = _infinite_at(s4, broken_rows, xs[k], batched, fault)
        if k <= first_fail:
            with _raised(fault):
                reference_check_axiom(measure, "convexity", 10, seed)
            with _raised(fault):
                check_axiom(measure, "convexity", 10, seed)
        else:
            want = reference_check_axiom(measure, "convexity", 10, seed)
            got = check_axiom(measure, "convexity", 10, seed)
            assert want.counterexample["trial"] == first_fail
            assert repr(got.to_dict()) == repr(want.to_dict())

    # cash invariance of the negated mean: the infinite risk of trial 4 is
    # also the first trial whose two sides differ, and it still raises
    xs = _trial_payoffs(s4, 10, seed)
    measure = _infinite_at(s4, lambda v: -s4.block_mean(v), xs[4], batched, fault)
    with _raised(fault):
        check_axiom(measure, "cash_invariance", 10, seed)

    # block 2 of a user measure: its restriction evaluates padded rows
    # through the parent's evaluate_batch.  The atom-3 kink breaks law
    # invariance; seed 28 first fails at trial 4, inside the batch of 3..6
    space = FiniteProbSpace([0.1, 0.2, 0.1, 0.1, 0.1, 0.2, 0.2], [[1, 2], [3, 4, 5], [6, 7]])
    rows = lambda v: -space.block_mean(v) - 0.1 * (v[..., [2]] > 1.0)
    axiom, seed, first_fail = "conditional_law_invariance", 28, 4
    block = CondRiskMeasure(space, lambda x: ConditionalValue(rows(x.values)), "kink").restrict(2)
    want = reference_check_axiom(block, axiom, 10, seed)
    assert want.counterexample["trial"] == first_fail
    xs = _trial_payoffs(block.space, 10, seed)
    for k in (0, 3, 4, 5, 6, 9):
        x_bad = np.zeros(space.n_atoms)
        x_bad[space.block_index_array(2)] = xs[k]
        measure = _infinite_at(space, rows, x_bad, batched, fault).restrict(2)
        if k <= first_fail:
            with _raised(fault):
                check_axiom(measure, axiom, 10, seed)
        else:
            assert repr(check_axiom(measure, axiom, 10, seed).to_dict()) == repr(want.to_dict())


def test_batch_of_wrong_shape_refused(s4):
    m = CondRiskMeasure(
        s4,
        lambda x: ConditionalValue([0.0, 0.0]),
        "flat",
        evaluate_batch_fn=lambda xs: np.zeros((len(xs), 3)),
    )
    with pytest.raises(SpaceError, match="shape"):
        check_axiom(m, "monotonicity", trials=5)


@pytest.mark.parametrize("shape", [lambda rows: (rows, 3), lambda rows: (rows,)])
def test_batch_of_wrong_shape_refused_for_every_caller(s4, shape):
    m = CondRiskMeasure(
        s4,
        lambda x: -s4.cond_expect(x),
        "misshapen",
        evaluate_batch_fn=lambda xs: np.zeros(shape(len(xs))),
    )
    named = re.escape(f"returned risks of shape {shape(2)}")
    with pytest.raises(SpaceError, match=named):
        fenchel(m, DualVariable([-1.0] * 4))
    with pytest.raises(SpaceError, match=named):
        m.restrict(2).evaluate_batch(np.zeros((2, 2)))


def test_early_failure_among_many_trials_is_cheap(s4):
    # 10**9 trials: the first batch holds about CHUNK_ELEMENTS >> 5 payoff
    # entries (512 trials of 4 atoms), so the failure at trial 3 is found in
    # that one small batch, not after 10**9 x 4 drawn entries
    tracemalloc.start()
    try:
        report = check_axiom(broken_measure(s4), "convexity", trials=10**9, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = reference_check_axiom(broken_measure(s4), "convexity", 10**9, 11)
    assert repr(report.to_dict()) == repr(want.to_dict())
    assert report.counterexample["trial"] == 3
    assert peak < 1 << 20, peak


def test_trial_memory_does_not_grow_with_trials(s4):
    # batches of at most 64 trials: 20,000 trials pass through the same few
    # small arrays; stacking them all would take 20,000 x 4 x 8 bytes per side
    with mock.patch.object(riskcore, "CHUNK_ELEMENTS", 256):
        tracemalloc.start()
        try:
            report = check_axiom(neg_cond_expectation(s4), "monotonicity", trials=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert report.passed and report.trials == 20_000
    assert peak < 1 << 18, peak


class _CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    calls = 0

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            _CountingGenerator.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def trial_draws(monkeypatch):
    """``riskcore._TRIAL_DRAWS`` emptied for one test, so what it counts or
    holds does not depend on the tests run before it."""
    memo = _Memo()
    monkeypatch.setattr(riskcore, "_TRIAL_DRAWS", memo)
    return memo


def test_law_trials_draw_one_array_per_input_and_batch(monkeypatch, trial_draws):
    # 1,000 blocks of 3 equal-mass atoms: drawing each trial's shuffle group
    # by group took one generator call per group, 200 x 1,000 in all
    space = FiniteProbSpace(np.full(3000, 1 / 3000), np.arange(1, 3001).reshape(1000, 3).tolist())
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: _CountingGenerator(real(*a)))
    _CountingGenerator.calls = 0
    report = check_axiom(neg_cond_expectation(space), "conditional_law_invariance", 200)
    assert report.passed
    batches = len(list(riskcore._row_batches(space.n_atoms, 200)))
    assert _CountingGenerator.calls <= 2 * batches, (_CountingGenerator.calls, batches)


def test_small_space_checks_its_trials_in_one_batch(monkeypatch, space8):
    # the first batch holds about CHUNK_ELEMENTS >> 5 payoff entries: 256
    # trials of 8 atoms.  Batches of 1, 2, 4, ... trials took 8 here
    batches = spy_calls(monkeypatch, riskcore, "_first_failure")
    report = check_axiom(neg_cond_expectation(space8), "conditional_law_invariance", 200)
    assert report.passed
    assert [len(inputs[0]) for _, _, inputs in batches] == [200]


def _tiled_space(tile):
    """``tile`` copies side by side of one layout of 2 blocks (masses 1, 1, 2
    and 3, 3), as a stack of ``_stacked`` lays them out."""
    probs = np.tile([1.0, 1.0, 2.0, 3.0, 3.0], tile)
    blocks = [[5 * c + a for a in atoms] for c in range(tile) for atoms in ([1, 2, 3], [4, 5])]
    return FiniteProbSpace(probs / probs.sum(), blocks)


@pytest.mark.parametrize("tile", [1, 3])
@pytest.mark.parametrize("axiom", AXIOMS)
def test_a_replayed_draw_is_the_cold_draw_bit_for_bit(monkeypatch, trial_draws, axiom, tile):
    # the first check that fits in one row batch draws and stores its
    # trials; a repeat hands out the stored arrays and draws nothing
    space, seed = _tiled_space(tile), 5
    cold = riskcore._draw_trials(axiom, space, riskcore._trial_streams(axiom, seed), 7, tile)
    drawn = spy_calls(monkeypatch, riskcore, "_draw_trials")
    first, again = (list(riskcore._trial_batches(axiom, space, 7, seed, tile)) for _ in range(2))
    assert len(drawn) == 1 and len(trial_draws) == 1
    assert [done for done, _ in first] == [done for done, _ in again] == [0]
    for stored, replayed, want in zip(first[0][1], again[0][1], cold, strict=True):
        assert replayed is stored
        assert (stored.dtype, stored.shape, stored.tobytes()) == (want.dtype, want.shape, want.tobytes())
    if tile > 1:
        # the same space drawn untiled is a key of its own
        untiled = next(riskcore._trial_batches(axiom, space, 7, seed))[1]
        assert len(trial_draws) == 2 and not np.array_equal(untiled[0], cold[0])


def test_checks_on_replayed_trials_report_as_on_fresh_ones(trial_draws, s4):
    # every axiom of a measure that fails some of them, checked twice: the
    # second reads the stored trials, and both match the one-at-a-time loop
    m = broken_measure(s4)
    cold, warm = (check_all_axioms(m, trials=50, seed=3) for _ in range(2))
    assert len(trial_draws) == len(AXIOMS)
    for axiom in AXIOMS:
        want = reference_check_axiom(m, axiom, 50, 3)
        assert repr(cold[axiom].to_dict()) == repr(warm[axiom].to_dict()) == repr(want.to_dict())


def test_spaces_of_one_shape_with_other_equal_mass_groups_draw_their_own_law_trials(trial_draws):
    # both spaces have 4 atoms in 2 blocks; only the first has equal masses
    # in its first block, so only its trials may swap atoms 1 and 2
    axiom = "conditional_law_invariance"
    spaces = [FiniteProbSpace(p, [[1, 2], [3, 4]]) for p in ([0.25] * 4, [0.1, 0.4, 0.25, 0.25])]
    perms = [next(riskcore._trial_batches(axiom, space, 20, 0))[1][1] for space in spaces]
    assert len(trial_draws) == 2
    for space, perm in zip(spaces, perms):
        assert np.array_equal(perm, riskcore._draw_trials(axiom, space, riskcore._trial_streams(axiom, 0), 20)[1])
    assert (perms[0][:, 0] == 1).any() and (perms[1][:, :2] == [0, 1]).all()


def test_stored_trial_arrays_refuse_writes(trial_draws, space8):
    for axiom in AXIOMS:
        for a in next(riskcore._trial_batches(axiom, space8, 4, 0))[1]:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[0, 1]


def test_a_check_of_several_batches_leaves_the_memo_unchanged(monkeypatch, trial_draws, space8):
    # 256 trials of 8 atoms fill the first row batch (2,048 entries) and are
    # stored; 257 take a second batch and are drawn batch by batch, unstored
    m = neg_cond_expectation(space8)
    assert check_axiom(m, "convexity", 256).passed
    held = dict(trial_draws)
    assert len(held) == 1
    drawn = spy_calls(monkeypatch, riskcore, "_draw_trials")
    assert check_axiom(m, "convexity", 257).passed
    assert [call[3] for call in drawn] == [256, 1]
    assert trial_draws.keys() == held.keys()
    assert all(trial_draws[k] is v for k, v in held.items())


@pytest.mark.parametrize("seed", [0, 7, 28, 2**40 + 3])
def test_trial_streams_are_the_spawned_children(seed):
    # each input's stream is built from its spawn key alone, bit for bit
    # child i of spawn(6), so the pinned counterexamples keep their trials
    children = np.random.SeedSequence(seed).spawn(len(riskcore.TRIAL_INPUTS))
    for axiom, names in riskcore._AXIOM_INPUTS.items():
        for name, rng in zip(names, riskcore._trial_streams(axiom, seed), strict=True):
            want = np.random.default_rng(children[riskcore.TRIAL_INPUTS.index(name)])
            assert np.array_equal(rng.random(16), want.random(16))


def test_near_equal_masses_fall_in_one_group_each():
    # conditional masses 4e-13 apart round to two 12-decimal values; grouping
    # each rounded value with every atom within 1e-12 of it put the middle
    # atom in both groups, and one scatter of both was no permutation
    space = FiniteProbSpace([1 / 3 - 4e-13, 1 / 3, 1 / 3 + 4e-13], [[1, 2, 3]])
    members, labels = space._mass_groups
    assert members.tolist() == [0, 1] and labels.tolist() == [0, 0]
    axiom = "conditional_law_invariance"
    streams = riskcore._trial_streams(axiom, 0)
    for perm in riskcore._draw_trials(axiom, space, streams, 8)[1]:
        assert sorted(perm) == [0, 1, 2] and perm[2] == 2


@pytest.mark.parametrize("trials", [0, -2, 2.5, "3", True, None])
def test_bad_trials_refused_by_name(s4, trials):
    message = f"trials must be a positive integer, got {trials!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_axiom(neg_cond_expectation(s4), "convexity", trials=trials)
    assert check_axiom(neg_cond_expectation(s4), "convexity", trials=np.int64(3)).trials == 3


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, "3", True, False])
def test_bad_seed_refused_by_name(s4, seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_axiom(neg_cond_expectation(s4), "convexity", trials=1, seed=seed)


def test_avar_lambda_one_is_neg_expectation(s4, space8):
    rng = np.random.default_rng(11)
    for space in (s4, space8):
        av = cond_avar(space, 1.0)
        ne = neg_cond_expectation(space)
        for _ in range(30):
            x = RandomVariable(rng.normal(0, 3, space.n_atoms))
            assert np.array_equal(av.evaluate(x).values, ne.evaluate(x).values)


def test_avar_tail_does_not_overflow_near_the_float_limit(s4):
    # the fixed-point masses of the tail reach 2^52: multiplied into a payoff
    # near 1e293 they overflowed, though the figure is finite.  Both sorts:
    # s4 takes the two exact sorts, 4,096 atoms the packed key
    m = cond_avar(s4, 0.5)
    assert m.evaluate(RandomVariable([1e293, -1e293, 1.0, 2.0])).values.tolist() == [1e293, -1.0]
    assert m.restrict(1).evaluate(RandomVariable([1e293, -1e293])).values.tolist() == [1e293]
    space = FiniteProbSpace(np.full(4096, 1 / 4096), [list(range(1, 2049)), list(range(2049, 4097))])
    assert space.n_atoms >= riskcore.PACKED_SORT_MIN_ATOMS
    rows = np.full((2, 4096), -1e300)
    rows[1, ::2] = 1e300
    risk = cond_avar(space, 0.25).evaluate_batch(rows)
    assert risk == pytest.approx(np.full((2, 2), 1e300), rel=1e-12)


def test_avar_smallest_mass_is_worst_case(s4):
    av = cond_avar(s4, 0.5)  # uniform blocks of two atoms: smallest mass is 1/2
    wc = cond_worst_case(s4)
    rng = np.random.default_rng(12)
    for _ in range(30):
        x = RandomVariable(rng.normal(0, 3, 4))
        assert np.array_equal(av.evaluate(x).values, wc.evaluate(x).values)


def test_risk_of_zero(s4):
    zero = RandomVariable([0, 0, 0, 0])
    for m in (
        neg_cond_expectation(s4),
        cond_worst_case(s4),
        cond_entropic(s4, 1.0),
        cond_avar(s4, 0.5),
    ):
        assert np.allclose(m.evaluate(zero).values, 0.0, atol=1e-14)


def test_entropic_limit_to_worst_case(s4):
    ent = cond_entropic(s4, 1e3)
    wc = cond_worst_case(s4)
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = RandomVariable(rng.normal(0, 2, 4))
        dev = np.max(np.abs(ent.evaluate(x).values - wc.evaluate(x).values))
        assert dev <= 1e-2


def test_evaluate_batch_matches_single(s4, space8):
    rng = np.random.default_rng(14)
    for space in (s4, space8):
        measures = (
            neg_cond_expectation(space),
            cond_worst_case(space),
            cond_entropic(space, 1.3),
            cond_avar(space, 0.4),
        )
        xs = rng.normal(0, 2, (16, space.n_atoms))
        for m in measures:
            batch = m.evaluate_batch(xs)
            single = np.stack([m.evaluate(RandomVariable(row)).values for row in xs])
            assert np.allclose(batch, single, atol=1e-12)


def test_batch_fallback_loops(s4):
    m = CondRiskMeasure(s4, lambda x: -s4.cond_expect(x), "plain")
    xs = np.arange(8.0).reshape(2, 4)
    out = m.evaluate_batch(xs)
    assert out.shape == (2, 2)


def test_nonfinite_output_rejected(s4):
    m = CondRiskMeasure(s4, lambda x: ConditionalValue([math.inf, 0.0]), "bad")
    with pytest.raises(RiskMeasureError):
        m.evaluate(RandomVariable([0, 0, 0, 0]))


# -- convergence ------------------------------------------------------------------


def test_worst_case_perturbation_rate(s4):
    x = RandomVariable([1, 3, 2, 6])
    d = RandomVariable([1, 0, 0, 0])
    seq = ShrinkingPerturbationSeq(x, d, 10_000, RandomVariable(np.abs(x.values) + 1))
    rep = check_convergence_property(cond_worst_case(s4), seq, tol=2e-4)
    assert rep.lebesgue and rep.fatou
    assert rep.max_deviation <= 2e-4
    assert rep.observed_order == pytest.approx(1.0, abs=0.2)


def test_fatou_perturbation(s4):
    x = RandomVariable([0, 1, -1, 2])
    seq = ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), 4096)
    for m in (cond_entropic(s4, 1.0), cond_avar(s4, 0.5)):
        assert check_convergence_property(m, seq, tol=1e-3).fatou


def test_non_finite_term_of_a_sequence_raises(s4):
    # the risk blows up on the first term only, x + d with x + d > 5 on atom 4
    def ev(x):
        vals = -s4.cond_expect(x).values
        vals[1] = math.inf if x.values[3] > 5.0 else vals[1]
        return ConditionalValue(vals)

    x = RandomVariable([1, 3, 2, 4.5])
    seq = ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), 64)

    def batch(xs):
        return np.stack([ev(RandomVariable(r)).values for r in xs])

    for batch_fn in (None, batch):
        m = CondRiskMeasure(s4, ev, "blowup", evaluate_batch_fn=batch_fn)
        with pytest.raises(RiskMeasureError, match="non-finite"):
            check_convergence_property(m, seq)


def test_sampled_terms_are_one_array(s4):
    # the report is the one the terms built by ``term`` give, and no
    # RandomVariable is built per sampled index
    x = RandomVariable([0.5, -1.0, 2.0, 0.25])
    seq = ShrinkingPerturbationSeq(x, RandomVariable([0.3, -1.7, 1.1, 2.9]), 10_000)
    ns = sorted({min(2**k, 10_000) for k in range(14)} | {10_000})
    for m in (cond_entropic(s4, 1.5), cond_avar(s4, 0.5)):
        risks = m.evaluate_batch(np.stack([x.values] + [seq.term(n).values for n in ns]))
        devs = [float(np.max(np.abs(r - risks[0]))) for r in risks[1:]]
        with mock.patch.object(riskcore, "RandomVariable", wraps=RandomVariable) as built:
            rep = check_convergence_property(m, seq)
        assert built.call_count == 0
        assert rep.max_deviation == devs[-1]
        assert rep.observed_order == math.log(devs[-2] / devs[-1]) / math.log(ns[-1] / ns[-2])


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_convergence_refuses_an_unusable_tolerance(s4, tol):
    seq = ShrinkingPerturbationSeq(RandomVariable([1, 3, 2, 6]), RandomVariable([1, 1, 1, 1]), 64)
    message = f"tol must be a finite number >= 0, got {tol!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_convergence_property(neg_cond_expectation(s4), seq, tol=tol)


@pytest.mark.parametrize("n_max", [0, -3, 2.5, math.nan, True, "3"])
def test_shrinking_sequence_refuses_n_max_below_one(n_max):
    # n_max = 0 divided by zero, n_max = -3 judged x - d/3 as the last term,
    # 2.5 sampled a term at a fractional index and True ran as n_max = 1
    x = RandomVariable([1, 3, 2, 6])
    with pytest.raises(ValueError, match=re.escape(f"n_max must be a positive integer, got {n_max!r}")):
        ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), n_max)


def test_undominated_sequence_rejected(s4):
    x = RandomVariable([1, 3, 2, 6])
    small = RandomVariable([0.1] * 4)
    with pytest.raises(UndominatedSequenceError):
        check_convergence_property(
            neg_cond_expectation(s4),
            ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), 100, small),
        )


def test_bad_property_name(s4):
    # one call gives both verdicts, so no property is named: a call that
    # still names one passes it as the sequence, and is refused as such
    x = RandomVariable([1, 3, 2, 6])
    seq = ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), 64)
    with pytest.raises(TypeError, match="^unsupported sequence spec$"):
        check_convergence_property(neg_cond_expectation(s4), "fatou", seq)
    # a shrinking perturbation is the one sequence the check takes
    with pytest.raises(TypeError, match="^unsupported sequence spec$"):
        check_convergence_property(neg_cond_expectation(s4), [x, x])


def test_other_cpus_is_empty_where_the_thread_stat_cannot_be_read(monkeypatch):
    monkeypatch.setattr(riskcore, "_CPUS", (0, 1, 2))
    here = riskcore._other_cpus()
    assert here == () or (len(here) == 2 and set(here) < {0, 1, 2})

    def refuse(*args, **kwargs):
        raise OSError("no stat file")

    monkeypatch.setattr("builtins.open", refuse)
    assert riskcore._other_cpus() == ()


def test_a_batch_error_that_no_single_trial_repeats_is_raised(s4):
    # the batch raises only on several rows at once, so run a trial at a
    # time to place the error, none raises and none fails: the batch's own
    # error is raised, not a pass
    def rows(vals):
        if vals.shape[0] > 1:
            raise ZeroDivisionError("only in a batch")
        return -s4.block_mean(vals)

    measure = CondRiskMeasure(
        s4, lambda x: ConditionalValue(rows(x.values[None])[0]), "batch_only", evaluate_batch_fn=rows
    )
    assert check_axiom(measure, "monotonicity", 1).passed
    with pytest.raises(ZeroDivisionError, match="only in a batch"):
        check_axiom(measure, "monotonicity", 10)
