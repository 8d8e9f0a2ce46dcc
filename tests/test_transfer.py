import math
import time

import numpy as np
import pytest

from condrisk import (
    CondRiskMeasure,
    ConditionalValue,
    DualVariable,
    FiniteProbSpace,
    ModuleSpec,
    PartitionOfUnity,
    RandomVariable,
    SpaceError,
    admissible_dual,
    check_axiom,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    dual_representation,
    fenchel_consistency,
    module_gauge,
    neg_cond_expectation,
    scalarize,
    transfer_verify,
    verify_representation,
    young_power,
)
from condrisk import riskcore, transfer
from condrisk.duality import DualityError
from condrisk.transfer import ScalarizeError
from _helpers import ceil_measure, spy_calls, user_entropic

LOG2 = math.log(2.0)


def builtins(space):
    return (
        cond_entropic(space, 1.0),
        cond_worst_case(space),
        neg_cond_expectation(space),
        cond_avar(space, 0.5),
    )


def tilted_measure(space):
    """Entropic with a block-1 tilt that breaks conditional law invariance."""
    base = cond_entropic(space, 1.0)
    i, k = space.block_index_array(1)[:2]

    def ev(x):
        vals = base.evaluate(x).values.copy()
        vals[0] += 0.1 * (x.values[i] - x.values[k])
        return ConditionalValue(vals)

    return CondRiskMeasure(space, ev, "tilted")


def nonlocal_measure(space):
    """Depends cross-block: block-1 figure uses the global mean."""

    def ev(x):
        mu = float(np.dot(space.probs, x.values))
        vals = -space.cond_expect(x).values
        vals[0] += 0.5 * mu
        return ConditionalValue(vals)

    return CondRiskMeasure(space, ev, "crossblock")


def risk(measure, xi):
    """Risk of a payoff on a one-block measure, as a float."""
    return float(measure.evaluate(RandomVariable(xi)).values[0])


def test_scalarize_examples(s4):
    sc = scalarize(cond_entropic(s4, 1.0), 1)
    assert risk(sc, [-LOG2, -LOG2]) == pytest.approx(LOG2, abs=1e-12)
    sc = scalarize(neg_cond_expectation(s4), 2)
    assert risk(sc, [1.0, 3.0]) == pytest.approx(-2.0, abs=1e-12)
    # cash invariance of the restriction
    for m in builtins(s4):
        sc = m.restrict(1)
        base = risk(sc, [0.0, 0.0])
        assert risk(sc, [3.0, 3.0]) == pytest.approx(base - 3.0, abs=1e-9)


def test_scalar_evaluate_refuses_a_short_block_payoff(s4):
    # one value must not stand for the payoff on a 2-atom block
    with pytest.raises(SpaceError):
        scalarize(cond_entropic(s4, 1.0), 1).evaluate(RandomVariable([1.0]))


def test_scalarize_refuses_nonlocal(s4):
    with pytest.raises(ScalarizeError):
        scalarize(nonlocal_measure(s4), 1)


def test_padded_restriction_refuses_an_off_block_dependence(s4):
    # block 1 reads atom 3 of block 2 at 1e-12: below AXIOM_TOL, so the sampled
    # certificate passes, but the exact probes of the padded cut see it
    def ev(x):
        vals = -s4.cond_expect(x).values
        vals[0] += 1e-12 * x.values[2]
        return ConditionalValue(vals)

    m = CondRiskMeasure(s4, ev, "leaky")
    assert check_axiom(m, "local_property", trials=64, seed=7).passed
    with pytest.raises(ScalarizeError, match="block 1 restriction depends on the extension"):
        m.restrict(1)
    with pytest.raises(ScalarizeError):
        dual_representation(m, RandomVariable([1, 3, 2, 6]))
    # the suite cuts both blocks in one stack, where block 2 is block 1's
    # stack-mate: the probe still fills it
    for items in ([3], [5]):
        with pytest.raises(ScalarizeError, match="block 1 restriction depends on the extension"):
            transfer_verify(m, items, [RandomVariable([1, 3, 2, 6])])
    assert m.restrict(2).evaluate(RandomVariable([2.0, 6.0])).values[0] == -4.0

    # four blocks of two atoms, block 1 reading block 3: their stack indices
    # 0 and 2 agree in bit 0, so only the rows of bit 1 fill block 3 while
    # block 1 keeps its probe
    space = FiniteProbSpace(np.full(8, 0.125), [[1, 2], [3, 4], [5, 6], [7, 8]])

    def ev_far(x):
        vals = -space.cond_expect(x).values
        vals[0] += 1e-12 * x.values[4]
        return ConditionalValue(vals)

    m = CondRiskMeasure(space, ev_far, "leaky")
    assert check_axiom(m, "local_property", trials=64, seed=13).passed
    with pytest.raises(ScalarizeError, match=r"^block 1 restriction depends on the extension: 0\.0 vs 1\.75e-11$"):
        transfer_verify(m, [3], [RandomVariable(np.arange(8.0))])


def test_scalarize_range_check(s4):
    with pytest.raises(ValueError):
        scalarize(neg_cond_expectation(s4), 3)


def test_exact_scalarization_identity(s4, space8):
    rng = np.random.default_rng(50)
    for space in (s4, space8):
        for m in builtins(space):
            scalars = [m.restrict(j) for j in range(1, space.n_blocks + 1)]
            for _ in range(101 // space.n_blocks):
                x = RandomVariable(rng.normal(0, 2, space.n_atoms))
                direct = m.evaluate(x).values
                for j, sc in enumerate(scalars, start=1):
                    assert abs(direct[j - 1] - risk(sc, space.restrict(x, j))) <= 1e-12


def test_gauge_restriction_identity(s4, space8):
    # blockwise module gauges equal the classical gauges on the block space
    rng = np.random.default_rng(51)
    specs = [ModuleSpec.lp(1), ModuleSpec.lp(2), ModuleSpec.lp(math.inf),
             ModuleSpec.orlicz(young_power(2))]
    for space in (s4, space8):
        for _ in range(10):
            x = RandomVariable(rng.normal(0, 2, space.n_atoms))
            for spec in specs:
                whole = module_gauge(spec, x, space).values
                for j in range(1, space.n_blocks + 1):
                    piece = module_gauge(
                        spec, RandomVariable(space.restrict(x, j)), space.block_space(j)
                    ).values[0]
                    assert whole[j - 1] == piece


def test_mixture_coherence(s4, a2):
    rng = np.random.default_rng(52)
    parts = PartitionOfUnity([a2.atom(1), a2.atom(2)])
    for m in builtins(s4):
        for _ in range(10):
            xs = [RandomVariable(rng.normal(0, 2, 4)) for _ in range(2)]
            mixed = m.evaluate(s4.indicator_mix(parts, xs)).values
            paste = [m.evaluate(xs[0]).values[0], m.evaluate(xs[1]).values[1]]
            assert np.array_equal(mixed, paste)


def test_fenchel_consistency_examples(s4):
    ne = neg_cond_expectation(s4)
    rep = fenchel_consistency(ne, [DualVariable([-1, -1, -1, -1])])
    assert rep.passed and rep.max_deviation == 0.0

    ent = cond_entropic(s4, 1.0)
    rep = fenchel_consistency(ent, [DualVariable([-2, 0, -1, -1])], tol=1e-6)
    assert rep.passed
    by_atom = {(c.dual_index, c.atom): c for c in rep.comparisons}
    assert by_atom[(0, 1)].conditional == pytest.approx(LOG2, abs=1e-9)
    assert by_atom[(0, 1)].classical == pytest.approx(LOG2, abs=1e-6)

    wc = cond_worst_case(s4)
    bad = DualVariable([-0.5, -0.5, -1, -1])  # block-1 mean is -0.5, not -1
    rep = fenchel_consistency(wc, [bad])
    assert rep.passed and rep.infinities_agree
    blk1 = {(c.dual_index, c.atom): c for c in rep.comparisons}[(0, 1)]
    assert math.isinf(blk1.conditional) and math.isinf(blk1.classical)


def test_fenchel_consistency_seeded(s4):
    rng = np.random.default_rng(53)
    duals = [admissible_dual(s4, rng.uniform(0.05, 2.0, 4)) for _ in range(12)]
    duals.append(DualVariable([-2, 0, -1, -1]))
    duals.append(DualVariable([-3, -1, -1, -1]))  # inadmissible on block 1
    for m in builtins(s4):
        rep = fenchel_consistency(m, duals, tol=1e-6)
        assert rep.passed, (m.label, rep.max_deviation)


def test_fenchel_consistency_needs_a_dual(s4):
    with pytest.raises(ValueError):
        fenchel_consistency(neg_cond_expectation(s4), [])


def test_fenchel_consistency_refuses_a_dual_of_the_wrong_length(s4):
    # named before the duals are stacked, wherever the short one stands
    ok, short = DualVariable([-1, -1, -1, -1]), DualVariable([-1, -1, -1])
    for duals in ([ok, short], [short, ok], [short]):
        with pytest.raises(DualityError, match="^dual variable length does not match the space$"):
            fenchel_consistency(cond_entropic(s4, 1.0), duals)


def test_fenchel_consistency_cuts_each_block_size_once(monkeypatch, space8):
    # the classical column is one row call for all five duals: one stack per
    # block size, two on space8
    rng = np.random.default_rng(8)
    duals = [admissible_dual(space8, rng.uniform(0.2, 1.8, 8)) for _ in range(5)]
    calls = spy_calls(monkeypatch, riskcore, "_stacked")
    assert fenchel_consistency(cond_avar(space8, 0.4), duals).passed
    assert [blocks.tolist() for _, blocks in calls] == [[2], [0, 1]]


def test_transfer_verify_builtins(s4):
    rng = np.random.default_rng(54)
    payoffs = [RandomVariable(rng.normal(0, 2, 4)) for _ in range(8)]
    for m in builtins(s4):
        rep = transfer_verify(m, [1, 3, 4, 5, 7], payoffs)
        assert rep.all_equivalences_hold, m.label
        assert sorted(rep.items) == [1, 3, 4, 5, 7]
        for item in rep.items.values():
            assert item.conditional and all(item.per_atom)
        assert rep.items[7].qualifier == "at probe resolution"


def test_transfer_tilt_localizes(s4):
    rng = np.random.default_rng(55)
    payoffs = [RandomVariable(rng.normal(0, 2, 4)) for _ in range(6)]
    rep = transfer_verify(tilted_measure(s4), [5], payoffs)
    item = rep.items[5]
    assert not item.conditional
    assert item.per_atom == [False, True]
    assert item.equivalence  # both sides fail together


def test_transfer_convergence_localizes(s4):
    # block 2 has mean exactly 2, so x + 1/n jumps the ceiling there for every n:
    # Fatou and Lebesgue fail on block 2 only, on the block's own cut sequences
    rep = transfer_verify(ceil_measure(s4), [3, 4], [RandomVariable([0.3, -1.2, 1.0, 3.0])])
    for number in (3, 4):
        item = rep.items[number]
        assert not item.conditional
        assert item.per_atom == [True, False]
        assert item.equivalence


def test_items_3_and_4_share_one_convergence_check_per_side(monkeypatch, s4):
    # one batch gives both verdicts: one check of the whole measure and one
    # of the stack of its two blocks (one block size), and each item reads
    # as it does when asked alone
    m, x = ceil_measure(s4), RandomVariable([0.3, -1.2, 1.0, 3.0])
    alone = {i: transfer_verify(m, [i], [x]).items[i].to_dict() for i in (3, 4)}
    calls = spy_calls(monkeypatch, transfer, "_convergence_blocks")
    rep = transfer_verify(m, [3, 4], [x])
    assert len(calls) == 2
    assert {i: rep.items[i].to_dict() for i in (3, 4)} == alone


def test_a_user_measure_takes_one_run_per_block_size(monkeypatch):
    # blocks of sizes 2, 2, 3, 3, 3: one run of the whole measure and one of
    # each size's stack, where one run per block made six
    space = FiniteProbSpace(np.full(13, 1 / 13), [[1, 2], [3, 4], [5, 6, 7], [8, 9, 10], [11, 12, 13]])
    m = CondRiskMeasure(space, lambda x: -space.cond_expect(x), "user_mean")
    calls = spy_calls(monkeypatch, transfer, "_verdicts")
    rep = transfer_verify(m, [1, 3, 4, 5, 7], [RandomVariable(np.linspace(-2.0, 2.0, 13))])
    assert rep.all_equivalences_hold
    assert [c[0].space.n_blocks for c in calls] == [5, 2, 3]


def test_transfer_verify_guards(s4):
    payoffs = [RandomVariable([1, 3, 2, 6])]
    for item in (2, 6, 8):
        with pytest.raises(ValueError, match=rf"unknown item numbers \[{item}\]"):
            transfer_verify(neg_cond_expectation(s4), [item], payoffs)
    # True == 1 and 1.0 == 1 as keys, but neither is an item number: each
    # would be reported under "True" or "1.0"
    for item in (True, 1.0):
        with pytest.raises(ValueError, match=rf"^item number must be a positive integer, got {item}$"):
            transfer_verify(neg_cond_expectation(s4), [3, item], payoffs)
    with pytest.raises(ValueError):
        transfer_verify(neg_cond_expectation(s4), [1], [])
    with pytest.raises(ScalarizeError):
        transfer_verify(nonlocal_measure(s4), [1], payoffs)


def test_transfer_verify_refuses_an_empty_item_list(s4):
    # zero checks are no pass
    with pytest.raises(ValueError, match="transfer_verify needs at least one item"):
        transfer_verify(neg_cond_expectation(s4), [], [RandomVariable([1, 3, 2, 6])])


@pytest.mark.parametrize("items", [[1], [5], [7]])
def test_transfer_verify_refuses_a_bad_seed_by_name(s4, items):
    m, x = neg_cond_expectation(s4), RandomVariable([1, 3, 2, 6])
    # a bool is an int to Python, but True is no seed the caller meant
    for seed in (-1, True, False):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            transfer_verify(m, items, [x], seed=seed)


def test_builtin_cuts_run_no_full_space_evaluation():
    # 200 blocks of 2 atoms: the native cuts probe nothing and each
    # convergence check is one batch, so the whole measure's one-payoff
    # evaluate_fn is not called once per block
    rng = np.random.default_rng(72)
    probs = rng.uniform(0.5, 2.0, 400)
    space = FiniteProbSpace(probs / probs.sum(), [[2 * j + 1, 2 * j + 2] for j in range(200)])
    m = cond_entropic(space, 1.0)
    calls = [0]
    one = m.evaluate_fn

    def counted(x):
        calls[0] += 1
        return one(x)

    # a spy on the built-in itself: a replaced copy would have no native cut
    object.__setattr__(m, "evaluate_fn", counted)
    rep = transfer_verify(m, [3, 4], [RandomVariable(rng.normal(0, 2, 400))])
    assert rep.all_equivalences_hold
    assert calls[0] < 100, calls[0]


def test_item_7_carries_the_sublevel_cap_note(s4):
    # 12 singleton blocks: the mixing walk passes its cap and takes a covering array
    space = FiniteProbSpace([1 / 12] * 12, [[a] for a in range(1, 13)])
    x = RandomVariable(np.linspace(-1.0, 1.0, 12))
    item = transfer_verify(neg_cond_expectation(space), [7], [x]).to_dict()["items"]["7"]
    assert len(item["notes"]) == 1
    assert "every pair of blocks took every pair of members" in item["notes"][0]
    # no cap hit on s4: the key is absent, as before
    item = transfer_verify(neg_cond_expectation(s4), [7], [RandomVariable([1, 3, 2, 6])])
    assert "notes" not in item.to_dict()["items"]["7"]


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_bad_tolerance_refused(s4, tol):
    m, x = neg_cond_expectation(s4), RandomVariable([1, 3, 2, 6])
    for call in (
        lambda: verify_representation(m, [x], tol=tol),
        lambda: transfer_verify(m, [1], [x], tol=tol),
        lambda: fenchel_consistency(m, [DualVariable([-1, -1, -1, -1])], tol=tol),
    ):
        with pytest.raises(ValueError, match="tol"):
            call()


def test_uneven_blocks_and_singletons():
    space = FiniteProbSpace([0.2, 0.3, 0.5], [[1], [2, 3]])
    x = RandomVariable([1.0, -2.0, 0.7])
    dual = admissible_dual(space, np.array([1.0, 0.5, 1.3]))
    for m in builtins(space):
        assert verify_representation(m, [x], tol=1e-6).attained_all
        assert fenchel_consistency(m, [dual], tol=1e-6).passed
    rep = transfer_verify(cond_entropic(space, 1.0), [1, 3, 4, 5, 7], [x])
    assert rep.all_equivalences_hold


def test_transfer_verify_on_20_blocks_in_time():
    # AVaR on 20 blocks of 2 atoms, every item; item 7's walk passes its cap
    rng = np.random.default_rng(71)
    probs = rng.uniform(0.5, 2.0, 40)
    space = FiniteProbSpace(probs / probs.sum(), [[2 * j + 1, 2 * j + 2] for j in range(20)])
    payoffs = [RandomVariable(rng.normal(0, 2, 40)) for _ in range(3)]
    start = time.perf_counter()
    rep = transfer_verify(cond_avar(space, 0.5), [1, 3, 4, 5, 7], payoffs)
    elapsed = time.perf_counter() - start
    assert rep.all_equivalences_hold
    assert "every pair of blocks took every pair of members" in rep.items[7].notes[0]
    assert elapsed < 2.0, f"transfer_verify on 20 blocks took {elapsed:.2f}s"


def test_transfer_report_shape(s4):
    payoffs = [RandomVariable([1, 3, 2, 6])]
    rep = transfer_verify(neg_cond_expectation(s4), [1, 7], payoffs)
    d = rep.to_dict()
    assert set(d) == {"measure", "items", "all_equivalences_hold"}
    assert set(d["items"]) == {"1", "7"}
    assert set(d["items"]["1"]) == {"name", "conditional", "per_atom", "equivalence"}
    assert d["items"]["7"]["qualifier"] == "at probe resolution"


def test_a_batch_that_rounds_a_row_by_its_place_passes_the_padding_check():
    # user_entropic's batch is one matrix-vector product over its rows, so a
    # row's last bit may depend on its place in the batch; each filled probe
    # row is evaluated in the place its probe holds alone, so a stack of two
    # 5-atom blocks is not refused for that rounding
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.2, 2.0, 10)
        space = FiniteProbSpace(p / p.sum(), [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        report = transfer_verify(user_entropic(space, 1.3), [3], [RandomVariable(rng.normal(0.0, 1.0, 10))])
        assert report.all_equivalences_hold
