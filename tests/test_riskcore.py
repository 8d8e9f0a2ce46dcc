import math

import numpy as np
import pytest

from condrisk import (
    AXIOMS,
    CondRiskMeasure,
    ConditionalValue,
    EventuallyConstantSeq,
    RandomVariable,
    ShrinkingPerturbationSeq,
    check_all_axioms,
    check_axiom,
    check_convergence_property,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    neg_cond_expectation,
)
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
        cut = RandomVariable(x.values * s4.sample_mask(a2.atom(1)))
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
    assert scalarize(m, 20, certify=True).space is space.block_space(20)


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


def test_unknown_axiom(s4):
    with pytest.raises(ValueError):
        check_axiom(neg_cond_expectation(s4), "coherence", trials=1)
    with pytest.raises(ValueError):
        check_axiom(neg_cond_expectation(s4), "convexity", trials=0)


def test_avar_lambda_one_is_neg_expectation(s4, space8):
    rng = np.random.default_rng(11)
    for space in (s4, space8):
        av = cond_avar(space, 1.0)
        ne = neg_cond_expectation(space)
        for _ in range(30):
            x = RandomVariable(rng.normal(0, 3, space.n_atoms))
            assert np.array_equal(av.evaluate(x).values, ne.evaluate(x).values)


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


def test_constant_sequence_exact(s4):
    x = RandomVariable([1, 3, 2, 6])
    dom = RandomVariable(np.abs(x.values) + 1)
    seq = EventuallyConstantSeq((x, x, x), x, dom)
    rep = check_convergence_property(cond_entropic(s4, 1.0), "lebesgue", seq)
    assert rep.passed and rep.exact and rep.max_deviation == 0.0


def test_eventually_constant_fatou(s4):
    x = RandomVariable([1, 3, 2, 6])
    dom = RandomVariable(np.abs(x.values) + 2)
    seq = EventuallyConstantSeq((x + 1, x + 1, x + 1, x + 1), x, dom)  # switches at n=5
    rep = check_convergence_property(neg_cond_expectation(s4), "fatou", seq)
    assert rep.passed and rep.exact


def test_worst_case_perturbation_rate(s4):
    x = RandomVariable([1, 3, 2, 6])
    d = RandomVariable([1, 0, 0, 0])
    seq = ShrinkingPerturbationSeq(x, d, 10_000, RandomVariable(np.abs(x.values) + 1))
    rep = check_convergence_property(cond_worst_case(s4), "lebesgue", seq, tol=2e-4)
    assert rep.passed
    assert rep.max_deviation <= 2e-4
    assert rep.observed_order == pytest.approx(1.0, abs=0.2)


def test_fatou_perturbation(s4):
    x = RandomVariable([0, 1, -1, 2])
    seq = ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), 4096)
    for m in (cond_entropic(s4, 1.0), cond_avar(s4, 0.5)):
        assert check_convergence_property(m, "fatou", seq, tol=1e-3).passed


def test_undominated_sequence_rejected(s4):
    x = RandomVariable([1, 3, 2, 6])
    small = RandomVariable([0.1] * 4)
    with pytest.raises(UndominatedSequenceError):
        check_convergence_property(
            neg_cond_expectation(s4),
            "fatou",
            EventuallyConstantSeq((x,), x, small),
        )
    with pytest.raises(UndominatedSequenceError):
        check_convergence_property(
            neg_cond_expectation(s4),
            "lebesgue",
            ShrinkingPerturbationSeq(x, RandomVariable([1, 1, 1, 1]), 100, small),
        )


def test_bad_property_name(s4):
    x = RandomVariable([1, 3, 2, 6])
    seq = EventuallyConstantSeq((x,), x, RandomVariable([9] * 4))
    with pytest.raises(ValueError):
        check_convergence_property(neg_cond_expectation(s4), "dominated", seq)
