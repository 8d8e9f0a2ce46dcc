import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import spy_calls
from condrisk import (
    ModuleSpec,
    RandomVariable,
    YoungFunction,
    holder_conjugate,
    inequality_check,
    module_gauge,
    young_conjugate,
    young_power,
)
from condrisk import FiniteProbSpace, modelspaces
from condrisk.boolalg import MEMO_CAP, mask_array
from condrisk.modelspaces import LUXEMBURG_TOL, ConjugacyError, YoungFunctionError


def indicator_young():
    return YoungFunction(
        lambda t: 0.0 if t <= 1.0 else math.inf,
        np.geomspace(0.01, 4.0, 48),
        name="cutoff",
    )


def test_conjugate_of_linear():
    psi = young_conjugate(young_power(1))
    for r in (0.0, 0.3, 0.9, 1.0):
        assert psi(r) == pytest.approx(0.0, abs=1e-9)
    for r in (1.01, 2.0, 7.5):
        assert math.isinf(psi(r))
    assert not psi.finite_valued


def test_conjugate_of_linear_on_a_grid_near_the_float_limit():
    # the doubling from the grid's last point overflows before its 90 steps
    # are out: at r = 1 the chord slope never overtakes r and the supremum
    # never climbs
    psi = young_conjugate(YoungFunction(lambda t: t, np.append(np.geomspace(1e-3, 20.0, 63), 1e300)))
    for r in (0.0, 0.3, 0.9, 1.0):
        assert psi(r) == 0.0
    for r in (1.01, 2.0, 7.5):
        assert math.isinf(psi(r))


def test_convexity_check_on_a_grid_near_the_float_limit():
    # a chord's rise times its run passes the largest float on this grid;
    # phi = t is convex, and a slope that drops from 1 to 1/2 at 1e200 is not
    grid = np.geomspace(1e-3, 1e300, 64)
    assert YoungFunction(lambda t: t, grid).finite_valued
    with pytest.raises(YoungFunctionError, match="convexity fails"):
        YoungFunction(lambda t: t if t <= 1e200 else 1e200 + (t - 1e200) / 2.0, grid)


def test_conjugate_of_square():
    psi = young_conjugate(young_power(2))
    for r in np.linspace(0.0, 10.0, 41):
        assert psi(r) == pytest.approx(r * r / 2.0, abs=1e-6)
    assert psi.finite_valued


def test_conjugate_of_cutoff():
    psi = young_conjugate(indicator_young())
    for r in (0.0, 0.4, 1.0, 3.0, 8.0):
        assert psi(r) == pytest.approx(r, abs=1e-9)


def test_double_conjugate_recovers_square():
    phi = young_power(2)
    psi = young_conjugate(phi)
    phi2 = young_conjugate(psi, r_grid=np.geomspace(1e-3, 12.0, 48))
    worst = max(abs(phi2(t) - phi(t)) for t in np.linspace(0.0, 10.0, 101))
    assert worst <= 2e-6


def test_double_conjugate_recovers_linear_and_cutoff():
    lin = young_power(1)
    back = young_conjugate(young_conjugate(lin), r_grid=np.geomspace(1e-3, 30, 40))
    assert max(abs(back(t) - t) for t in np.linspace(0.0, 15.0, 31)) <= 1e-9

    cut = indicator_young()
    back = young_conjugate(young_conjugate(cut), r_grid=np.geomspace(0.01, 4.0, 40))
    assert max(abs(back(t)) for t in np.linspace(0.0, 0.98, 20)) <= 1e-9
    assert math.isinf(back(3.0))


def test_young_validation():
    grid = np.geomspace(0.01, 5.0, 32)
    with pytest.raises(YoungFunctionError):
        YoungFunction(lambda t: t + 1.0, grid)  # phi(0) != 0
    with pytest.raises(YoungFunctionError):
        YoungFunction(lambda t: -t, grid)  # decreasing
    with pytest.raises(YoungFunctionError):
        YoungFunction(lambda t: math.sqrt(t), grid)  # concave
    with pytest.raises(YoungFunctionError):
        YoungFunction(lambda t: math.inf if t > 0 else 0.0, grid)  # not finite near 0


@pytest.mark.parametrize(
    "evaluator, grid, message",
    [
        (lambda t: t * t, [0.1, 0.2], "at least three points"),
        (lambda t: t * t, [0.1, 0.3, 0.2], "increasing and positive"),
        (lambda t: t * t, [0.0, 0.1, 0.2], "increasing and positive"),
        (lambda t: t * t / 2, [0.1, 0.5, math.inf], "sample_grid must be finite"),
        (lambda t: t * t / 2, [0.1, math.nan, 0.5], "sample_grid must be finite"),
        (lambda t: t * t if t < 3.0 else math.nan, np.geomspace(0.01, 5.0, 32), "evaluator returned NaN"),
        (lambda t: math.inf if 1.0 < t < 2.0 else t * t, np.geomspace(0.01, 5.0, 32), "after \\+inf"),
    ],
    ids=["short", "unsorted", "zero", "inf_point", "nan_point", "nan_value", "finite_after_inf"],
)
def test_young_refusals_name_their_rule(evaluator, grid, message):
    with pytest.raises(YoungFunctionError, match=message):
        YoungFunction(evaluator, grid)


def test_conjugate_refuses_a_non_finite_r_grid():
    # a point at +inf had made the conjugate a cutoff at 0.5: 1.375 at 3, not 4.5
    with pytest.raises(YoungFunctionError, match="sample_grid must be finite"):
        young_conjugate(young_power(2), r_grid=[0.1, 0.5, math.inf])


def test_young_arguments_outside_the_domain_are_refused():
    phi = YoungFunction(lambda t: t * t / 2 if t <= 10.0 else math.inf, np.geomspace(0.01, 5.0, 32))
    for t in (-1.0, -1e-300, math.nan, -math.inf):
        with pytest.raises(ValueError, match="defined on \\[0, inf\\)"):
            phi(t)
    assert phi(0.0) == 0.0 and phi(2.0) == 2.0 and math.isinf(phi(11.0))


def test_an_overflowing_evaluator_reads_infinite():
    phi = YoungFunction(lambda t: math.exp(t) - 1.0, np.geomspace(0.01, 5.0, 32))
    assert phi.finite_valued and phi(1.0) == pytest.approx(math.e - 1.0)
    assert phi(1e3) == math.inf  # math.exp raises OverflowError there


def test_young_reprs():
    assert repr(young_power(2)) == "YoungFunction(t^2/2, finite_valued=True)"
    assert repr(indicator_young()) == "YoungFunction(cutoff, finite_valued=False)"
    unnamed = YoungFunction(lambda t: t * t, np.geomspace(0.01, 5.0, 32))
    assert repr(unnamed) == "YoungFunction(custom, finite_valued=True)"


def test_holder_conjugate():
    assert holder_conjugate(2) == 2
    assert math.isinf(holder_conjugate(1))
    assert holder_conjugate(4) == pytest.approx(4.0 / 3.0)
    assert holder_conjugate(math.inf) == 1.0
    with pytest.raises(ValueError):
        holder_conjugate(0.5)


@pytest.mark.parametrize("p", [0.5, math.nan])
@pytest.mark.parametrize(
    "make, message",
    [
        (holder_conjugate, r"Holder exponents live in \[1, inf\]"),
        (ModuleSpec.lp, r"Lp modules need p in \[1, inf\]"),
        (young_power, r"power Young functions need p >= 1"),
    ],
)
def test_exponents_below_one_are_refused_by_name(make, message, p):
    # NaN compares false both ways, so it takes the same refusal
    with pytest.raises(ValueError, match=message):
        make(p)


def test_module_gauge_examples(s4):
    ones = RandomVariable([1, 1, 1, 1])
    assert np.allclose(module_gauge(ModuleSpec.lp(2), ones, s4).values, [1, 1])
    x = RandomVariable([1, 3, 2, 6])
    assert np.array_equal(module_gauge(ModuleSpec.lp(math.inf), x, s4).values, [3, 6])
    g = module_gauge(ModuleSpec.orlicz(young_power(2)), RandomVariable([2, 2, 2, 2]), s4)
    assert np.allclose(g.values, math.sqrt(2), atol=1e-9)


def test_gauge_of_a_young_function_at_most_one_far_below_max_x():
    # h(lam) <= 1 down to lam = 2^-200 max|x| and past it: the halving goes
    # on until a bracket is found or lam is below 1e-300
    space = FiniteProbSpace([0.5, 0.5], [[1], [2]])
    x = RandomVariable([1.0, 2.0])
    zero = YoungFunction(lambda t: 0.0, np.geomspace(1e-3, 20.0, 16))
    assert np.array_equal(module_gauge(ModuleSpec.orlicz(zero), x, space).values, [0.0, 0.0])
    # a finite domain: h is +inf once |x| / lam leaves it, and the gauge is max|x|
    g = module_gauge(ModuleSpec.orlicz(indicator_young()), x, space).values
    assert np.all(np.abs(g - [1.0, 2.0]) <= LUXEMBURG_TOL)


@pytest.mark.parametrize("scale", [1e50, 1e100, 1e200])
def test_gauge_far_above_max_x_doubles_until_a_bracket(scale):
    # h(lam) > 1 out to lam = 2^200 max|x| and past it: the doubling goes on
    # until h(hi) <= 1, and the gauge of phi(t) = scale * t is scale * |x|
    space = FiniteProbSpace([0.5, 0.5], [[1], [2]])
    phi = YoungFunction(lambda t: scale * t, np.geomspace(1e-3, 20.0, 64))
    g = module_gauge(ModuleSpec.orlicz(phi), RandomVariable([1.0, 2.0]), space).values
    assert np.allclose(g, [scale, 2.0 * scale], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "fn, top",
    [(lambda t: 2.0 * t, 1e308), (lambda t: math.exp(t) - 1.0, 1e308), (lambda t: 1e100 * t, 1e250)],
    ids=["2t", "exp", "1e100t"],
)
def test_gauge_past_the_largest_float_is_inf(monkeypatch, fn, top):
    # h(lam) > 1 until the doubling of lam overflows: the gauge passes the
    # largest float.  Halving from lam = inf never shrinks it, so the phi
    # reads are capped here to fail rather than hang
    phi = YoungFunction(fn, np.geomspace(1e-3, 20.0, 64))
    real = YoungFunction.__call__
    reads = []

    def capped(self, t):
        reads.append(t)
        assert len(reads) <= 5000, "the bracket search did not stop"
        return real(self, t)

    monkeypatch.setattr(YoungFunction, "__call__", capped)
    space = FiniteProbSpace([1.0], [[1]])
    g = module_gauge(ModuleSpec.orlicz(phi), RandomVariable([top]), space).values
    assert np.array_equal(g, [math.inf])


@pytest.mark.parametrize("kind, phi", [("orlicz", 3.0), ("orlicz", None), ("orlicz", math.exp), ("lq", None)])
def test_module_specs_refuse_a_kind_or_phi_by_name(kind, phi):
    message = "orlicz modules need a Young function" if kind == "orlicz" else "unknown module kind 'lq'"
    with pytest.raises(ValueError, match=message):
        ModuleSpec(kind, phi=phi)
    if kind == "orlicz":
        with pytest.raises(ValueError, match=message):
            ModuleSpec.orlicz(phi)


def test_gauge_finite_for_all_specs(s4):
    rng = np.random.default_rng(8)
    specs = [
        ModuleSpec.lp(1),
        ModuleSpec.lp(2),
        ModuleSpec.lp(math.inf),
        ModuleSpec.orlicz(young_power(2)),
        ModuleSpec.orlicz(young_power(3)),
    ]
    for _ in range(10):
        x = RandomVariable(rng.normal(0, 3, 4))
        for spec in specs:
            assert np.all(np.isfinite(module_gauge(spec, x, s4).values))


def test_gauge_locality(s4, a2):
    rng = np.random.default_rng(9)
    x = RandomVariable(rng.normal(0, 2, 4))
    cut = RandomVariable(x.values * s4.broadcast(mask_array(a2.atom(1).mask, 2)))
    full = module_gauge(ModuleSpec.lp(2), x, s4).values
    masked = module_gauge(ModuleSpec.lp(2), cut, s4).values
    assert masked[0] == full[0] and masked[1] == 0.0


def test_inequality_check_examples(s4):
    ones = RandomVariable([1, 1, 1, 1])
    rep = inequality_check(ones, ones, (ModuleSpec.lp(2), ModuleSpec.lp(2)), s4)
    assert rep.holds and np.allclose(rep.lhs, rep.rhs)

    x = RandomVariable([1, 3, 2, 6])
    rep = inequality_check(x, ones, (ModuleSpec.lp(1), ModuleSpec.lp(math.inf)), s4)
    assert rep.holds
    assert np.array_equal(rep.lhs, [2, 4])
    assert np.allclose(rep.rhs, [2, 4])

    phi = young_power(2)
    rep = inequality_check(x, ones, (ModuleSpec.orlicz(phi), ModuleSpec.orlicz(young_conjugate(phi))), s4)
    assert rep.holds and rep.constant == 2.0
    assert rep.pointwise_young_holds
    # Young's inequality is tight at matched slopes: s = t = 1 for t^2/2
    assert 1.0 * 1.0 <= phi(1.0) + young_conjugate(phi)(1.0) + 1e-9


def test_inequality_check_rejects_nonconjugate(s4):
    ones = RandomVariable([1, 1, 1, 1])
    with pytest.raises(ConjugacyError):
        inequality_check(ones, ones, (ModuleSpec.lp(2), ModuleSpec.lp(3)), s4)
    with pytest.raises(ConjugacyError):
        inequality_check(ones, ones, (ModuleSpec.orlicz(young_power(2)), ModuleSpec.orlicz(young_power(3))), s4)
    for pair in ((ModuleSpec.lp(2), ModuleSpec.orlicz(young_power(2))), (ModuleSpec.orlicz(young_power(2)), ModuleSpec.lp(2))):
        with pytest.raises(ConjugacyError, match="two Lp specs or two Orlicz specs"):
            inequality_check(ones, ones, pair, s4)


def test_holder_seeded(s4):
    rng = np.random.default_rng(10)
    for p in (1.0, 2.0, 4.0):
        q = holder_conjugate(p)
        pair = (ModuleSpec.lp(p), ModuleSpec.lp(q))
        for _ in range(20):
            x = RandomVariable(rng.normal(0, 2, 4))
            y = RandomVariable(rng.normal(0, 2, 4))
            assert inequality_check(x, y, pair, s4).holds


def test_young_memo_stays_under_its_cap():
    # the gauge of a double conjugate over 1,536 atoms asks the base
    # function for more distinct values than its memo holds
    space = FiniteProbSpace(np.full(1536, 1 / 1536), np.arange(1, 1537).reshape(8, 192).tolist())
    phi = young_power(2)
    calls = []
    evaluator = phi._fn
    phi._fn = lambda t: calls.append(t) or evaluator(t)
    psi = young_conjugate(phi)
    phi2 = young_conjugate(psi)
    x = RandomVariable(np.random.default_rng(2024).normal(0.0, 2.0, space.n_atoms))
    module_gauge(ModuleSpec.orlicz(phi2), x, space)
    assert len(calls) > MEMO_CAP  # the cap was reached
    for f in (phi, psi, phi2):
        assert len(f._memo) <= MEMO_CAP


# -- work pins: evaluator calls, counted -----------------------------------------------


@pytest.mark.parametrize("r", [0.5, 3.0, 17.0])
def test_conjugate_value_of_square_takes_few_evaluations(monkeypatch, r):
    # a fixed 80-step golden section took 79 to 84 evaluations here
    phi = young_power(2)
    calls = spy_calls(monkeypatch, phi, "_fn")
    assert modelspaces._conjugate_value(phi, r) == pytest.approx(r * r / 2.0, abs=1e-12)
    assert len(calls) <= 25, len(calls)


def test_orlicz_gauge_of_a_conjugate_takes_few_evaluations(monkeypatch, space8):
    # each evaluation of psi is a search over phi: 88 evaluations of phi
    # here, where bisecting the gauge over golden sections for psi took 12,709
    phi = young_power(2)
    psi = young_conjugate(phi)
    calls = spy_calls(monkeypatch, phi, "_fn")
    x = RandomVariable(np.random.default_rng(2024).normal(0.0, 2.0, 8))
    g = module_gauge(ModuleSpec.orlicz(psi), x, space8).values
    # psi is t^2/2, so the gauge is sqrt(E[x^2 | block] / 2)
    want = np.sqrt(space8.cond_expect(RandomVariable(x.values**2)).values / 2.0)
    assert np.allclose(g, want, rtol=0, atol=1e-9)
    assert len(calls) <= 300, len(calls)


def test_orlicz_pairing_builds_no_young_function(monkeypatch, s4):
    # the conjugacy check reads the conjugate at its 9 points; it built a
    # whole conjugate Young function (64 grid points) only to compare them
    phi = young_power(2)
    pair = (ModuleSpec.orlicz(phi), ModuleSpec.orlicz(young_conjugate(phi)))
    built = spy_calls(monkeypatch, YoungFunction, "__init__")
    x, y = RandomVariable([1, 3, 2, 6]), RandomVariable([0.5, -1, 2, 1])
    assert inequality_check(x, y, pair, s4).holds
    assert built == []


def test_gauge_of_large_payoffs_terminates(s4):
    # at |x| near 1e7 adjacent floats are more than LUXEMBURG_TOL apart, and
    # halving a bracket of two of them never ends; the search stops there
    x = RandomVariable([1e7, 3e6, 2e7, 5e6])
    g = module_gauge(ModuleSpec.orlicz(young_power(2)), x, s4).values
    want = np.sqrt(s4.cond_expect(RandomVariable(x.values**2)).values / 2.0)
    assert np.allclose(g, want, rtol=1e-15, atol=0)


# -- accuracy of the searches against closed forms -------------------------------------


@pytest.mark.parametrize("p", [1.2, 1.25, 1.3, 1.5, 2.0, 3.0])
def test_conjugate_of_power_is_finite_while_the_slope_still_grows(p):
    # for p near 1 the chord slope of t^p/p grows slowly, and the sup climbs
    # on many doublings before the slope overtakes r: no +inf there.  For
    # p = 1.2 the range doubling gave +inf from r = 2.6 on (121.5 at r = 3)
    q = holder_conjugate(p)
    phi = young_power(p)
    for r in np.geomspace(0.1, 20.0, 40):
        want = r**q / q
        assert modelspaces._conjugate_value(phi, r) == pytest.approx(want, rel=1e-9, abs=0.0), r


def test_conjugate_of_power_near_one_at_moderate_r():
    assert young_conjugate(young_power(1.2))(3.0) == pytest.approx(121.5, rel=1e-9)
    assert young_conjugate(young_power(1.5))(12.0) == pytest.approx(576.0, rel=1e-9)


def test_conjugate_of_linear_stays_infinite_past_its_slope():
    # the chord slope of t is 1 on every doubling: settled, below r > 1
    phi = young_power(1)
    for r in (1.0 + 1e-7, 1.01, 2.0, 7.5, 20.0, 1e6):
        assert math.isinf(modelspaces._conjugate_value(phi, r)), r
    for r in (0.0, 0.5, 1.0):
        assert modelspaces._conjugate_value(phi, r) == 0.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(1.2, 4.0), st.floats(0.0, 20.0))
def test_conjugate_of_power_matches_its_closed_form(p, t):
    # (t^p/p)* = t^q/q with 1/p + 1/q = 1
    q = holder_conjugate(p)
    want = t**q / q
    assert young_conjugate(young_power(p))(t) == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.floats(1.0, 4.0),
    st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
    st.floats(1e-3, 1.0),
)
def test_orlicz_gauge_of_power_matches_its_closed_form(p, xs, scale):
    # E[(|x|/lam)^p / p | block] = 1 at lam = (E[|x|^p | block] / p)^(1/p)
    space = FiniteProbSpace(np.arange(1, 9) / 36, [[1, 2, 3], [4, 5, 6], [7, 8]])
    x = RandomVariable(np.array(xs) * scale)
    g = module_gauge(ModuleSpec.orlicz(young_power(p)), x, space).values
    want = (space.cond_expect(RandomVariable(np.abs(x.values) ** p)).values / p) ** (1.0 / p)
    assert np.all(np.abs(g - want) <= 3 * LUXEMBURG_TOL), (g, want)


def _bisected_gauge(phi, q, absvals):
    """inf{lam > 0 : E[phi(|x|/lam)] <= 1} by plain bisection on a wide bracket."""
    lo, hi = 1e-9, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(w * phi(v / mid) for w, v in zip(q, absvals)) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_luxemburg_gauge_doubles_its_bracket_and_halves_a_stale_end(s4):
    grid = np.geomspace(0.01, 4.0, 48)
    x = RandomVariable([1.0, 1.0, 0.5, 2.0])
    # E[(2|x|/max|x|)^2] > 1 on every block, so the bracket doubles up from max |x|
    square = module_gauge(ModuleSpec.orlicz(YoungFunction(lambda t: 4.0 * t * t, grid)), x, s4).values
    want = 2.0 * np.sqrt(s4.cond_expect(RandomVariable(x.values**2)).values)
    assert np.all(np.abs(square - want) <= LUXEMBURG_TOL), (square, want)
    # here the regula falsi lands on the side h <= 1 twice in a row, and the
    # Illinois step halves the value at the other end
    phi = YoungFunction(lambda t: math.cosh(t) - 1.0, grid)
    gauge = module_gauge(ModuleSpec.orlicz(phi), x, s4).values
    for j in (1, 2):
        at = s4.block_index_array(j)
        ref = _bisected_gauge(phi, s4.cond_probs(j), np.abs(x.values[at]))
        assert abs(gauge[j - 1] - ref) <= LUXEMBURG_TOL, (j, gauge, ref)
