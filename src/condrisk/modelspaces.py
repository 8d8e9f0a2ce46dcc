"""Model-space gauges: Lp and Orlicz style block norms, Young conjugation.

Young functions are represented by an evaluator plus a sample grid.  The
conjugate is computed variationally (range doubling, then Brent's bounded
search for the maximum); closed forms exist only case by case, so none are
assumed.  A Luxemburg gauge is the root of a decreasing function of the
scale, bracketed by doubling and halving and then shrunk by the Illinois
regula falsi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable

# the golden-section step of Brent's search, as a share of the longer side
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)

LUXEMBURG_TOL = 1e-10
# values a Young function keeps memoised; the memo is cleared when it is full
YOUNG_MEMO_CAP = 1 << 16
# slack of the blockwise pairing inequality in ``inequality_check``
PAIRING_TOL = 1e-9
# a chord slope of a Young function has stopped growing once it gains at
# most this share of itself over a doubling
SLOPE_SETTLED = 1e-9
# the supremum of a conjugate still climbs while a doubling gains more than this
CLIMB_TOL = 1e-11


class YoungFunctionError(CondriskError):
    """The evaluator fails one of the defining properties on the grid."""


class ConjugacyError(CondriskError):
    """A pair of specs passed to the pairing inequality is not conjugate."""


def _safe_eval(fn: Callable[[float], float], t: float) -> float:
    try:
        v = fn(t)
    except OverflowError:
        return math.inf
    if math.isnan(v):
        raise YoungFunctionError(f"evaluator returned NaN at {t!r}")
    return float(v)


class YoungFunction:
    """Convex increasing function on [0, inf) with value 0 at 0, possibly +inf.

    The defining properties are checked on ``sample_grid`` at construction;
    ``finite_valued`` is inferred by probing beyond the grid when not given.
    """

    def __init__(
        self,
        evaluator: Callable[[float], float],
        sample_grid: Sequence[float],
        *,
        finite_valued: Optional[bool] = None,
        name: str = "",
    ):
        grid = np.asarray(sample_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise YoungFunctionError("sample_grid needs at least three points")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise YoungFunctionError("sample_grid must be increasing and positive")
        self._fn = evaluator
        self.sample_grid = grid
        self.name = name
        self._memo: dict = {}

        if _safe_eval(evaluator, 0.0) != 0.0:
            raise YoungFunctionError("a Young function must vanish at 0")
        vals = np.array([self(t) for t in grid])
        if math.isinf(vals[0]):
            raise YoungFunctionError("must be finite on a neighborhood of 0")
        finite = np.isfinite(vals)
        # nondecreasing, with a little slack for numerically defined evaluators
        if np.any(np.diff(np.where(finite, vals, np.inf)[finite]) < -1e-9):
            raise YoungFunctionError("evaluator is decreasing on the grid")
        if np.any(finite[:-1] < finite[1:]):
            raise YoungFunctionError("evaluator returns to finite values after +inf")
        # chordal convexity on consecutive finite triples
        for a, b, c, fa, fb, fc in zip(
            grid[:-2], grid[1:-1], grid[2:], vals[:-2], vals[1:-1], vals[2:]
        ):
            if not (math.isfinite(fa) and math.isfinite(fc)):
                continue
            chord = fa + (fc - fa) * (b - a) / (c - a)
            if fb > chord + 1e-9 * max(1.0, abs(chord)):
                raise YoungFunctionError(f"midpoint convexity fails near t={b:g}")

        if finite_valued is None:
            finite_valued = bool(finite.all()) and math.isfinite(self(4.0 * grid[-1]))
        self.finite_valued = bool(finite_valued)

    def __call__(self, t: float) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("Young functions are defined on [0, inf)")
        v = self._memo.get(t)
        if v is None:
            v = _safe_eval(self._fn, t)
            if len(self._memo) >= YOUNG_MEMO_CAP:
                self._memo.clear()
            self._memo[t] = v
        return v

    def finite_domain_bound(self) -> float:
        """Supremum of the finite domain, +inf when finite everywhere.

        Located by bisection between the last finite and first infinite grid
        point (probing past the grid first).
        """
        hi_probe = 4.0 * self.sample_grid[-1]
        if self.finite_valued or math.isfinite(self(hi_probe)):
            return math.inf
        lo = 0.0
        for t in self.sample_grid:
            if math.isfinite(self(t)):
                lo = t
            else:
                break
        hi = next((t for t in self.sample_grid if not math.isfinite(self(t))), hi_probe)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if math.isfinite(self(mid)):
                lo = mid
            else:
                hi = mid
        return lo

    def __repr__(self):
        label = self.name or "custom"
        return f"YoungFunction({label}, finite_valued={self.finite_valued})"


def young_power(p: float) -> YoungFunction:
    """The power Young function t^p / p for p > 1 (t for p = 1)."""
    if not p >= 1:
        raise ValueError("power Young functions need p >= 1")
    grid = np.geomspace(1e-3, 20.0, 64)
    if p == 1:
        return YoungFunction(lambda t: t, grid, finite_valued=True, name="t")
    return YoungFunction(lambda t: t**p / p, grid, finite_valued=True, name=f"t^{p:g}/{p:g}")


def _brent_max(g: Callable[[float], float], lo: float, hi: float):
    """Maximum of a unimodal function on [lo, hi]; returns (argmax, value).

    Brent's bounded search (Algorithms for Minimization without Derivatives,
    1973): parabolic steps through the three best points, golden sections
    where a parabola would not shrink the bracket.  It stops when the
    bracket around the best point is within float resolution of it, sqrt(eps)
    relative (a smooth maximum's value no longer moves in float) plus eps of
    [lo, hi].  Both endpoints are compared at the end, so a maximum at an end
    of [lo, hi] is exact.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = -g(x)
    d = e = 0.0
    floor = _EPS * (hi - lo)
    while True:
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + floor
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol:
            # the vertex x + p / q of the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # taken only inside the bracket and shorter than half the step
            # before last, so the steps shrink
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x < mid else -tol
        if not parabolic:
            e = (b if x < mid else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -g(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    pts = [(lo, g(lo)), (x, -fx), (hi, g(hi))]
    return max(pts, key=lambda p: p[1])


def _conjugate_value(phi: YoungFunction, r: float) -> float:
    """sup_{s >= 0} (r s - phi(s)) for r >= 0, computed on the finite domain of phi."""
    if r == 0.0:
        return 0.0

    def g(s: float) -> float:
        v = phi(s)
        return -math.inf if math.isinf(v) else r * s - v

    bound = phi.finite_domain_bound()
    if math.isfinite(bound):
        _, val = _brent_max(g, 0.0, bound)
        return max(val, 0.0)

    # phi finite everywhere: expand until the chord slope of phi overtakes r.
    # +inf only once the supremum has climbed on three doublings in a row
    # while the chord slope stopped growing (phi has turned linear, with a
    # slope below r); a slope that still grows, as s^(p-1) does, may yet
    # overtake r
    s_hi = float(phi.sample_grid[-1])
    best = max(0.0, g(s_hi))
    streak = 0
    prev_slope = climbing = None
    for _ in range(90):
        slope = (phi(s_hi) - phi(0.5 * s_hi)) / (0.5 * s_hi)
        if not math.isfinite(slope) or slope > r:
            _, val = _brent_max(g, 0.0, s_hi)
            return max(val, 0.0)
        new_best = max(best, g(2.0 * s_hi))
        climbing = new_best > best + CLIMB_TOL
        settled = prev_slope is not None and slope <= prev_slope + SLOPE_SETTLED * abs(prev_slope)
        streak = streak + 1 if climbing and settled else 0
        if streak >= 3:
            return math.inf
        best, prev_slope = new_best, slope
        s_hi *= 2.0
        if not math.isfinite(s_hi):
            break
    # slope never overtook r: a value that stopped climbing is a flat
    # supremum, one still climbing is unbounded at every float scale
    return math.inf if climbing else max(best, 0.0)


def young_conjugate(phi: YoungFunction, r_grid: Optional[Sequence[float]] = None) -> YoungFunction:
    """Conjugate Young function psi(r) = sup_s (r s - phi(s))."""
    if r_grid is None:
        r_grid = np.geomspace(1e-3, 20.0, 64)
    name = f"conj({phi.name})" if phi.name else "conj"
    return YoungFunction(lambda r: _conjugate_value(phi, r), r_grid, name=name)


def holder_conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1; the pairs (1, inf) by convention."""
    p = float(p)
    if not p >= 1:
        raise ValueError("Holder exponents live in [1, inf]")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ModuleSpec:
    """Which module gauge to use: Lp or Orlicz."""

    kind: str
    p: Optional[float] = None
    phi: Optional[YoungFunction] = None

    def __post_init__(self):
        if self.kind == "lp":
            if self.p is None or not self.p >= 1:
                raise ValueError("Lp modules need p in [1, inf]")
        elif self.kind == "orlicz":
            if self.phi is None:
                raise ValueError("orlicz modules need a Young function")
        else:
            raise ValueError(f"unknown module kind {self.kind!r}")

    @classmethod
    def lp(cls, p: float) -> "ModuleSpec":
        return cls("lp", p=float(p))

    @classmethod
    def orlicz(cls, phi: YoungFunction) -> "ModuleSpec":
        return cls("orlicz", phi=phi)


def _luxemburg_block(phi: YoungFunction, q: np.ndarray, absvals: np.ndarray) -> float:
    """inf{lam > 0 : E[phi(|x|/lam)] <= 1} on one block.

    h(lam) = E[phi(|x|/lam)] decreases in lam.  A bracket h(hi) <= 1 < h(lo)
    is found by doubling and halving from max |x|, then shrunk by the
    Illinois regula falsi (Dowell and Jarratt, BIT 1971) on log h against
    log lam, a straight line for a power Young function, until
    hi - lo <= LUXEMBURG_TOL or no float lies between them; hi is returned.
    Each step lands at least LUXEMBURG_TOL / 2 inside the bracket, and a
    bracket end where log h is not finite takes the midpoint instead.
    """
    top = float(absvals.max())
    if top == 0.0:
        return 0.0

    def h(lam: float) -> float:
        total = 0.0
        for w, v in zip(q, absvals):
            val = phi(v / lam)
            if math.isinf(val):
                return math.inf
            total += w * val
        return total

    hi = top
    for _ in range(200):
        h_hi = h(hi)
        if h_hi <= 1.0:
            break
        hi *= 2.0
    lo = hi
    for _ in range(200):
        lo *= 0.5
        h_lo = h(lo)
        if h_lo > 1.0:
            break
        if lo < 1e-300:
            return 0.0
        hi, h_hi = lo, h_lo

    def log(v: float) -> float:
        return math.log(v) if 0.0 < v < math.inf else math.nan

    f_lo, f_hi = log(h_lo), log(h_hi)
    side = 0  # the end the last step moved: -1 lo, +1 hi
    half = 0.5 * LUXEMBURG_TOL
    while hi - lo > LUXEMBURG_TOL:
        mid = 0.5 * (lo + hi)
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            u_lo, u_hi = math.log(lo), math.log(hi)
            cut = math.exp(u_hi - f_hi * (u_hi - u_lo) / (f_hi - f_lo))
            cut = min(max(cut, lo + half), hi - half)
            if lo < cut < hi:
                mid = cut
        if not lo < mid < hi:
            break
        h_mid = h(mid)
        if h_mid <= 1.0:
            hi, f_hi = mid, log(h_mid)
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = mid, log(h_mid)
            if side == -1:
                f_hi *= 0.5
            side = -1
    return hi


def module_gauge(spec: ModuleSpec, x: RandomVariable, space: FiniteProbSpace) -> ConditionalValue:
    """Blockwise module norm: conditional Lp norm or Luxemburg gauge."""
    absx = np.abs(space._check_rv(x))
    if spec.kind == "lp":
        if math.isinf(spec.p):
            return ConditionalValue(space.block_max(absx))
        return ConditionalValue(space.block_mean(absx**spec.p) ** (1.0 / spec.p))
    return ConditionalValue(
        [
            _luxemburg_block(spec.phi, space.cond_probs(j), absx[space.block_index_array(j)])
            for j in range(1, space.n_blocks + 1)
        ]
    )


@dataclass
class PairingReport:
    """Outcome of the blockwise pairing inequality check."""

    lhs: np.ndarray
    rhs: np.ndarray
    constant: float
    holds: bool
    pointwise_young_holds: bool


def _assert_conjugate_pair(first: ModuleSpec, second: ModuleSpec) -> None:
    if first.kind == "lp" and second.kind == "lp":
        q = holder_conjugate(first.p)
        ok = (
            abs(second.p - q) <= 1e-9
            if math.isfinite(q) and math.isfinite(second.p)
            else math.isinf(second.p) == math.isinf(q)
        )
        if not ok:
            raise ConjugacyError(f"L{first.p:g} and L{second.p:g} are not Holder conjugate")
        return
    if first.kind != "lp" and second.kind != "lp":
        for t in np.geomspace(0.05, 4.0, 9):
            a, b = _conjugate_value(first.phi, t), second.phi(t)
            both_inf = math.isinf(a) and math.isinf(b)
            if not both_inf and abs(a - b) > 1e-5 * max(1.0, abs(a)):
                raise ConjugacyError(
                    f"Young functions are not conjugate (mismatch {a:g} vs {b:g} at t={t:g})"
                )
        return
    raise ConjugacyError("pairing check needs two Lp specs or two Orlicz specs")


def inequality_check(
    x: RandomVariable,
    y: RandomVariable,
    spec_pair: Sequence[ModuleSpec],
    space: FiniteProbSpace,
) -> PairingReport:
    """Blockwise Holder/Young pairing inequality E[|xy| | F] <= C g(x) g(y).

    C = 1 for conjugate Lp pairs, C = 2 for conjugate Orlicz pairs (the
    standard Luxemburg-norm constant).  Also spot-checks the pointwise
    inequality s t <= phi(s) + psi(t) on the sample grids.
    """
    first, second = spec_pair
    _assert_conjugate_pair(first, second)
    constant = 1.0 if first.kind == "lp" else 2.0

    lhs = space.cond_expect(abs(x * y)).values
    gx = module_gauge(first, x, space).values
    gy = module_gauge(second, y, space).values
    rhs = constant * gx * gy
    holds = bool(np.all(lhs <= rhs + PAIRING_TOL))

    worst = 0.0
    if first.kind != "lp":
        phi, psi = first.phi, second.phi
        for s in phi.sample_grid[:: max(1, len(phi.sample_grid) // 12)]:
            for t in psi.sample_grid[:: max(1, len(psi.sample_grid) // 12)]:
                bound = phi(s) + psi(t)
                if math.isfinite(bound):
                    worst = max(worst, s * t - bound)
    young_ok = worst <= 1e-7
    return PairingReport(
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        holds=holds and young_ok,
        pointwise_young_holds=young_ok,
    )
