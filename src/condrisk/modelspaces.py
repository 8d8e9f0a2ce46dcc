"""Model-space gauges: Lp and Orlicz style block norms, Young conjugation.

Young functions are represented by an evaluator plus a sample grid.  The
conjugate is computed variationally (grid scan, range doubling, golden-section
polish); closed forms exist only case by case, so none are assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

LUXEMBURG_TOL = 1e-10
# slack of the blockwise pairing inequality in ``inequality_check``
PAIRING_TOL = 1e-9


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
    if p < 1:
        raise ValueError("power Young functions need p >= 1")
    grid = np.geomspace(1e-3, 20.0, 64)
    if p == 1:
        return YoungFunction(lambda t: t, grid, finite_valued=True, name="t")
    return YoungFunction(lambda t: t**p / p, grid, finite_valued=True, name=f"t^{p:g}/{p:g}")


def _golden_max(g: Callable[[float], float], lo: float, hi: float, iters: int = 80):
    """Maximum of a unimodal function on [lo, hi]; returns (argmax, value)."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = g(x1)
    pts = [(lo, g(lo)), (x1, f1), (x2, f2), (hi, g(hi))]
    return max(pts, key=lambda p: p[1])


def _conjugate_value(phi: YoungFunction, r: float, *, tol: float = 1e-11) -> float:
    """sup_{s >= 0} (r s - phi(s)), computed on the finite domain of phi."""
    if r < 0:
        raise ValueError("the conjugate is evaluated on [0, inf)")
    if r == 0.0:
        return 0.0

    def g(s: float) -> float:
        v = phi(s)
        return -math.inf if math.isinf(v) else r * s - v

    bound = phi.finite_domain_bound()
    if math.isfinite(bound):
        _, val = _golden_max(g, 0.0, bound)
        return max(val, 0.0)

    # phi finite everywhere: expand until the slope of phi overtakes r,
    # declaring +inf when the supremum keeps climbing with stabilized slope
    s_hi = float(phi.sample_grid[-1])
    best = max(0.0, g(s_hi))
    streak = 0
    for _ in range(90):
        slope = (phi(s_hi) - phi(0.5 * s_hi)) / (0.5 * s_hi)
        if not math.isfinite(slope) or slope > r:
            _, val = _golden_max(g, 0.0, s_hi)
            return max(val, 0.0)
        new_best = max(best, g(2.0 * s_hi))
        streak = streak + 1 if new_best > best + tol else 0
        if streak >= 3:
            return math.inf
        best = new_best
        s_hi *= 2.0
        if not math.isfinite(s_hi):
            break
    # slope never overtook r and the value stopped climbing: flat supremum
    return max(best, 0.0) if streak == 0 else math.inf


def young_conjugate(phi: YoungFunction, r_grid: Optional[Sequence[float]] = None) -> YoungFunction:
    """Conjugate Young function psi(r) = sup_s (r s - phi(s))."""
    if r_grid is None:
        r_grid = np.geomspace(1e-3, 20.0, 64)
    name = f"conj({phi.name})" if phi.name else "conj"
    return YoungFunction(lambda r: _conjugate_value(phi, r), r_grid, name=name)


def holder_conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1; the pairs (1, inf) by convention."""
    p = float(p)
    if p < 1:
        raise ValueError("Holder exponents live in [1, inf]")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ModuleSpec:
    """Which module gauge to use: Lp, Orlicz, or Orlicz heart."""

    kind: str
    p: Optional[float] = None
    phi: Optional[YoungFunction] = None

    def __post_init__(self):
        if self.kind == "lp":
            if self.p is None or self.p < 1:
                raise ValueError("Lp modules need p in [1, inf]")
        elif self.kind in ("orlicz", "orlicz_heart"):
            if self.phi is None:
                raise ValueError(f"{self.kind} modules need a Young function")
            if self.kind == "orlicz_heart" and not self.phi.finite_valued:
                raise ValueError("Orlicz-heart modules need a finite-valued Young function")
        else:
            raise ValueError(f"unknown module kind {self.kind!r}")

    @classmethod
    def lp(cls, p: float) -> "ModuleSpec":
        return cls("lp", p=float(p))

    @classmethod
    def orlicz(cls, phi: YoungFunction) -> "ModuleSpec":
        return cls("orlicz", phi=phi)

    @classmethod
    def orlicz_heart(cls, phi: YoungFunction) -> "ModuleSpec":
        return cls("orlicz_heart", phi=phi)


def _luxemburg_block(phi: YoungFunction, q: np.ndarray, absvals: np.ndarray) -> float:
    """inf{lam > 0 : E[phi(|x|/lam)] <= 1} on one block, by bisection."""
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

    hi = top if top > 0 else 1.0
    for _ in range(200):
        if h(hi) <= 1.0:
            break
        hi *= 2.0
    lo = hi
    for _ in range(200):
        lo *= 0.5
        if h(lo) > 1.0:
            break
        if lo < 1e-300:
            return 0.0
    while hi - lo > LUXEMBURG_TOL:
        mid = 0.5 * (lo + hi)
        if h(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
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
    pointwise_young_checked: int = 0
    pointwise_young_holds: bool = True
    max_pointwise_violation: float = 0.0


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
        psi = young_conjugate(first.phi)
        for t in np.geomspace(0.05, 4.0, 9):
            a, b = psi(t), second.phi(t)
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

    checked = 0
    worst = 0.0
    if first.kind != "lp":
        phi, psi = first.phi, second.phi
        for s in phi.sample_grid[:: max(1, len(phi.sample_grid) // 12)]:
            for t in psi.sample_grid[:: max(1, len(psi.sample_grid) // 12)]:
                bound = phi(s) + psi(t)
                if math.isfinite(bound):
                    worst = max(worst, s * t - bound)
                checked += 1
    young_ok = worst <= 1e-7
    return PairingReport(
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        holds=holds and young_ok,
        pointwise_young_checked=checked,
        pointwise_young_holds=young_ok,
        max_pointwise_violation=worst,
    )
