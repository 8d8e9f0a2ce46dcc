"""Module Fenchel transform, dual representation, and stable-set diagnostics.

Everything factorizes over the conditioning blocks: the penalty and the dual
search run independently per block, and the per-block problems are ordinary
finite-dimensional convex duality under the conditional probabilities.
Penalties are the only producers of +inf; an indeterminate inf - inf raises
instead of propagating NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .boolalg import PartitionOfUnity, mask_array
from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable
from .riskcore import ADMISSIBLE_TOL, CondRiskMeasure, _row_batches


class DualityError(CondriskError):
    pass


class DualVariable:
    """Dual vector: one value <= 0 per sample atom; -y acts as a density."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a dual variable is a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dual variable entries must be finite")
        if np.any(arr > 0):
            raise ValueError("dual variable entries must be <= 0")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DualVariable is immutable")

    def __len__(self):
        return self.values.size

    def admissibility_gap(self, space: FiniteProbSpace) -> float:
        """max_j |E[y | block j] + 1|; zero means -y is a conditional density."""
        return float(np.max(np.abs(space.block_mean(self.values) + 1.0)))

    def is_admissible(self, space: FiniteProbSpace, tol: float = ADMISSIBLE_TOL) -> bool:
        return self.admissibility_gap(space) <= tol

    def __repr__(self):
        return f"DualVariable({self.values.tolist()!r})"


def admissible_dual(space: FiniteProbSpace, densities) -> DualVariable:
    """Build y = -d from per-atom densities, renormalized blockwise to mean 1."""
    d = np.asarray(densities, dtype=float)
    if np.any(d < 0):
        raise ValueError("densities must be nonnegative")
    mass = space.block_mean(d)
    if np.any(mass <= 0):
        j = int(np.argmax(mass <= 0)) + 1
        raise ValueError(f"density has zero conditional mass on block {j}")
    return DualVariable(-d / space.broadcast(mass))


# -- numeric Fenchel transform --------------------------------------------------


def _grid_points(k: int, radius: float, per_axis: int) -> np.ndarray:
    axes = [np.linspace(-radius, radius, per_axis)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _compass_refine(obj_batch, start: np.ndarray, step: float, best: float, *, min_step=1e-5):
    point = start.copy()
    k = point.size
    directions = np.vstack([np.eye(k), -np.eye(k)])
    for _ in range(600):
        if step <= min_step:
            break
        cand = point[None, :] + step * directions
        vals = obj_batch(cand)
        i = int(np.argmax(vals))
        if vals[i] > best + 1e-15:
            best = float(vals[i])
            point = cand[i]
        else:
            step *= 0.5
    return point, best


# grid conjugate: the radius starts at GRID_RADIUS and doubles until the best
# value gains less than GRID_TOL, at most GRID_MAX_DOUBLINGS times; three
# gains in a row that each grow by GRID_GROWTH_RATIO certify divergence
GRID_TOL = 1e-9
GRID_RADIUS = 4.0
GRID_PER_AXIS = 9  # points per axis for blocks of up to 3 atoms, 5 above
GRID_MAX_DOUBLINGS = 48
GRID_GROWTH_RATIO = 1.3


def _doubling_search(obj_batch, points_at, best: float, k: int):
    """Best value of ``obj_batch`` over ``points_at(radius)`` as the radius
    doubles from GRID_RADIUS, against a start value ``best`` at 0.

    Stops once the best value gains less than GRID_TOL; three consecutive
    growing gains, or GRID_MAX_DOUBLINGS doublings, certify divergence.
    Returns the best value (+inf when divergent), its point, the last radius
    and the certified ray (None unless divergent).
    """
    best_point = np.zeros(k)
    radius = GRID_RADIUS
    prev_inc = None
    streak = 0
    for _ in range(GRID_MAX_DOUBLINGS):
        pts = points_at(radius)
        vals = obj_batch(pts)
        i = int(np.argmax(vals))
        inc = float(vals[i]) - best
        if vals[i] > best:
            best = float(vals[i])
            best_point = pts[i]
        if inc < GRID_TOL:
            return best, best_point, radius, None
        if prev_inc is not None and inc >= GRID_GROWTH_RATIO * prev_inc:
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
        prev_inc = inc
        radius *= 2.0
    # three growing gains, or the radius exhausted while still improving:
    # unbounded for all practical radii
    ray = best_point / max(np.linalg.norm(best_point), 1e-30)
    return math.inf, best_point, radius, ray


def _block_conjugate_grid(measure: CondRiskMeasure, y_block: np.ndarray):
    """Numeric sup of E[x y] - rho(x) for a measure on one block.

    Doubles the search radius until the increment falls under GRID_TOL and
    the interior max is polished by compass search, or until three
    consecutive growing increments certify divergence; the certified ray is
    returned.  A dual off the density simplex (|E[y] + 1| > ADMISSIBLE_TOL)
    first walks the constant ray x = c sign(E[y] + 1), along which a
    cash-invariant measure's objective grows like c |E[y] + 1|: a grid whose
    gains shrink faster than that would stop at a finite value.  The ray's
    unit is stretched so that its first gain is at least 2 GRID_TOL.
    """
    k = y_block.size
    weights = measure.space.cond_probs(1) * y_block

    def obj_batch(points):
        return points @ weights - measure.evaluate_batch(points)[:, 0]

    start = float(obj_batch(np.zeros((1, k)))[0])
    gap = float(measure.space.block_mean(y_block)[0]) + 1.0
    if abs(gap) > ADMISSIBLE_TOL:
        stretch = max(1.0, 2.0 * GRID_TOL / (GRID_RADIUS * abs(gap)))
        unit = np.full((1, k), math.copysign(stretch, gap))
        best, point, _, ray = _doubling_search(obj_batch, lambda r: r * unit, start, k)
        if ray is not None:
            return best, point, ray
    per_axis = GRID_PER_AXIS if k <= 3 else 5
    best, point, radius, ray = _doubling_search(
        obj_batch, lambda r: _grid_points(k, r, per_axis), start, k
    )
    if ray is not None:
        return best, point, ray
    spacing = 2.0 * radius / (per_axis - 1)
    point, best = _compass_refine(obj_batch, point, spacing, best)
    return best, point, None


def fenchel(
    measure: CondRiskMeasure, y: DualVariable, method: str = "closed_form"
) -> ConditionalValue:
    """Blockwise penalty rho#(y) = esssup_x (E[x y | F] - rho(x)).

    ``closed_form`` uses the measure's declared penalty; ``grid_refine`` runs
    the numeric sup on each block's restriction.  +inf entries signal that -y
    is not an admissible density for the measure on that block.
    """
    space = measure.space
    if len(y) != space.n_atoms:
        raise DualityError("dual variable length does not match the space")
    if method == "closed_form":
        if measure.closed_form_penalty is None:
            raise DualityError(f"{measure.label} declares no closed-form penalty")
        pen = measure._rows(measure.closed_form_penalty, y.values[None], "penalties")
        return ConditionalValue(pen[0])
    if method != "grid_refine":
        raise ValueError("method must be 'closed_form' or 'grid_refine'")
    return ConditionalValue(
        [
            _block_conjugate_grid(measure.restrict(j), y.values[space.block_index_array(j)])[0]
            for j in range(1, space.n_blocks + 1)
        ]
    )


def penalty_of(measure: CondRiskMeasure, y: DualVariable) -> ConditionalValue:
    method = "closed_form" if measure.closed_form_penalty is not None else "grid_refine"
    return fenchel(measure, y, method)


def penalty_map(measure: CondRiskMeasure) -> Callable[[RandomVariable], ConditionalValue]:
    """Penalty as a map on raw payoff vectors, +inf on blocks with positive entries.

    Lets the sublevel-set machinery walk the dual space: vectors with a
    positive entry on a block are outside the density cone there.  Every
    map has a row form ``f.rows``: it takes a ``(rows, n_atoms)`` array to
    ``(rows, n_blocks)`` penalties, with the checks of ``DualVariable``,
    ``fenchel`` and ``ConditionalValue`` on each row, in one call of the
    closed form or, without one, one ``grid_refine`` conjugate per row.
    ``f`` is its one-row case.
    """
    space = measure.space

    def rows(vs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(vs)):
            raise ValueError("dual variable entries must be finite")
        if vs.shape[-1] != space.n_atoms:
            raise DualityError("dual variable length does not match the space")
        clipped = np.minimum(vs, 0.0)
        if measure.closed_form_penalty is not None:
            pen = measure._rows(measure.closed_form_penalty, clipped, "penalties")
        else:
            pen = np.stack([fenchel(measure, DualVariable(y), "grid_refine").values for y in clipped])
        if np.any(np.isnan(pen)):
            raise ValueError("conditional value entries must not be NaN")
        return np.where(space.block_max(vs) > 0, math.inf, pen)

    def f(v: RandomVariable) -> ConditionalValue:
        return ConditionalValue(rows(v.values[None])[0])

    f.rows = rows
    return f


def _values_of_rows(f, vs: np.ndarray) -> np.ndarray:
    """``f`` of each row of ``vs`` as ``(rows, n_blocks)``: one call of its
    row form, or one call of ``f`` per row, in order, without one."""
    if getattr(f, "rows", None) is not None:
        return f.rows(vs)
    return np.stack([f(RandomVariable(v)).values for v in vs])


# -- dual representation ---------------------------------------------------------


def _project_capped_simplex(v: np.ndarray, w: np.ndarray, cap: Optional[float]) -> np.ndarray:
    """Euclidean projection onto {d : w . d = 1, 0 <= d <= cap}.

    tau -> w . clip(v - tau w, 0, cap) is piecewise linear and nonincreasing;
    the crossing segment is located by breakpoint bisection and solved exactly.
    """
    hi = math.inf if cap is None else cap
    bps = [v / w]
    if cap is not None:
        if float(np.dot(w, np.full_like(v, cap))) < 1.0 - 1e-12:
            raise DualityError("density cap is infeasible for the block")
        bps.append((v - cap) / w)
    bps = np.unique(np.concatenate(bps))

    def total(tau: float) -> float:
        return float(np.dot(w, np.clip(v - tau * w, 0.0, hi)))

    f_lo = total(bps[0])
    if f_lo < 1.0:
        # left of every breakpoint all components move linearly (a finite cap
        # would make this region flat at w.cap >= 1, so it is uncapped here)
        tau = bps[0] - (1.0 - f_lo) / float(np.dot(w, w))
    else:
        lo, hi_i = 0, len(bps) - 1
        while hi_i - lo > 1:
            mid = (lo + hi_i) // 2
            if total(bps[mid]) >= 1.0:
                lo = mid
            else:
                hi_i = mid
        t0, t1 = bps[lo], bps[hi_i]
        f0, f1 = total(t0), total(t1)
        tau = t0 if f0 <= f1 else t0 + (f0 - 1.0) * (t1 - t0) / (f0 - f1)
    d = np.clip(v - tau * w, 0.0, hi)
    s = float(np.dot(w, d))
    if s > 0:
        d = d / s
    return d


# dual ascent: a block converges once its gap to rho(x) is at most
# ASCENT_GAP_TOL, and a step search gives up below ASCENT_MIN_STEP
ASCENT_GAP_TOL = 1e-8
ASCENT_MIN_STEP = 1e-13


@dataclass
class DualSearchConfig:
    max_iters: int = 400


@dataclass
class DualResult:
    value: ConditionalValue
    maximizer: DualVariable
    converged: List[bool]
    warnings: List[str] = field(default_factory=list)


def _block_penalty_fn(measure: CondRiskMeasure):
    """Penalty of a density d on a one-block measure, and the payoff attaining it.

    The closed form names no payoff.  The grid conjugate returns its maximizer
    x*, and -q x* is the penalty's gradient at d (envelope theorem), so the
    ascent gets its slope from the penalty it already paid for.
    """
    pen = measure.closed_form_penalty
    if pen is not None:
        return lambda d: (float(measure._rows(pen, -d[None], "penalties")[0, 0]), None)
    return lambda d: _block_conjugate_grid(measure, -d)[:2]


def _ascend_block(measure: CondRiskMeasure, xb: np.ndarray, target: float, cfg: DualSearchConfig):
    """Projected-gradient ascent of E[x y] - penalty over one block's densities.

    The step direction is the linear part minus the penalty's gradient:
    ``dual_penalty_grad`` where the measure declares it, else -q x* from the
    grid conjugate's maximizer x*.  A closed-form penalty without the hook
    adds no slope, and the ascent climbs the linear part alone.  Every
    density the ascent scores lies on the simplex, and each is scored once.
    Returns the best value and density, whether the block converged, and
    why the climb that reached the best value stopped.
    """
    q = measure.space.cond_probs(1)
    lin = -q * xb  # gradient of d -> E[x (-d)]
    cap = measure.dual_density_cap(1) if measure.dual_density_cap else None
    pen = _block_penalty_fn(measure)
    grad_pen = measure.dual_penalty_grad

    def obj(d: np.ndarray):
        p, x_star = pen(d)
        return (-math.inf if math.isinf(p) else float(np.dot(lin, d)) - p), x_star

    k = xb.size
    starts = [np.ones(k)]
    for i in range(k):
        vertex = np.zeros(k)
        vertex[i] = 1.0 / q[i]
        starts.append(_project_capped_simplex(vertex, q, cap))
    # best score first, ties broken by the start itself, as plain tuples sort
    scored = sorted(((*obj(s), tuple(s)) for s in starts), key=lambda t: t[::2], reverse=True)

    best_val, best_d = scored[0][0], np.array(scored[0][2])
    best_stop = None
    converged = False
    for val, x_star, start in scored:
        if not math.isfinite(val):
            continue
        d = np.array(start)
        step_e = step_m = 1.0
        stop = f"ascent stopped after {cfg.max_iters} iterations"
        for it in range(cfg.max_iters):
            if target - val <= ASCENT_GAP_TOL:
                converged = True
                break
            if grad_pen is not None:
                g = lin - grad_pen(1, d)
            else:
                g = lin if x_star is None else lin + q * x_star
            # propose an additive projected step and a multiplicative
            # (exponentiated-gradient) step; the latter crosses the orders of
            # magnitude that entropy-like penalties put between components
            moved = False
            while max(step_e, step_m) >= ASCENT_MIN_STEP:
                cands = [(_project_capped_simplex(d + step_e * g, q, cap), "e")]
                expo = np.clip(step_m * g / q, -60.0, 60.0)
                db = np.maximum(d, 1e-18) * np.exp(expo)
                s = float(np.dot(q, db))
                if s > 0 and np.all(np.isfinite(db)):
                    cands.append((_project_capped_simplex(db / s, q, cap), "m"))
                # max keeps the first of equal scores
                cval, cx_star, cand, kind = max(
                    ((*obj(c), c, how) for c, how in cands), key=lambda t: t[0]
                )
                if cval > val + 1e-15:
                    d, val, x_star = cand, cval, cx_star
                    if kind == "e":
                        step_e *= 1.6
                    else:
                        step_m *= 1.6
                    moved = True
                    break
                step_e *= 0.5
                step_m *= 0.5
            if not moved:
                converged = converged or (target - val <= 10 * ASCENT_GAP_TOL)
                stop = f"step search stalled after {it} iterations"
                break
        # the first climb starts from the best score, so it sets the stop
        if best_stop is None or val > best_val:
            best_val, best_d, best_stop = val, np.asarray(d), stop
        if target - best_val <= ASCENT_GAP_TOL:
            converged = True
            break
    return best_val, best_d, converged, best_stop or "no start has a finite objective"


def dual_representation(
    measure: CondRiskMeasure,
    x: RandomVariable,
    cfg: Optional[DualSearchConfig] = None,
) -> DualResult:
    """Blockwise sup over admissible duals of E[x y | F] - rho#(y).

    Runs projected-gradient ascent on each block's conditional-density simplex
    from the barycenter with multistart from the vertices.  The value never
    exceeds rho(x) beyond tolerance (weak duality).
    """
    cfg = cfg or DualSearchConfig()
    space = measure.space
    targets = measure.evaluate(x).values
    values = np.empty(space.n_blocks)
    density = np.empty(space.n_atoms)
    converged = []
    warnings: List[str] = []
    for j in range(1, space.n_blocks + 1):
        val, d, ok, stop = _ascend_block(
            measure.restrict(j), space.restrict(x, j), float(targets[j - 1]), cfg
        )
        values[j - 1] = val
        density[space.block_index_array(j)] = d
        converged.append(ok)
        if not ok:
            warnings.append(f"block {j}: {stop} with gap {targets[j - 1] - val:.3e}")
    return DualResult(
        ConditionalValue(values), admissible_dual(space, density), converged, warnings
    )


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that no comparison can use: NaN, negative or infinite."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


@dataclass
class RepresentationEntry:
    payoff: RandomVariable
    direct: ConditionalValue
    dual: ConditionalValue
    gap: np.ndarray
    maximizer: DualVariable
    attained: bool
    warnings: List[str]

    def to_dict(self) -> dict:
        out = {
            "payoff": self.payoff.values.tolist(),
            "direct": self.direct.values.tolist(),
            "dual": self.dual.values.tolist(),
            "gap": self.gap.tolist(),
            "maximizer": self.maximizer.values.tolist(),
            "attained": self.attained,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


@dataclass
class RepresentationReport:
    entries: List[RepresentationEntry]
    tol: float

    @property
    def attained_all(self) -> bool:
        return all(e.attained for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "attained_all": self.attained_all,
            "entries": [e.to_dict() for e in self.entries],
        }


def verify_representation(
    measure: CondRiskMeasure,
    payoffs: Sequence[RandomVariable],
    tol: float = 1e-6,
    cfg: Optional[DualSearchConfig] = None,
) -> RepresentationReport:
    """Compare rho(x) against the dual value for each payoff."""
    _check_tol(tol)
    payoffs = list(payoffs)
    if not payoffs:
        raise ValueError("verify_representation needs at least one payoff")
    entries = []
    for x in payoffs:
        direct = measure.evaluate(x)
        result = dual_representation(measure, x, cfg)
        gap = direct.values - result.value.values
        if np.any(gap < -tol):
            raise DualityError(
                f"weak duality violated by {float(-gap.min()):.3e} for {measure.label}"
            )
        attained = bool(np.all(np.abs(gap) <= tol))
        entries.append(
            RepresentationEntry(x, direct, result.value, gap, result.maximizer, attained, result.warnings)
        )
    return RepresentationReport(entries, tol)


# -- stable-topology diagnostics --------------------------------------------------


def sigma_s_membership(
    space: FiniteProbSpace,
    x: RandomVariable,
    families: Sequence[Sequence[RandomVariable]],
    parts: PartitionOfUnity,
    eps: ConditionalValue,
) -> bool:
    """Whether x lies in the stable weak-neighborhood of 0 given by the data.

    True iff, blockwise, the largest |E[x y | F]| over the family attached to
    the covering part stays strictly below eps.  The comparison is exact;
    tolerance would change the topology.
    """
    if len(families) != len(parts):
        raise ValueError("one family of duals per part is required")
    for fam in families:
        if not fam:
            raise ValueError("families must be nonempty")
    ev = space._check_cv(eps)
    if np.any(ev <= 0):
        raise ValueError("eps must be strictly positive blockwise")
    xv = space._check_rv(x)
    for part, fam in zip(parts, families):
        worst = np.abs(space.block_mean(np.stack([y.values for y in fam]) * xv)).max(axis=0)
        on = mask_array(part.mask, space.n_blocks)
        if not np.all(worst[on] < ev[on]):
            return False
    return True


@dataclass
class SublevelReport:
    """Mixing closure plus probe-resolution boundedness of a sublevel set."""

    mixing_closure_passed: bool
    mixing_violation: Optional[dict]
    members: int
    bounded_per_block: List[bool]
    inf_compact_per_block: List[bool]
    qualifier: str = "at probe resolution"
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mixing_closure_passed": self.mixing_closure_passed,
            "members": self.members,
            "bounded_per_block": self.bounded_per_block,
            "inf_compact_per_block": self.inf_compact_per_block,
            "qualifier": self.qualifier,
            "notes": self.notes,
        }


# sublevel check: the mixing walk stops after SUBLEVEL_MAX_COMBOS choices;
# boundedness rays double their step up to SUBLEVEL_RAY_BOUND
SUBLEVEL_MAX_COMBOS = 4096
SUBLEVEL_RAY_BOUND = 2.0**40


def stable_sublevel_check(
    space: FiniteProbSpace,
    f: Callable[[RandomVariable], ConditionalValue],
    eta: ConditionalValue,
    probe: Sequence[RandomVariable],
) -> SublevelReport:
    """Stability and boundedness of the sublevel set {v : f(v) <= eta}.

    Mixing closure walks every choice of one member (a probe payoff inside
    the set) per block: M^m choices for M members and m blocks.  A mix along
    any partition of unity is the mix along the blocks that gives each block
    its part's member, so coarser partitions add nothing.  Closure follows
    from locality: a violation means the caller's local-property certificate
    was wrong.  The walk stops after SUBLEVEL_MAX_COMBOS choices; a walk cut
    short there says so in ``notes``.  Boundedness is probed by step-doubling
    rays along +/- each probe member; the verdict is only complete up to the
    span of the probe.

    ``f`` is called through its row form ``f.rows`` where it has one (every
    ``penalty_map`` has), else on one payoff at a time, in order.  The probe
    is screened in one call.  The walk pastes its choices in row batches that
    double up to about CHUNK_ELEMENTS payoff entries and stops after the
    batch that holds the first violation, which it reports.  The rays are
    taken step by step, t = 1, 2, 4, ..., SUBLEVEL_RAY_BOUND: each step is
    one call on the directions that are still inside the set on some block,
    and a step of such a direction past float range raises the payoff's
    ValueError.
    """
    if not probe:
        raise ValueError("probe must be nonempty")
    level = space._check_cv(eta)
    n, m = space.n_atoms, space.n_blocks

    inside = np.all(_values_of_rows(f, np.stack([v.values for v in probe])) <= level, axis=1)
    members = [v for v, ok in zip(probe, inside) if ok]
    notes = []
    if not members:
        notes.append("no probe member lies in the sublevel set; verdicts vacuous")

    # mixed payoffs are pasted from one stack of the members: a choice picks
    # a member (a row) per block, broadcast to one row index per atom.  The
    # c-th choice of itertools.product has the base-M digits of c, block 1
    # the most significant
    stack = np.stack([v.values for v in members]) if members else None
    cols = np.arange(n)
    total = len(members) ** m
    end = min(total, SUBLEVEL_MAX_COMBOS + 1)
    violation = None
    for done, size in _row_batches(n, end):
        rest = np.arange(done, done + size)
        choices = np.zeros((rest.size, m), dtype=np.intp)
        for j in range(m - 1, -1, -1):
            if not rest.any():
                break
            rest, choices[:, j] = np.divmod(rest, len(members))
        vals = _values_of_rows(f, stack[space.broadcast(choices), cols])
        outside = ~np.all(vals <= level, axis=1)
        if outside.any():
            choice = choices[int(np.argmax(outside))].tolist()
            violation = {
                "partition": [[j] for j in range(1, m + 1)],
                "choice": [members[k].values.tolist() for k in choice],
            }
            break
    if violation is None and end < total:
        notes.append(
            f"mixing closure checked on the first {end} combinations of a "
            "partition and a choice of members only: the walk stops at its cap"
        )
    mixing_ok = violation is None

    dirs = [d for v in probe for d in (v.values, -v.values) if np.any(d)] if members else []
    dirs = np.reshape(dirs, (-1, n))
    escaped = np.zeros((len(dirs), m), dtype=bool)
    live, t = np.arange(len(dirs)), 1.0
    while live.size and t <= SUBLEVEL_RAY_BOUND:
        with np.errstate(over="ignore"):
            rays = members[0].values + t * dirs[live]
        if not np.isfinite(rays).all():
            raise ValueError("random variable entries must be finite")
        escaped[live] |= _values_of_rows(f, rays) > level
        live = live[~escaped[live].all(axis=1)]
        t *= 2.0
    bounded = escaped.all(axis=0).tolist()

    inf_compact = [mixing_ok and b for b in bounded]
    return SublevelReport(
        mixing_closure_passed=mixing_ok,
        mixing_violation=violation,
        members=len(members),
        bounded_per_block=bounded,
        inf_compact_per_block=inf_compact,
        notes=notes,
    )
