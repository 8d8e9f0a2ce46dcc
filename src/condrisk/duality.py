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

from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable
from .riskcore import (
    ADMISSIBLE_TOL,
    CHUNK_ELEMENTS,
    CondRiskMeasure,
    _admissible_mask,
    _check_tol,
    _row_batches,
    cond_avar,
    cond_worst_case,
)


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

    def is_admissible(self, space: FiniteProbSpace) -> bool:
        """Whether -y is a conditional density on every block, within ADMISSIBLE_TOL."""
        _check_length(space, self.values)
        return bool(_admissible_mask(space, self.values).all())

    def __repr__(self):
        return f"DualVariable({self.values.tolist()!r})"


def _check_length(space: FiniteProbSpace, values: np.ndarray) -> None:
    """Refuse dual values (or rows of them) whose length is not the space's."""
    if np.shape(values)[-1:] != (space.n_atoms,):
        raise DualityError("dual variable length does not match the space")


def admissible_dual(space: FiniteProbSpace, densities) -> DualVariable:
    """Build y = -d from per-atom densities, renormalized blockwise to mean 1."""
    d = np.asarray(densities, dtype=float)
    _check_length(space, d)
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


# grid conjugate: the radius starts at GRID_RADIUS and doubles until the best
# value gains less than GRID_TOL, at most GRID_MAX_DOUBLINGS times; three
# gains in a row that each grow by GRID_GROWTH_RATIO certify divergence
GRID_TOL = 1e-9
GRID_RADIUS = 4.0
GRID_PER_AXIS = 9  # points per axis for blocks of up to 3 atoms, 5 above
GRID_MAX_DOUBLINGS = 48
GRID_GROWTH_RATIO = 1.3


def _risks(measure: CondRiskMeasure, batch: np.ndarray, span: int) -> np.ndarray:
    """rho at each point of ``batch``, whose rows come in spans of ``span``
    points, one span per dual.  A built-in's batch gives a row the same bits
    whatever rows share it, so it takes one call; a user batch function may
    round a row by its neighbours (one matrix product over the batch), so it
    takes one call per span, as a one-row search would make."""
    if measure._cut is not None or len(batch) == span:
        return measure.evaluate_batch(batch)[:, 0]
    return np.concatenate([measure.evaluate_batch(batch[a : a + span])[:, 0] for a in range(0, len(batch), span)])


def _doubling_search(measure: CondRiskMeasure, weights: np.ndarray, start: np.ndarray, points_at, span=None):
    """Best value of E[x y] - rho(x) for each row of ``weights`` (q y of its
    dual) as the radius doubles from GRID_RADIUS, all rows in lockstep,
    against its value ``start`` at 0.

    ``points_at(radius, live)`` gives one batch for the rows ``live`` still
    searching: with ``span`` None a batch that every row searches, whose rho
    is evaluated once per doubling for all of them, else ``span`` points per
    row, one row after another, evaluated by ``_risks``.  A row stops once
    its best value gains less than GRID_TOL; three consecutive growing
    gains, or GRID_MAX_DOUBLINGS doublings, certify divergence.  Returns
    each row's best value (+inf when divergent), its point, its last radius
    and its certified ray (None unless divergent).
    """
    rows, k = weights.shape
    best = [float(s) for s in start]
    points = np.zeros((rows, k))
    radius = np.full(rows, GRID_RADIUS)
    prev_inc, streak = [None] * rows, [0] * rows
    live, diverged = list(range(rows)), []
    r = GRID_RADIUS
    for _ in range(GRID_MAX_DOUBLINGS):
        if not live:
            break
        batch = points_at(r, live)
        if span is None:
            parts, risk = [slice(None)] * len(live), measure.evaluate_batch(batch)[:, 0]
        else:
            parts, risk = [slice(a, a + span) for a in range(0, len(batch), span)], _risks(measure, batch, span)
        searching = []
        for i, part in zip(live, parts):
            pts = batch[part]
            vals = pts @ weights[i] - risk[part]
            a = int(np.argmax(vals))
            inc = float(vals[a]) - best[i]
            if vals[a] > best[i]:
                best[i] = float(vals[a])
                points[i] = pts[a]
            radius[i] = r
            if inc < GRID_TOL:
                continue
            if prev_inc[i] is not None and inc >= GRID_GROWTH_RATIO * prev_inc[i]:
                streak[i] += 1
                if streak[i] >= 3:
                    diverged.append(i)
                    continue
            else:
                streak[i] = 0
            prev_inc[i] = inc
            searching.append(i)
        live = searching
        r *= 2.0
    # three growing gains, or the radius exhausted while still improving:
    # unbounded for all practical radii
    rays = [None] * rows
    for i in diverged + live:
        best[i] = math.inf
        rays[i] = points[i] / max(np.linalg.norm(points[i]), 1e-30)
    return np.array(best), points, radius, rays


def _compass_refine(
    measure: CondRiskMeasure, weights: np.ndarray, points: np.ndarray, steps: np.ndarray, best: np.ndarray
) -> None:
    """Compass search from each row's point, all rows in lockstep: a step
    evaluates rho on the 2k candidates of every row still refining, by
    ``_risks``.  A row moves to its best candidate if that gains more than
    1e-15 and halves its step otherwise; it stops once the step is at most
    1e-5, or after 600 steps.  ``points``, ``steps`` and ``best`` are updated in place."""
    rows, k = points.shape
    directions = np.vstack([np.eye(k), -np.eye(k)])
    live = np.arange(rows)
    for _ in range(600):
        live = live[steps[live] > 1e-5]
        if not live.size:
            break
        cand = points[live, None, :] + steps[live, None, None] * directions
        # one matrix-vector product per row, stacked: the bits of c @ weights[i]
        vals = np.matmul(cand, weights[live, :, None])[..., 0]
        vals -= _risks(measure, cand.reshape(-1, k), 2 * k).reshape(vals.shape)
        b = vals.argmax(axis=1)
        top = vals[np.arange(live.size), b]
        gain = top > best[live] + 1e-15
        best[live[gain]] = top[gain]
        points[live[gain]] = cand[gain, b[gain]]
        steps[live[~gain]] *= 0.5


def _block_conjugate_grid(measure: CondRiskMeasure, ys: np.ndarray):
    """Numeric sup of E[x y] - rho(x) for a measure on one block, for each
    row y of the ``(rows, k)`` duals ``ys``, every row's search in lockstep.

    A row doubles its search radius until its increment falls under
    GRID_TOL and its interior max is polished by compass search, or until
    three consecutive growing increments certify divergence; the certified
    ray is returned.  A row off the density simplex (|E[y] + 1| >
    ADMISSIBLE_TOL) first walks the constant ray x = c sign(E[y] + 1), along
    which a cash-invariant measure's objective grows like c |E[y] + 1|: a
    grid whose gains shrink faster than that would stop at a finite value.
    The ray's unit is stretched so that its first gain is at least 2 GRID_TOL.

    Each step evaluates rho once for every row still at it: the grid r U
    once for all rows (U the unit grid, built once per call), and the rays'
    points and the compass candidates of all rows in one batch for a
    built-in, or row by row for a user measure (``_risks``), whose batch
    function may round a row by the rows beside it.  Each row keeps its own
    objective, ``pts @ (q y)``, one matrix-vector product per row, so a
    row's value, point and ray are those of a one-row call, bit for bit.  Returns the values, the points ``(rows, k)`` and the
    rays, None for each row without one.
    """
    rows, k = ys.shape
    weights = measure.space.cond_probs(1) * ys
    zero = np.zeros((1, k))
    start = np.array([(zero @ w)[0] for w in weights]) - measure.evaluate_batch(zero)[0, 0]
    values, points, rays = np.empty(rows), np.zeros((rows, k)), [None] * rows

    gap = measure.space.block_mean(ys)[:, 0] + 1.0
    off = np.flatnonzero(np.abs(gap) > ADMISSIBLE_TOL)
    if off.size:
        stretch = np.maximum(1.0, 2.0 * GRID_TOL / (GRID_RADIUS * np.abs(gap[off])))
        units = np.repeat(np.copysign(stretch, gap[off])[:, None], k, axis=1)

        best, point, _, ray = _doubling_search(
            measure, weights[off], start[off], lambda r, live: r * units[live], span=1
        )
        for a, i in enumerate(off):
            if ray[a] is not None:
                values[i], points[i], rays[i] = best[a], point[a], ray[a]
    on = np.flatnonzero([ray is None for ray in rays])
    if not on.size:
        return values, points, rays

    per_axis = GRID_PER_AXIS if k <= 3 else 5
    unit = _grid_points(k, 1.0, per_axis)
    best, point, radius, ray = _doubling_search(measure, weights[on], start[on], lambda r, live: r * unit)
    # a divergent row does not refine
    steps = np.where([r is None for r in ray], 2.0 * radius / (per_axis - 1), 0.0)
    _compass_refine(measure, weights[on], point, steps, best)
    values[on], points[on] = best, point
    for a, i in enumerate(on):
        rays[i] = ray[a]
    return values, points, rays


def _penalty_rows(measure: CondRiskMeasure, ys: np.ndarray, closed_form=True, blocks=None) -> np.ndarray:
    """Penalties of the rows of ``ys`` as ``(rows, n_blocks)``: the closed form,
    one call for every row, if ``closed_form`` is set and the measure has one;
    else the grid conjugate of each row on each block that the mask ``blocks``
    marks (all by default), restricted once, and +inf on the others.  A wrong
    row length and a NaN penalty are refused by name."""
    space = measure.space
    _check_length(space, ys)
    if closed_form and measure.closed_form_penalty is not None:
        pen = measure._rows(measure.closed_form_penalty, ys, "penalties")
    else:
        pen = np.full((len(ys), space.n_blocks), math.inf)
        for j in range(space.n_blocks) if blocks is None else np.flatnonzero(blocks):
            block, cut = measure.restrict(j + 1), ys[:, space.block_index_array(j + 1)]
            pen[:, j] = _block_conjugate_grid(block, cut)[0]
    if np.any(np.isnan(pen)):
        raise ValueError("conditional value entries must not be NaN")
    return pen


def fenchel(measure: CondRiskMeasure, y: DualVariable) -> ConditionalValue:
    """Blockwise conjugate rho#(y) = esssup_x (E[x y | F] - rho(x)) by the grid
    on each block's restriction; it never reads a closed form.  +inf entries
    signal that -y is not an admissible density for the measure there."""
    return ConditionalValue(_penalty_rows(measure, y.values[None], closed_form=False)[0])


def penalty_of(measure: CondRiskMeasure, y: DualVariable) -> ConditionalValue:
    """The measure's closed-form penalty at y where it declares one, else ``fenchel``."""
    return ConditionalValue(_penalty_rows(measure, y.values[None])[0])


def penalty_map(measure: CondRiskMeasure) -> Callable[[RandomVariable], ConditionalValue]:
    """Penalty as a map on raw payoff vectors, +inf on blocks with positive entries.

    Lets the sublevel-set machinery walk the dual space: vectors with a
    positive entry on a block are outside the density cone there.  Every
    map has a row form ``f.rows``: it takes a ``(rows, n_atoms)`` array to
    ``(rows, n_blocks)`` penalties, with the checks of ``DualVariable``,
    ``penalty_of`` and ``ConditionalValue`` on each row, in one call of
    ``_penalty_rows``.  ``f`` is its one-row case.
    """
    space = measure.space

    def rows(vs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(vs)):
            raise ValueError("dual variable entries must be finite")
        pen = _penalty_rows(measure, np.minimum(vs, 0.0))
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


# a user measure's block takes a candidate dual once its value is within
# ASCENT_GAP_TOL of rho(x), on either side
ASCENT_GAP_TOL = 1e-8


@dataclass
class DualSearchConfig:
    """Accepted by ``dual_representation`` and ``verify_representation`` so
    that callers passing one still run; it has no effect.  Every dual comes
    from a fixed list of candidates, and there is no search to configure."""

    max_iters: int = 400


@dataclass
class DualResult:
    value: ConditionalValue
    maximizer: DualVariable
    converged: List[bool]
    warnings: List[str] = field(default_factory=list)


def _graded(measure: CondRiskMeasure, xv: np.ndarray, y: DualVariable, blocks=None) -> np.ndarray:
    """E[x y | block] - penalty(y) by the measure's own route, ``_penalty_rows``;
    -inf on the blocks that a measure without a closed form leaves unmarked."""
    pen = _penalty_rows(measure, y.values[None], blocks=blocks)[0]
    return measure.space.block_mean(xv * y.values) - pen


def _exact_duals(measure: CondRiskMeasure, xv: np.ndarray) -> Optional[DualVariable]:
    """The dual oracle's maximizer on every block, as an admissible dual, or
    None for a measure without an oracle."""
    if measure._dual_oracle is None:
        return None
    return admissible_dual(measure.space, measure._dual_oracle(xv[None])[0])


# difference duals: atom i steps by h_i = 2^(e - DIFFERENCE_STEP_BITS), where e
# is the binary exponent of max(1, max |x| on its block).  Blocks left short
# take them again at x + 2^(e - SHIFT_BITS) u, with steps of 2^(e -
# SHIFTED_STEP_BITS), for each irregular pattern u_i = frac(i s) - 1/2 that
# a slope s of SHIFT_SLOPES gives, in turn; the last candidate takes them at
# x with the finer steps 2^(e - FINE_STEP_BITS)
DIFFERENCE_STEP_BITS = 20
SHIFT_BITS = 8
SHIFTED_STEP_BITS = 16
SHIFT_SLOPES = (0.6180339887498949, 0.4142135623730951)
FINE_STEP_BITS = 36


def _binary_scale(space: FiniteProbSpace, xv: np.ndarray, bits: int) -> np.ndarray:
    """2^(e - bits) on each atom, e the binary exponent of max(1, max |x| on
    its block): x and 2^k x get the same bits, shifted by k."""
    scale = space.broadcast(np.maximum(space.block_max(np.abs(xv)), 1.0))
    return np.ldexp(1.0, np.frexp(scale)[1] - 1 - bits)


def _difference_duals(
    measure: CondRiskMeasure, xv: np.ndarray, bits: int = DIFFERENCE_STEP_BITS
) -> Optional[DualVariable]:
    """The density -grad rho(x) / q on every block, from central differences
    with steps ``_binary_scale(space, x, bits)``, as an admissible dual; None
    where the differences give no density.

    Where rho is differentiable at x this is the maximizer of the robust
    representation (the Fenchel-Young equality).  The steps are powers of 2
    set by each block's scale, so x and 2^k x give the same bits for a
    positively homogeneous measure.  By locality one row steps one atom of
    every block, so one ``evaluate_batch`` call of twice the largest block
    size gives every block's differences; rows go in chunks of about
    CHUNK_ELEMENTS payoff entries.  The slope is clipped at 0 and normalized
    blockwise by ``admissible_dual``; a non-finite risk, or a block with no
    mass left, gives None.
    """
    space = measure.space
    n = space.n_atoms
    h = _binary_scale(space, xv, bits)
    # the position of each atom in its block: row r steps the atoms at
    # position r up, row k + r steps them down, for blocks of at most k atoms
    pos = np.empty(n, dtype=np.intp)
    pos[space.order] = np.arange(n) - space.starts[space._block_in_order]
    k = int(pos.max()) + 1
    chunk = max(1, CHUNK_ELEMENTS // n)
    risk = np.concatenate(
        [
            measure.evaluate_batch(xv + (r % k == pos) * np.where(r < k, h, -h))
            for r in np.split(np.arange(2 * k)[:, None], range(chunk, 2 * k, chunk))
        ]
    )
    at = (pos, space.block_of)
    d = np.maximum((risk[k:][at] - risk[:k][at]) / (2.0 * h * space.cond), 0.0)
    if not np.all(np.isfinite(d)) or np.any(space.block_max(d) <= 0):
        return None
    return admissible_dual(space, d)


def _capped_fill(measure: CondRiskMeasure, xv: np.ndarray) -> DualVariable:
    """Each block filled to its declared ``dual_density_cap``: the dual
    oracle of ``cond_avar`` at lambda = 1/cap, which gives density cap to the
    atoms where x is least until the block's mass is filled.  A block whose
    cap is None takes the vertex of the atom where x is least, as does one
    whose cap is at least 1/q for every atom of it.  A cap below 1 leaves no
    density on its block and is refused by name."""
    space = measure.space
    lam = space.block_min(space.cond)
    for j in range(1, space.n_blocks + 1):
        cap = measure.dual_density_cap(j)
        if cap is None:
            continue
        if not cap >= 1.0 - 1e-12:
            raise DualityError(f"block {j}: density cap {float(cap)!r} is infeasible, below 1")
        lam[j - 1] = min(1.0, max(lam[j - 1], 1.0 / cap))
    return admissible_dual(space, cond_avar(space, lam)._dual_oracle(xv[None])[0])


def _fallback_duals(measure: CondRiskMeasure, xv: np.ndarray):
    """The candidates after the difference passes, in order: the barycenter,
    the vertex of the atom where x is least (the dual oracle of
    ``cond_worst_case``), the fill to the declared cap, where the measure
    declares one, and the differences at x with steps of 2^(e -
    FINE_STEP_BITS).

    At large payoff scales rounding can leave a difference density off the
    barycenter or off the cap by more than ADMISSIBLE_TOL, where a coherent
    measure's penalty is +inf; the first three are exact.  The finer steps
    take the smooth blocks whose coarser differences round short.
    """
    space = measure.space
    yield DualVariable(-np.ones(space.n_atoms))
    yield admissible_dual(space, cond_worst_case(space)._dual_oracle(xv[None])[0])
    if measure.dual_density_cap is not None:
        yield _capped_fill(measure, xv)
    yield _difference_duals(measure, xv, FINE_STEP_BITS)


def _candidate_duals(measure: CondRiskMeasure, xv: np.ndarray):
    """A user measure's candidate duals, in the order they are graded, each
    made when it is asked for: the differences at x, at two generic points
    near x, then ``_fallback_duals``.  None stands for a pass that gave no
    density."""
    space = measure.space
    yield _difference_duals(measure, xv)
    # at a kink the differences at x need not give a subgradient.  Those at a
    # generic point nearby do for a max of linear pieces, graded at x, unless
    # the steps there still straddle a kink; the next pattern takes those
    i = np.arange(1, space.n_atoms + 1)
    for slope in SHIFT_SLOPES:
        shift = _binary_scale(space, xv, SHIFT_BITS) * ((i * slope) % 1.0 - 0.5)
        yield _difference_duals(measure, xv + shift, SHIFTED_STEP_BITS)
    yield from _fallback_duals(measure, xv)


def _represent(measure: CondRiskMeasure, x: RandomVariable, targets: np.ndarray) -> DualResult:
    """``dual_representation`` against ``targets``, the figure rho(x)."""
    space = measure.space
    xv = space._check_rv(x)
    y = _exact_duals(measure, xv)
    if y is not None:
        values = _graded(measure, xv, y)
        short = targets - values
        converged = (np.isfinite(values) & (short <= ASCENT_GAP_TOL)).tolist()
        warnings = [
            f"block {j}: exact dual short of rho(x) by {short[j - 1]:.3e}"
            for j, ok in enumerate(converged, start=1)
            if not ok
        ]
        return DualResult(ConditionalValue(values), y, converged, warnings)
    values = np.full(space.n_blocks, -math.inf)
    density = np.ones(space.n_atoms)
    accepted = np.zeros(space.n_blocks, dtype=bool)
    for y in _candidate_duals(measure, xv):
        if y is None:
            continue
        graded = _graded(measure, xv, y, ~accepted)
        # a value above rho(x) leans on a penalty's slack: never kept.  The
        # gap is compared, not rho(x) + ASCENT_GAP_TOL, which rounds upward
        # at large payoffs
        take = ~accepted & (graded > values) & (targets - graded >= -ASCENT_GAP_TOL)
        values[take] = graded[take]
        on = space.broadcast(take)
        density[on] = -y.values[on]
        accepted = np.abs(targets - values) <= ASCENT_GAP_TOL
        if accepted.all():
            break
    short = targets - values
    warnings = [
        f"block {j}: no candidate dual within {ASCENT_GAP_TOL:g}, short of rho(x) by {short[j - 1]:.3e}"
        for j in (np.flatnonzero(~accepted) + 1).tolist()
    ]
    return DualResult(ConditionalValue(values), DualVariable(-density), accepted.tolist(), warnings)


def dual_representation(
    measure: CondRiskMeasure,
    x: RandomVariable,
    cfg: Optional[DualSearchConfig] = None,
) -> DualResult:
    """Blockwise sup over admissible duals of E[x y | F] - rho#(y).

    A built-in's exact dual oracle solves every block in one call, and
    nothing else runs: each block's value is recomputed at the returned
    dual from the closed-form penalty (``_graded``), and a block more than
    ASCENT_GAP_TOL short of rho(x) is reported unconverged, with a warning
    that names the shortfall.  A user measure, a ``dataclasses.replace``
    copy of a built-in included, grades candidate duals in turn
    (``_candidate_duals``) from its own penalty route (the closed form, else
    one grid conjugate on each block still short), until every block has
    one: -grad rho(x) / q from central differences at x, then at two
    generic points near x (a subgradient at a kink of a max of linear
    pieces), the barycenter, the vertex of the atom where x is least, the
    fill to the declared ``dual_density_cap`` and finer differences at x.  A block takes
    the first candidate within ASCENT_GAP_TOL of rho(x), on either side.  A
    block that none takes is reported unconverged, with a warning that names
    its shortfall, at the best candidate value not above rho(x) +
    ASCENT_GAP_TOL (weak duality), or -inf without one.  ``cfg`` has no
    effect.
    """
    return _represent(measure, x, measure.evaluate(x).values)


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
    """Compare rho(x) against the dual value for each payoff; ``cfg`` has no
    effect."""
    _check_tol(tol)
    payoffs = list(payoffs)
    if not payoffs:
        raise ValueError("verify_representation needs at least one payoff")
    entries = []
    for x in payoffs:
        direct = measure.evaluate(x)
        result = _represent(measure, x, direct.values)
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
    is screened in one call.  With one block or at most one member every
    choice is a member, so nothing is walked.  Else the walk pastes its
    choices in row batches (``_row_batches``) of about CHUNK_ELEMENTS >> 5
    payoff entries at first, doubling up to about CHUNK_ELEMENTS, and stops
    after the batch that holds the first violation, which it reports.  The
    rays are taken step by step, t = 1, 2, 4, ..., SUBLEVEL_RAY_BOUND: each
    step is one call on the directions that are still inside the set on
    some block, and a step of such a direction past float range raises the
    payoff's ValueError.
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
    # with one block or at most one member, every choice is a member the
    # screening already evaluated: there is nothing to walk
    total = 0 if m == 1 or len(members) <= 1 else len(members) ** m
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
