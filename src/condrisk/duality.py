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
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable, _Values
from .riskcore import (
    ADMISSIBLE_TOL,
    CHUNK_ELEMENTS,
    CondRiskMeasure,
    _admissible_mask,
    _check_tol,
    _row_batches,
    _stacks,
    cond_avar,
    cond_worst_case,
)


class DualityError(CondriskError):
    pass


class DualVariable(_Values):
    """Dual vector: one value <= 0 per sample atom; -y acts as a density."""

    __slots__ = ()
    _noun = "a dual variable"

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.isfinite(arr).all():
            raise ValueError("dual variable entries must be finite")
        if (arr > 0).any():
            raise ValueError("dual variable entries must be <= 0")

    def is_admissible(self, space: FiniteProbSpace) -> bool:
        """Whether -y is a conditional density on every block, within ADMISSIBLE_TOL."""
        _check_length(space, self.values)
        return bool(_admissible_mask(space, space._in_order(self)).all())


def _check_length(space: FiniteProbSpace, values: np.ndarray) -> None:
    """Refuse dual values (or rows of them) whose length is not the space's."""
    if np.shape(values)[-1:] != (space.n_atoms,):
        raise DualityError("dual variable length does not match the space")


def admissible_dual(space: FiniteProbSpace, densities) -> DualVariable:
    """Build y = -d from per-atom densities, renormalized blockwise to mean 1;
    the one gather of d gives the masses, then y's copy in block order."""
    d = np.asarray(densities, dtype=float)
    _check_length(space, d)
    if np.any(d < 0):
        raise ValueError("densities must be nonnegative")
    a = space._in_order(d)
    mass = space._mean(a)
    if np.any(mass <= 0):
        j = int(np.argmax(mass <= 0)) + 1
        raise ValueError(f"density has zero conditional mass on block {j}")
    y = DualVariable(-d / space.broadcast(mass))
    np.negative(a, out=a)
    a /= mass.take(space._block_in_order)
    space._in_order(y, a)
    return y


# -- numeric Fenchel transform --------------------------------------------------


def _grid_points(k: int, radius: float, per_axis: int) -> np.ndarray:
    return np.stack(np.meshgrid(*[np.linspace(-radius, radius, per_axis)] * k, indexing="ij"), axis=-1).reshape(-1, k)


# grid conjugate: the radius starts at GRID_RADIUS and doubles until the best
# value gains less than GRID_TOL, at most GRID_MAX_DOUBLINGS times; three
# gains in a row that each grow by GRID_GROWTH_RATIO certify divergence
GRID_TOL = 1e-9
GRID_RADIUS = 4.0
GRID_PER_AXIS = 9  # points per axis for blocks of up to 3 atoms, 5 above
GRID_MAX_DOUBLINGS = 48
GRID_GROWTH_RATIO = 1.3
# the most points a unit grid may hold: 5^7, the slice grid of 8 atoms, whose
# conjugate takes about 0.1 s and 20 MB
GRID_MAX_POINTS = 5**7
# a compass step tries each direction at COMPASS_SCALES step sizes s, s/2,
# ..., s/2^(COMPASS_SCALES - 1), and a step that gains nothing divides s by
# 2^COMPASS_SCALES
COMPASS_SCALES = 4


def _doubling_search(start: np.ndarray, best_at, k: int):
    """Best value of E[x y] - rho(x) of each (dual row, block) pair, from its
    value ``start`` at 0, as the radius doubles from GRID_RADIUS, all pairs in
    lockstep; ``best_at(radius, live)`` gives the best value and point of the
    pairs ``live``.  A pair stops once its best value gains less than
    GRID_TOL; three consecutive growing gains, or GRID_MAX_DOUBLINGS
    doublings, certify divergence.  Returns the best values (+inf when
    divergent), points, last radii and certified rays (NaN unless divergent)."""
    pairs = len(start)
    best, points = start.copy(), np.zeros((pairs, k))
    radius, prev, streak = np.full(pairs, GRID_RADIUS), np.full(pairs, math.nan), np.zeros(pairs, dtype=int)
    live, diverged = np.arange(pairs), np.zeros(pairs, dtype=bool)
    for r in GRID_RADIUS * 2.0 ** np.arange(GRID_MAX_DOUBLINGS):
        if not live.size:
            break
        top, at = best_at(r, live)
        inc = top - best[live]
        up = top > best[live]
        best[live[up]], points[live[up]] = top[up], at[up]
        radius[live] = r
        # a NaN gain searches on; the first gain, after a NaN one, never grows
        moving = ~(inc < GRID_TOL)
        grows = moving & (inc >= GRID_GROWTH_RATIO * prev[live])
        streak[live] = np.where(grows, streak[live] + 1, 0)
        diverged[live[grows & (streak[live] >= 3)]] = True
        searching = moving & ~diverged[live]
        prev[live[searching]] = inc[searching]
        live = live[searching]
    # three growing gains, or the radius exhausted while still improving:
    # unbounded for all practical radii
    diverged[live] = True
    best[diverged] = math.inf
    rays = np.where(diverged[:, None], points / np.linalg.norm(points, axis=1, keepdims=True).clip(1e-30), math.nan)
    return best, points, radius, rays


def _compass_refine(objective, rows: np.ndarray, per: int, points: np.ndarray, steps: np.ndarray, best: np.ndarray):
    """Compass search from each pair's point, all pairs in lockstep, dual rows
    ``rows // per`` alike at a time: ``objective`` of the 2k compass candidates
    at COMPASS_SCALES step sizes s, s/2, ...  A pair moves to its best one if
    that gains more than 1e-15, else divides s by 2^COMPASS_SCALES, and stops
    at s <= 1e-5 or after 600 steps; ``points``, ``steps`` and ``best`` change in place."""
    k = points.shape[1]
    moves = (0.5 ** np.arange(COMPASS_SCALES)[:, None, None] * np.vstack([np.eye(k), -np.eye(k)])).reshape(-1, k)
    live = np.arange(len(points))
    for _ in range(600):
        live = live[steps[live] > 1e-5]
        if not live.size:
            break
        r = rows[live] // per
        for part in (live,) if r[0] == r[-1] else np.split(live, np.flatnonzero(r[1:] != r[:-1]) + 1):
            cand = points[part, None, :] + steps[part, None, None] * moves
            vals = objective(part, cand)
            b = vals.argmax(axis=1)
            top = vals[np.arange(part.size), b]
            gain = top > best[part] + 1e-15
            best[part[gain]] = top[gain]
            points[part[gain]] = cand[gain, b[gain]]
            steps[part[~gain]] *= 0.5**COMPASS_SCALES


def _block_conjugate_grid(measure: CondRiskMeasure, ys: np.ndarray):
    """Numeric sup of E[x y | block] - rho(x) for a measure on B contiguous
    blocks of k atoms (a stack of ``riskcore._stacked``) for each row y of the
    ``(rows, B k)`` duals ``ys`` on each block, all (row, block) pairs in lockstep.

    The search leans on cash invariance, rho(x + c) = rho(x) - c, by which
    the objective moves by c (E[y] + 1) when a constant c is added to x.  A
    pair off the density simplex (|E[y] + 1| > ADMISSIBLE_TOL) first walks
    the constant ray x = c sign(E[y] + 1), along which the objective grows
    like c |E[y] + 1|: a grid whose gains shrink faster than that would stop
    at a finite value.  The ray's unit is stretched so that its first gain
    is at least 2 GRID_TOL.  Along constants the objective of a pair on the
    simplex is flat, so its grid covers only the slice E[x] = 0: the unit
    grid U is ``_grid_points(k - 1, ...)`` mapped through each block's basis
    e_j - q_j 1, j < k, and a 1-atom block's value is that at 0.  A grid of
    more than GRID_MAX_POINTS points is refused by name.  A pair doubles its
    radius until its gain falls under GRID_TOL and its interior max is
    polished by compass search, or until three consecutive growing gains
    certify divergence; the certified ray is returned.

    Each step evaluates rho on stack rows that carry one point per block, as
    locality allows, about CHUNK_ELEMENTS entries at a time: r U once for all
    pairs, and the rays' points and compass candidates in one call for a
    built-in, whose rows do not depend on the rows beside them, or per dual
    row for a user measure, whose batch function may round a row by its
    neighbours.  Each pair's E[x y] is its own matrix-vector product, so its
    value, point and ray are a one-row call's on its block's restriction, bit
    for bit.  Returns the values ``(rows, B)``, and the points and rays laid
    out as ``ys`` (NaN on each pair without a ray)."""
    space, n_rows, n_blocks = measure.space, len(ys), measure.space.n_blocks
    k = space.n_atoms // n_blocks
    q = space.cond.reshape(n_blocks, k)
    weights = (q * ys.reshape(n_rows, n_blocks, k)).reshape(-1, k)
    row, block = np.divmod(np.arange(len(weights)), n_blocks)

    def objective(p, cand):
        # E[x y] - rho(x) at the candidates (pairs, S, k) of the pairs p, in row order
        r = row[p]
        at = r - r[0] if r[0] == r[-1] else np.concatenate(([0], np.cumsum(r[1:] != r[:-1])))
        stack = np.zeros((at[-1] + 1, cand.shape[1], n_blocks, k))
        stack[at, :, block[p]] = cand
        stack = stack.reshape(at[-1] + 1, cand.shape[1], space.n_atoms)
        parts = stack if measure._kernel is None else [stack.reshape(-1, space.n_atoms)]
        risk = np.concatenate([measure.evaluate_batch(s) for s in parts]).reshape(at[-1] + 1, -1, n_blocks)
        return np.matmul(cand, weights[p, :, None])[..., 0] - risk[at, :, block[p]]

    start = np.zeros(len(weights)) - np.tile(measure.evaluate_batch(np.zeros((1, space.n_atoms)))[0], n_rows)
    values, points, rays = start.copy(), np.zeros(weights.shape), np.full(weights.shape, math.nan)
    gap = (space.block_mean(ys) + 1.0).ravel()
    off = np.flatnonzero(np.abs(gap) > ADMISSIBLE_TOL)
    if off.size:
        stretch = np.maximum(1.0, 2.0 * GRID_TOL / (GRID_RADIUS * np.abs(gap[off])))
        units = np.repeat(np.copysign(stretch, gap[off])[:, None], k, axis=1)
        best, point, _, ray = _doubling_search(
            start[off], lambda r, live: (objective(off[live], r * units[live, None])[:, 0], r * units[live]), k
        )
        hit = ~np.isnan(ray[:, 0])
        values[off[hit]], points[off[hit]], rays[off[hit]] = best[hit], point[hit], ray[hit]
    on = np.flatnonzero(np.isnan(rays[:, 0]))
    if on.size and k > 1:
        per_axis = GRID_PER_AXIS if k <= 3 else 5
        if per_axis ** (k - 1) > GRID_MAX_POINTS:
            raise DualityError(
                f"a block of {k} atoms needs a grid of {per_axis}^{k - 1} points, "
                f"over GRID_MAX_POINTS = {GRID_MAX_POINTS}"
            )
        unit = _grid_points(k - 1, 1.0, per_axis)
        basis = np.eye(k)[:-1] - q[:, :-1, None]

        def grid_best(r, live):
            b, w = block[on[live]], weights[on[live], :, None]
            top, at = np.full(live.size, -math.inf), np.zeros((live.size, k))
            # chunks of a multiple of 8 points, the last of at least 2: BLAS
            # then takes each point in the kernel the whole grid would
            step = max(8, CHUNK_ELEMENTS // (k * max(n_blocks, live.size)) // 8 * 8)
            for chunk in (unit,) if len(unit) <= step + 1 else np.split(unit, range(step, len(unit) - 1, step)):
                pts = r * np.matmul(chunk, basis)
                risk = measure.evaluate_batch(pts.transpose(1, 0, 2).reshape(len(chunk), -1))
                vals = np.matmul(pts[b], w)[..., 0] - risk.T[b]
                a = vals.argmax(axis=1)
                v = vals[np.arange(live.size), a]
                # the first max of the whole grid, NaN first, as one argmax
                new = (v > top) | (np.isnan(v) & ~np.isnan(top))
                top[new], at[new] = v[new], pts[b[new], a[new]]
            return top, at

        values[on], points[on], radius, rays[on] = _doubling_search(start[on], grid_best, k)
        # a divergent pair does not refine
        steps = np.zeros(len(weights))
        steps[on] = np.where(np.isnan(rays[on, 0]), 2.0 * radius / (per_axis - 1), 0.0)
        per = max(1, CHUNK_ELEMENTS // (2 * k * COMPASS_SCALES * space.n_atoms))
        _compass_refine(objective, row, per, points, steps, values)
    return values.reshape(n_rows, n_blocks), points.reshape(ys.shape), rays.reshape(ys.shape)


def _penalty_rows(measure: CondRiskMeasure, ys, closed_form=True, blocks=None) -> np.ndarray:
    """Penalties of the rows of ``ys`` (a dual value is one row) as ``(rows,
    n_blocks)``: the closed form, one call for every row, if ``closed_form``
    is set and the measure has one (a built-in's reads a value's copy in
    block order); else the grid conjugate of every row on the stack of the
    blocks of each size (``riskcore._stacks``) that the mask ``blocks`` marks
    (all by default), +inf on the others.  A wrong row length and a NaN penalty are refused by name."""
    space = measure.space
    rows = ys.values[None] if isinstance(ys, _Values) else ys
    _check_length(space, rows)
    if closed_form and measure.closed_form_penalty is not None:
        pen = measure._rows(measure.closed_form_penalty, rows if measure._kernel is None else ys, "penalties")
    else:
        pen = np.full((len(rows), space.n_blocks), math.inf)
        for cut, stack, atoms in _stacks(measure, blocks):
            pen[:, cut] = _block_conjugate_grid(stack, rows[:, atoms])[0]
    ConditionalValue._check(pen)
    return pen


def fenchel(measure: CondRiskMeasure, y: DualVariable) -> ConditionalValue:
    """Blockwise conjugate rho#(y) = esssup_x (E[x y | F] - rho(x)) by the grid,
    one search per block size; it never reads a closed form.  +inf entries
    signal that -y is not an admissible density for the measure there."""
    return ConditionalValue(_penalty_rows(measure, y, closed_form=False)[0])


def penalty_of(measure: CondRiskMeasure, y: DualVariable) -> ConditionalValue:
    """The measure's closed-form penalty at y where it declares one, else ``fenchel``."""
    return ConditionalValue(_penalty_rows(measure, y)[0])


def penalty_map(measure: CondRiskMeasure) -> Callable[[RandomVariable], ConditionalValue]:
    """Penalty as a map on raw payoff vectors, +inf on blocks with positive entries.

    Lets the sublevel-set machinery walk the dual space: vectors with a
    positive entry on a block are outside the density cone there.  Every
    map has a row form ``f.rows``: it takes a ``(rows, n_atoms)`` array to
    ``(rows, n_blocks)`` penalties, with the checks of ``RandomVariable``,
    ``penalty_of`` and ``ConditionalValue`` on each row, in one call of
    ``_penalty_rows``.  ``f`` is its one-row case.
    """
    space = measure.space

    def rows(vs: np.ndarray) -> np.ndarray:
        RandomVariable._check(vs)
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
    """Accepted by ``dual_representation`` alone, so that callers passing one
    still run; it has no effect: every dual comes from a fixed list of
    candidates.  Outside the tests its one caller is the ``user_dual``
    request of the benchmark (``perfbench/workloads.py``)."""

    max_iters: int = 400


@dataclass
class DualResult:
    value: ConditionalValue
    maximizer: DualVariable
    converged: List[bool]
    warnings: List[str]


def _graded(measure: CondRiskMeasure, xv: np.ndarray, y: DualVariable, blocks=None) -> np.ndarray:
    """E[x y | block] - penalty(y) by the measure's own route, ``_penalty_rows``;
    -inf on the blocks that a measure without a closed form leaves unmarked."""
    pen = _penalty_rows(measure, y, blocks=blocks)[0]
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
    cap is at least 1/q for every atom of it takes the vertex of the atom
    where x is least.  A cap below 1 leaves no density on its block; the
    first such block is refused by name."""
    space = measure.space
    cap = measure.dual_density_cap
    low = np.flatnonzero(cap < 1.0 - 1e-12)
    if low.size:
        j = int(low[0]) + 1
        raise DualityError(f"block {j}: density cap {float(cap[j - 1])!r} is infeasible, below 1")
    lam = np.minimum(1.0, np.maximum(space.block_min(space.cond), 1.0 / cap))
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
    one grid search of the blocks still short), until every block has
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
) -> RepresentationReport:
    """Compare rho(x) against the dual value for each payoff."""
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


# sublevel check: past SUBLEVEL_MAX_COMBOS choices the mixing walk takes a
# covering array; boundedness rays double their step up to SUBLEVEL_RAY_BOUND
SUBLEVEL_MAX_COMBOS = 4096
SUBLEVEL_RAY_BOUND = 2.0**40


def _walk_rows(members: int, m: int):
    """How many choices of one member per block the mixing walk takes, a map
    from an array of their indices to those choices ``(rows, m)``, and a note
    for the choices it leaves out (None when it leaves none).

    Up to SUBLEVEL_MAX_COMBOS choices, all ``members ** m`` of them in
    ``itertools.product`` order, block 1 the most significant digit.  Past
    it, a strength-2 covering array (Colbourn, *Combinatorial aspects of
    covering arrays*, Le Matematiche 2004): for each bit b of the block
    index and each ordered pair (s, t) of members, the blocks whose bit b is
    0 take s and the others take t.  Two blocks differ in some bit, so every
    pair of blocks takes every pair of members, in members^2 * ceil(log2 m)
    rows."""
    blocks = np.arange(m)
    if members**m <= SUBLEVEL_MAX_COMBOS:
        digits = members ** blocks[::-1]
        return members**m, lambda rows: rows[:, None] // digits % members, None
    pairs = members**2
    total = pairs * (m - 1).bit_length()

    def choices(rows: np.ndarray) -> np.ndarray:
        b, pair = np.divmod(rows, pairs)
        s, t = np.divmod(pair, members)
        return np.where((blocks >> b[:, None]) & 1 == 1, t[:, None], s[:, None])

    note = (
        f"mixing closure checked on a covering array of {total} of the {members}^{m} "
        "choices of members: every pair of blocks took every pair of members; "
        "couplings of three or more blocks are unchecked"
    )
    return total, choices, note


def _escapes(f, space: FiniteProbSpace, base: np.ndarray, probe: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Whether each block leaves the set {f <= level} along every ray base
    +/- t p of a probe row p, for t = 1, 2, 4, ..., SUBLEVEL_RAY_BOUND.  A
    ray is judged only on the blocks it moves: a block on which p is 0
    counts as left.  Each step is one call on the rays still inside on some
    block, and a step of such a ray past float range raises the payoff's
    ValueError."""
    dirs = np.stack([probe, -probe], axis=1).reshape(-1, probe.shape[-1])
    escaped = space.block_min(dirs == 0)
    live, t = np.flatnonzero(~escaped.all(axis=1)), 1.0
    while live.size and t <= SUBLEVEL_RAY_BOUND:
        with np.errstate(over="ignore"):
            rays = base + t * dirs[live]
        RandomVariable._check(rays)
        escaped[live] |= _values_of_rows(f, rays) > level
        live = live[~escaped[live].all(axis=1)]
        t *= 2.0
    return escaped.all(axis=0)


def stable_sublevel_check(
    space: FiniteProbSpace,
    f: Callable[[RandomVariable], ConditionalValue],
    eta: ConditionalValue,
    probe: Sequence[RandomVariable],
) -> SublevelReport:
    """Stability and boundedness of the sublevel set {v : f(v) <= eta}.

    Mixing closure walks choices of one member (a probe payoff inside the
    set) per block: all M^m of them for M members and m blocks, up to
    SUBLEVEL_MAX_COMBOS, and past it a covering array in which every pair of
    blocks takes every pair of members (``_walk_rows``), which says so in
    ``notes``.  A mix along any partition of unity is the mix along the
    blocks that gives each block its part's member, so coarser partitions
    add nothing.  Closure follows from locality: a violation means the
    caller's local-property certificate was wrong.  Boundedness is probed by
    step-doubling rays along +/- each probe member; the verdict is only
    complete up to the span of the probe.

    ``f`` is called through its row form ``f.rows`` where it has one (every
    ``penalty_map`` has), else on one payoff at a time, in order.  The probe
    is screened in one call.  With one block or at most one member every
    choice is a member, so nothing is walked.  Else the walk pastes its
    choices in row batches (``_row_batches``) of about CHUNK_ELEMENTS >> 5
    payoff entries at first, doubling up to about CHUNK_ELEMENTS, and stops
    after the batch that holds the first violation, which it reports.  The
    rays are taken step by step (``_escapes``) from the first member, along
    + and - each probe payoff, and each ray is judged on the blocks it moves.
    """
    if not probe:
        raise ValueError("probe must be nonempty")
    level = space._check_cv(eta)
    n, m = space.n_atoms, space.n_blocks

    vs = np.stack([v.values for v in probe])
    inside = np.all(_values_of_rows(f, vs) <= level, axis=1)
    members = vs[inside]
    notes = []
    if not len(members):
        notes.append("no probe member lies in the sublevel set; verdicts vacuous")

    # mixed payoffs are pasted from one stack of the members: a choice picks
    # a member (a row) per block, broadcast to one row index per atom.  With
    # one block or at most one member, every choice is a member the
    # screening already evaluated: there is nothing to walk
    violation = None
    if m > 1 and len(members) > 1:
        cols = np.arange(n)
        total, choices, note = _walk_rows(len(members), m)
        for done, size in _row_batches(n, total):
            batch = choices(np.arange(done, done + size))
            vals = _values_of_rows(f, members[space.broadcast(batch), cols])
            outside = ~np.all(vals <= level, axis=1)
            if outside.any():
                violation = {
                    "partition": [[j] for j in range(1, m + 1)],
                    "choice": members[batch[int(np.argmax(outside))]].tolist(),
                }
                break
        if violation is None and note is not None:
            notes.append(note)
    mixing_ok = violation is None

    # without a member no ray moves a block: every block is vacuously bounded
    bounded = _escapes(f, space, vs[inside.argmax()], vs * inside.any(), level).tolist()

    inf_compact = [mixing_ok and b for b in bounded]
    return SublevelReport(
        mixing_closure_passed=mixing_ok,
        mixing_violation=violation,
        members=len(members),
        bounded_per_block=bounded,
        inf_compact_per_block=inf_compact,
        notes=notes,
    )


def _bounded_blocks(space: FiniteProbSpace, f, eta: ConditionalValue, probe: Sequence[RandomVariable]) -> np.ndarray:
    """What ``stable_sublevel_check`` gives each block of ``space`` when run
    on that block alone, with the probe cut to it: whether the block's
    sublevel set is bounded and mixing-closed.  On one block every choice is
    a member, so no mix is walked.  The members of a block are the probes
    inside the set there; its rays start at its first member and run along
    + and - each probe (``_escapes``).  A block without a member is
    vacuously bounded: no ray moves it."""
    level = space._check_cv(eta)
    vs = np.stack([v.values for v in probe])
    inside = _values_of_rows(f, vs) <= level
    base = vs[space.broadcast(inside.argmax(axis=0)), np.arange(space.n_atoms)]
    return _escapes(f, space, base, vs * space.broadcast(inside.any(axis=0)), level)
