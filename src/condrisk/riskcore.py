"""Conditional risk measures: the abstraction, built-in instances, checkers.

A conditional risk measure maps payoffs to one finite risk figure per block.
Built-ins cover the negated conditional mean, the conditional worst case, the
conditional entropic measure, and conditional average value at risk; each one
carries its closed-form dual penalty for cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable, SpaceError, _cv, _readonly

# a dual variable y is an admissible density when y <= 0 and E[y | block] = -1
ADMISSIBLE_TOL = 1e-10
# payoff entries per chunk of a built-in's batch: bounds its temporaries
CHUNK_ELEMENTS = 1 << 16
# off-block value of the second extension that a padded restriction is probed with
EXTENSION_FILL = 17.5
# cond_avar sorts rows at least this long on one packed key; below it the
# key's fixed cost outweighs the sort it saves (single rows broke even at
# 1,024-2,048 atoms on a 2-vCPU Xeon with AVX-512)
PACKED_SORT_MIN_ATOMS = 2048


class RiskMeasureError(CondriskError):
    pass


class UndominatedSequenceError(CondriskError):
    """A convergence sequence spec exceeds its declared dominator."""


class ScalarizeError(CondriskError):
    """A block restriction that is not well defined: its figure depends on
    the measure's other blocks."""


@dataclass(frozen=True)
class CondRiskMeasure:
    """Evaluable payoff-to-conditional-risk map with optional dual metadata.

    ``evaluate_fn`` maps one payoff to its blockwise risk.  ``evaluate_batch_fn``
    is the hook for a vectorized user measure: it maps a ``(rows, n_atoms)``
    array to ``(rows, n_blocks)`` risks, and ``evaluate_batch`` loops over
    ``evaluate_fn`` without it.  Built-ins supply one batched function over the
    last axis and evaluate a single payoff as a one-row case of it.
    ``closed_form_penalty`` has the contract of ``evaluate_batch_fn``: it maps
    a ``(rows, n_atoms)`` array of raw dual vectors (all <= 0) to ``(rows,
    n_blocks)`` penalties, +inf where a row is not an admissible density for
    the measure, and a result of another shape is refused by name.  Built-ins
    pass their batched penalty as it is.  A user measure's dual comes from
    candidate duals graded by its own penalty, central differences of its
    risk first; ``dual_density_cap(j)`` gives block ``j``'s bound on the
    density, or None, and adds the fill to that cap to the candidates for
    the blocks the differences leave short.  ``restrict(j)`` cuts block
    ``j`` out as a classical measure on one block, which is what the dual
    engine works on: a built-in rebuilds itself there natively, a user
    measure is padded back to the whole space and checked for that padding.
    A built-in also carries its exact dual oracle ``_dual_oracle``: it maps a
    ``(rows, n_atoms)`` array of payoffs to nonnegative weights of that shape
    whose normalization on each block is the density that attains the
    block's risk.

    A measure is immutable, so its hooks, its restriction and its oracle
    cannot drift apart.  A measure with another hook is a new measure, made
    with ``dataclasses.replace``; that leaves ``_cut`` and ``_dual_oracle``
    unset, so the copy is a user measure: a padded restriction, and duals
    from the candidates graded by the hooks it holds.
    """

    space: FiniteProbSpace
    evaluate_fn: Callable[[RandomVariable], ConditionalValue]
    label: str
    closed_form_penalty: Optional[Callable[[np.ndarray], np.ndarray]] = None
    evaluate_batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dual_density_cap: Optional[Callable[[int], Optional[float]]] = None
    params: dict = field(default_factory=dict)
    # built-ins only: ``cut(block_space, j)`` builds the same built-in on
    # block j's space with block j's parameter
    _cut: Optional[Callable[[FiniteProbSpace, int], "CondRiskMeasure"]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _dual_oracle: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def evaluate(self, x: RandomVariable) -> ConditionalValue:
        out = self._evaluate_one(x)
        if not np.all(np.isfinite(out.values)):
            raise RiskMeasureError(f"{self.label} produced a non-finite risk value")
        return out

    def _evaluate_one(self, x: RandomVariable) -> ConditionalValue:
        self.space._check_rv(x)
        out = self.evaluate_fn(x)
        self.space._check_cv(out)
        return out

    def __call__(self, x: RandomVariable) -> ConditionalValue:
        return self.evaluate(x)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Risk of each row of ``xs``; falls back to looping over evaluate_fn.

        A batch function's result must have shape ``(rows, n_blocks)``.
        Unlike ``evaluate`` it passes non-finite risks through, batch
        function or not, and leaves them to the caller.
        """
        xs = np.asarray(xs, dtype=float)
        if self.evaluate_batch_fn is None:
            return np.stack([self._evaluate_one(RandomVariable(row)).values for row in xs])
        return self._rows(self.evaluate_batch_fn, xs, "risks")

    def _rows(self, fn, xs: np.ndarray, what: str) -> np.ndarray:
        """``fn(xs)`` of a row hook, refused by name unless ``(rows, n_blocks)``."""
        out = np.asarray(fn(xs), dtype=float)
        if out.shape != (len(xs), self.space.n_blocks):
            raise SpaceError(
                f"{self.label} returned {what} of shape {out.shape}, "
                f"expected {(len(xs), self.space.n_blocks)}"
            )
        return out

    def restrict(self, j: int) -> "CondRiskMeasure":
        """Block ``j`` as a measure on ``space.block_space(j)``.

        The one place a block is cut out of the space.  A built-in is built
        anew on the block's space with block ``j``'s parameter, so its work
        and its ``params`` are the block's alone.  A user measure, a
        ``dataclasses.replace`` copy of a built-in included, is padded:
        block payoffs are extended by 0 and block duals by -1, the parent's
        column ``j`` is read back, and the cap hook is the parent's at
        ``j``.  The padding is checked once, exactly: two probe
        payoffs, each extended by 0 and by EXTENSION_FILL, must give the same
        figure on block ``j``, or ScalarizeError is raised.  Block
        coordinates follow ``space.block_index_array(j)``, so a measure on
        one block that lists its atoms in order is its own restriction.
        """
        space = self.space
        idx = space.block_index_array(j)
        n = space.n_atoms
        if space.n_blocks == 1 and space.blocks[0] == tuple(range(1, n + 1)):
            return self
        if self._cut is not None:
            block = self._cut(space.block_space(j), j)
            object.__setattr__(block, "label", f"{self.label}@block{j}")
            return block
        col = slice(j - 1, j)

        def pad(rows: np.ndarray, fill: float) -> np.ndarray:
            full = np.full((rows.shape[0], n), fill)
            full[:, idx] = rows
            return full

        def ev_batch(xs: np.ndarray, fill: float = 0.0) -> np.ndarray:
            return self.evaluate_batch(pad(xs, fill))[:, col]

        probes = np.stack([np.zeros(idx.size), np.linspace(-1.0, 1.0, idx.size)])
        lo, hi = ev_batch(probes)[:, 0], ev_batch(probes, EXTENSION_FILL)[:, 0]
        if np.any(lo != hi):
            p = int(np.argmax(lo != hi))
            raise ScalarizeError(
                f"block {j} restriction depends on the extension: "
                f"{float(lo[p])!r} vs {float(hi[p])!r}"
            )

        pen = cap = None
        if self.closed_form_penalty is not None:
            pen = lambda ys: self._rows(self.closed_form_penalty, pad(ys, -1.0), "penalties")[:, col]
        if self.dual_density_cap is not None:
            cap = lambda _: self.dual_density_cap(j)
        return CondRiskMeasure(
            space.block_space(j),
            lambda x: _cv(_readonly(ev_batch(x.values[None])[0])),
            f"{self.label}@block{j}",
            closed_form_penalty=pen,
            evaluate_batch_fn=ev_batch,
            dual_density_cap=cap,
            params=dict(self.params),
        )


def _row_batches(n_atoms: int, total: int):
    """``(start, size)`` of row batches that cover ``total`` rows.

    The first batch holds about CHUNK_ELEMENTS >> 5 payoff entries (at least
    one row), so a small space starts with as many rows as a call can take
    for about its fixed cost; the sizes then double up to about
    CHUNK_ELEMENTS entries."""
    cap = max(1, CHUNK_ELEMENTS // n_atoms)
    start, size = 0, max(1, (CHUNK_ELEMENTS >> 5) // n_atoms)
    while start < total:
        size = min(size, cap, total - start)
        yield start, size
        start += size
        size *= 2


def _builtin(space, label, batch, penalty, cut, oracle, **dual) -> CondRiskMeasure:
    """A built-in from its batched risk (rows of payoffs), its batched penalty
    (rows of duals), ``cut(block_space, j)``, which builds it on one block
    for ``restrict``, and its dual oracle (rows of payoffs to weights).

    Batches run in chunks of rows of about CHUNK_ELEMENTS payoff entries, so a
    batch's full-size temporaries stay that small however many rows it has.
    """
    step = max(1, CHUNK_ELEMENTS // space.n_atoms)

    def batch_fn(xs: np.ndarray) -> np.ndarray:
        if len(xs) <= step:
            return batch(xs)
        return np.concatenate([batch(xs[i : i + step]) for i in range(0, len(xs), step)])

    measure = CondRiskMeasure(
        space,
        lambda x: ConditionalValue(batch(x.values[None])[0]),
        label,
        closed_form_penalty=penalty,
        evaluate_batch_fn=batch_fn,
        **dual,
    )
    object.__setattr__(measure, "_cut", cut)
    object.__setattr__(measure, "_dual_oracle", oracle)
    return measure


def _admissible_mask(space: FiniteProbSpace, y: np.ndarray) -> np.ndarray:
    """Blocks on which -y is a conditional density (within ADMISSIBLE_TOL)."""
    return (space.block_max(y) <= ADMISSIBLE_TOL) & (
        np.abs(space.block_mean(y) + 1.0) <= ADMISSIBLE_TOL
    )


def _zero_where(ok: np.ndarray) -> np.ndarray:
    return np.where(ok, 0.0, math.inf)


def neg_cond_expectation(space: FiniteProbSpace) -> CondRiskMeasure:
    """rho(x) = -E[x | F]."""
    return _builtin(
        space,
        "neg_expectation",
        lambda xs: -space.block_mean(xs),
        lambda y: _zero_where(space.block_max(np.abs(y + 1.0)) <= ADMISSIBLE_TOL),
        lambda block, j: neg_cond_expectation(block),
        lambda xs: np.ones(xs.shape),
    )


def cond_worst_case(space: FiniteProbSpace) -> CondRiskMeasure:
    """rho(x) = esssup(-x | F), the conditional worst case.

    The dual oracle puts each block's mass on the first atom, in block order,
    where x is least.
    """
    ids, starts = space._block_in_order, space.starts

    def oracle(xs: np.ndarray) -> np.ndarray:
        a = xs.take(space.order, axis=-1)
        least = a == np.minimum.reduceat(a, starts, axis=-1).take(ids, axis=-1)
        place = np.where(least, np.arange(a.shape[-1]), a.shape[-1])
        first = np.minimum.reduceat(place, starts, axis=-1)
        w = np.zeros(xs.shape)
        np.put_along_axis(w, space.order.take(first), 1.0, axis=-1)
        return w

    return _builtin(
        space,
        "worst_case",
        lambda xs: -space.block_min(xs),
        lambda y: _zero_where(_admissible_mask(space, y)),
        lambda block, j: cond_worst_case(block),
        oracle,
    )


def _as_block_params(space: FiniteProbSpace, value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or one number per block") from None
    if arr.ndim == 0:
        arr = np.full(space.n_blocks, float(arr))
    if arr.shape != (space.n_blocks,):
        raise ValueError(f"{name} must be a scalar or one value per block")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    # a copy, read-only: the measure's closures and its params share it
    return _readonly(arr)


def cond_entropic(space: FiniteProbSpace, gamma) -> CondRiskMeasure:
    """rho(x) = (1/gamma) log E[exp(-gamma x) | F], gamma > 0 per block.

    The dual oracle is the Gibbs density, exp(-gamma x) normalized on each
    block.
    """
    g = _as_block_params(space, gamma, "gamma")
    if np.any(g <= 0):
        raise ValueError("gamma must be strictly positive")
    ids, starts = space._block_in_order, space.starts
    neg_g = -g.take(ids)

    def tilt(xs: np.ndarray):
        """exp(-gamma x - top) in block order, with top the block's largest
        -gamma x: one gather into block order, and every later step stays
        there."""
        a = xs.take(space.order, axis=-1)
        a *= neg_g
        top = np.maximum.reduceat(a, starts, axis=-1)
        a -= top.take(ids, axis=-1)
        np.exp(a, out=a)
        return a, top

    def batch(xs: np.ndarray) -> np.ndarray:
        a, top = tilt(xs)
        a *= space._cond_in_order
        return (top + np.log(np.add.reduceat(a, starts, axis=-1))) / g

    def oracle(xs: np.ndarray) -> np.ndarray:
        w = np.empty(xs.shape)
        w[..., space.order] = tilt(xs)[0]
        return w

    def penalty(y: np.ndarray) -> np.ndarray:
        d = np.maximum(-y, 0.0)
        ent = np.where(d > 0, d * np.log(np.maximum(d, 1e-300)), 0.0)
        return np.where(_admissible_mask(space, y), space.block_mean(ent) / g, math.inf)

    return _builtin(
        space,
        "entropic",
        batch,
        penalty,
        lambda block, j: cond_entropic(block, g[j - 1]),
        oracle,
        params={"gamma": g},
    )


def _two_sorts(space: FiniteProbSpace, mass_fixed: np.ndarray, xs: np.ndarray):
    """Fixed-point masses and payoffs of each row, grouped by block in block
    order with each block's payoffs ascending, and the atom at each place:
    each row gathered into block order, then a stable sort by payoff and a
    stable sort of the block ids (a radix sort for small integer ids).  Tied
    payoffs keep their block order, as in the packed key."""
    rows = np.arange(len(xs))[:, None]
    v = xs.take(space.order, axis=-1)
    at = v.argsort(axis=-1, kind="stable")
    at = at[rows, space._block_in_order[at].argsort(axis=-1, kind="stable")]
    order = space.order[at]
    return mass_fixed[order], v[rows, at], order


def _packed_sort(
    space: FiniteProbSpace, mass_fixed: np.ndarray, layout: tuple, xs: np.ndarray, atoms: bool
):
    """What ``_two_sorts`` returns, from one sort of a packed key per row;
    the atoms are None unless ``atoms`` asks for them.

    The rows are gathered into block order and keyed (``layout`` is built by
    ``cond_avar``).  A row whose sorted payoffs decrease inside a block, as
    two payoffs cut to one bucket may, goes through ``_two_sorts`` instead.
    """
    mass, base, frame, block_bits, value_mask, pos_mask, first = layout
    v = xs.take(space.order, axis=-1)
    # order-preserving bits: flip every bit of a negative, set the sign bit of a positive
    key = (v.view(np.int64) >> 63).view(np.uint64)
    key |= np.uint64(1 << 63)
    key ^= v.view(np.uint64)
    key >>= block_bits
    key &= value_mask
    key |= frame
    key.sort(axis=-1)
    key &= pos_mask
    at = key.view(np.int64)
    at += base
    fixed = mass.take(at)
    where = space.order.take(at) if atoms else None
    at += np.arange(0, v.size, v.shape[-1])[:, None]  # index into the flat rows
    vals = v.take(at)
    # NaN compares false, so a block holding one is sorted again too
    bad = ~np.all((vals[:, 1:] >= vals[:, :-1]) | first, axis=-1)
    if bad.any():
        fixed[bad], vals[bad], redone = _two_sorts(space, mass_fixed, xs[bad])
        if atoms:
            where[bad] = redone
    return fixed, vals, where


def cond_avar(space: FiniteProbSpace, lam) -> CondRiskMeasure:
    """Conditional average value at risk at level lambda in (0, 1] per block.

    Per block: sort the losses -x, take conditional mass until lambda is
    filled, splitting the boundary atom fractionally, and average.  All blocks
    are sorted at once, grouped by block with the largest losses first.  A
    row of at least PACKED_SORT_MIN_ATOMS atoms is sorted once, on a 64-bit
    key that packs, high to low, the block id, the top bits of the payoff's
    order-preserving bit pattern and the atom's position in its block.
    Cutting the payoff's bits can put two distinct payoffs of one block in
    one bucket, so a row whose sorted payoffs decrease inside a block is
    sorted again the exact way.  Shorter rows take that way at once: a stable
    sort by payoff in block order, then a stable sort of the block ids, so
    both ways order tied payoffs by block order.  Blocks at lambda = 1 take
    the plain conditional mean of the loss.

    The dual oracle reads the same sort and the same fixed-point tail: each
    atom's density is the mass it gives the tail over lambda times its own
    mass, so the boundary atom is fractional and no density exceeds
    1/lambda; blocks at lambda = 1 take the density 1.
    """
    lam_arr = _as_block_params(space, lam, "lambda")
    if np.any(lam_arr <= 0) or np.any(lam_arr > 1):
        raise ValueError("lambda must lie in (0, 1]")
    full = lam_arr >= 1.0
    any_full = bool(full.any())
    starts = space.starts
    packed = space.n_atoms >= PACKED_SORT_MIN_ATOMS

    @functools.cache
    def fill_tables():
        # Conditional masses in fixed point, so running sums over a row are
        # exact whatever order the atoms took.  Block j's tail is filled up to
        # ``limit``: lambda plus the mass of all blocks before j.  Built on the
        # first evaluation: a scenario builds every measure it lists.
        scale = 2.0 ** min(52, 62 - space.n_blocks.bit_length())
        mass_fixed = (space.cond * scale).astype(np.int64)
        block_fixed = space.block_sum(mass_fixed)
        before = np.add.accumulate(block_fixed) - block_fixed + (lam_arr * scale).astype(np.int64)
        # once grouped, position i of a row lies in block _block_in_order[i]
        ids = space._block_in_order
        layout = None
        if packed:
            # key fields, high to low: block id, payoff bits, position in block
            block_bits = (space.n_blocks - 1).bit_length()
            base = starts[ids]
            pos = np.arange(space.n_atoms) - base
            pos_bits = int(pos.max()).bit_length()
            frame = (ids.astype(np.uint64) << np.uint64(64 - block_bits)) if block_bits else 0
            layout = (
                mass_fixed[space.order],
                base,
                pos.astype(np.uint64) | frame,
                np.uint64(block_bits),
                np.uint64(((1 << (64 - block_bits)) - 1) & -(1 << pos_bits)),
                np.uint64((1 << pos_bits) - 1),
                ids[1:] != ids[:-1],  # position i + 1 starts a block
            )
        return mass_fixed, before[ids], lam_arr * -scale, layout

    def tail(xs: np.ndarray, atoms: bool = False):
        """Each row sorted: the fixed-point masses, the payoffs, the mass
        each atom gives its block's tail, and the atom at each place (None
        unless ``atoms`` asks for them)."""
        mass_fixed, limit, _, layout = fill_tables()
        if packed:
            fixed, vals, where = _packed_sort(space, mass_fixed, layout, xs, atoms)
        else:
            fixed, vals, where = _two_sorts(space, mass_fixed, xs)
        # mass taken from each atom: what is left of limit after the atoms ahead
        take = np.add.accumulate(fixed, axis=-1)
        take -= fixed
        np.subtract(limit, take, out=take)
        np.maximum(take, 0, out=take)
        np.minimum(take, fixed, out=take)
        return fixed, vals, take, where

    def batch(xs: np.ndarray) -> np.ndarray:
        _, vals, take, _ = tail(xs)
        vals *= take
        out = np.add.reduceat(vals, starts, axis=-1) / fill_tables()[2]  # -lambda, fixed point
        return np.where(full, -space.block_mean(xs), out) if any_full else out

    def oracle(xs: np.ndarray) -> np.ndarray:
        fixed, _, take, where = tail(xs, atoms=True)
        dens = np.divide(take, fixed, out=np.zeros(fixed.shape), where=fixed > 0)
        if any_full:
            dens[..., full[space._block_in_order]] = 1.0
        w = np.empty(xs.shape)
        np.put_along_axis(w, where, dens, axis=-1)
        return w

    def penalty(y: np.ndarray) -> np.ndarray:
        capped = space.block_max(-y) <= 1.0 / lam_arr + ADMISSIBLE_TOL
        return _zero_where(_admissible_mask(space, y) & capped)

    return _builtin(
        space,
        "avar",
        batch,
        penalty,
        lambda block, j: cond_avar(block, lam_arr[j - 1]),
        oracle,
        dual_density_cap=lambda j: 1.0 / lam_arr[j - 1],
        params={"lambda": lam_arr},
    )


BUILTIN_FACTORIES = {
    "neg_expectation": lambda space, **kw: neg_cond_expectation(space),
    "worst_case": lambda space, **kw: cond_worst_case(space),
    "entropic": lambda space, **kw: cond_entropic(space, kw["gamma"]),
    "avar": lambda space, **kw: cond_avar(space, kw["lambda"]),
}


# -- axiom checks -------------------------------------------------------------

AXIOMS = (
    "convexity",
    "monotonicity",
    "cash_invariance",
    "local_property",
    "conditional_law_invariance",
)


@dataclass
class AxiomReport:
    axiom: str
    trials: int
    passed: bool
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"axiom": self.axiom, "trials": self.trials, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# slack allowed between the two sides of an axiom before a trial fails
AXIOM_TOL = 1e-9


def _check_seed(seed) -> None:
    """Refuse a seed that numpy's generators cannot take, or a bool, by name."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_count(count, name: str) -> None:
    """Refuse a count that is not a positive integer, or a bool, by name."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {count!r}")


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that no comparison can use: NaN, negative or infinite."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _equal_mass_groups(space: FiniteProbSpace) -> tuple:
    """Groups of atoms of one block whose conditional masses agree to 12
    decimals: the atoms of every group, group after group and in block
    order inside each, and the group label of each.

    A conditional law survives any shuffle inside a group.  One-atom groups
    are left out: their shuffle is the identity.
    """
    mass = np.round(space._cond_in_order, 12)
    # stable: a group's atoms stay in block order
    s = np.lexsort((mass, space._block_in_order))
    block, mass = space._block_in_order[s], mass[s]
    label = np.cumsum(np.r_[True, (block[1:] != block[:-1]) | (mass[1:] != mass[:-1])]) - 1
    shared = np.bincount(label)[label] > 1
    return space.order[s][shared], label[shared]


# the inputs a trial may draw, each from its own child stream of the seed, in
# the order of ``SeedSequence(seed).spawn``; trial t is row t of each stream
TRIAL_INPUTS = ("x", "y", "eta", "up", "on", "keys")
# what a trial of each axiom draws: the payoffs x, then what the axiom needs
_AXIOM_INPUTS = {
    "convexity": ("x", "y", "eta"),
    "monotonicity": ("x", "up"),
    "cash_invariance": ("x", "eta"),
    "local_property": ("x", "on"),
    "conditional_law_invariance": ("x", "keys"),
}


def _trial_streams(axiom: str, seed: int) -> list:
    """One generator for each input of ``axiom``, on that input's child stream."""
    children = np.random.SeedSequence(seed).spawn(len(TRIAL_INPUTS))
    return [np.random.default_rng(children[TRIAL_INPUTS.index(name)]) for name in _AXIOM_INPUTS[axiom]]


def _draw_trials(axiom: str, space: FiniteProbSpace, streams: list, groups: tuple, size: int) -> list:
    """Inputs of the next ``size`` trials, one generator call per input array.

    Trial t is row t of each input's stream, wherever the batches are cut.
    A law-preserving permutation sorts each equal-mass group (``groups``, as
    ``_equal_mass_groups`` gives it) by the trial's keys, one random key per
    atom: the group's i-th slot takes the atom with the group's i-th
    smallest key.  Atoms outside every group keep their place.
    """
    n, m = space.n_atoms, space.n_blocks
    x, rng = streams[0].normal(0.0, 2.0, (size, n)), streams[1]
    if axiom == "convexity":
        return [x, rng.normal(0.0, 2.0, (size, n)), streams[2].uniform(0.0, 1.0, (size, m))]
    if axiom == "monotonicity":
        return [x, np.abs(rng.normal(0.0, 1.0, (size, n)))]
    if axiom == "cash_invariance":
        return [x, rng.normal(0.0, 2.0, (size, m))]
    if axiom == "local_property":
        # a uniform element of the block algebra: each block in with chance 1/2
        return [x, rng.random((size, m)) < 0.5]
    members, labels = groups
    perm = np.arange(n)[None].repeat(size, axis=0)
    if members.size:
        # one stable sort by (group label, key): numpy orders complex numbers
        # by their real parts, then by their imaginary parts
        keys = rng.random((size, n))[:, members]
        perm[:, members] = members[np.argsort(labels + 1j * keys, axis=-1, kind="stable")]
    return [x, perm]


def _axiom_sides(axiom: str, space: FiniteProbSpace, risk, x: np.ndarray, *drawn):
    """Both sides of the axiom for a batch of trials, and the blocks that fail."""
    if axiom == "convexity":
        y, eta = drawn
        weight = space.broadcast(eta)
        lhs = risk(weight * x + (1.0 - weight) * y)
        rhs = eta * risk(x) + (1.0 - eta) * risk(y)
        return lhs, rhs, lhs > rhs + AXIOM_TOL
    if axiom == "monotonicity":
        (up,) = drawn
        lhs, rhs = risk(x + up), risk(x)
        return lhs, rhs, lhs > rhs + AXIOM_TOL
    if axiom == "cash_invariance":
        (eta,) = drawn
        lhs, rhs = risk(x + space.broadcast(eta)), risk(x) - eta
        return lhs, rhs, np.abs(lhs - rhs) > AXIOM_TOL
    if axiom == "local_property":
        (on,) = drawn
        lhs, rhs = risk(x), risk(x * space.broadcast(on))
        return lhs, rhs, on & (np.abs(lhs - rhs) > AXIOM_TOL)
    (perm,) = drawn
    lhs, rhs = risk(x), risk(x[np.arange(len(x))[:, None], perm])
    return lhs, rhs, np.abs(lhs - rhs) > AXIOM_TOL


def _first_failure(measure: CondRiskMeasure, axiom: str, inputs: list) -> Optional[tuple]:
    """``(trial, block, lhs, rhs)`` of the first failing trial of a batch, or None.

    As if the trials ran one by one, a non-finite risk or an error in that
    trial or an earlier one is raised, and nothing after it.  So a batch that
    raises is run again a trial at a time to place the error.
    """
    space = measure.space
    try:
        # a side is finite exactly when the risks it is made of are
        with np.errstate(invalid="ignore"):
            lhs, rhs, bad = _axiom_sides(axiom, space, measure.evaluate_batch, *inputs)
    except Exception:
        if len(inputs[0]) == 1:
            raise
        for i in range(len(inputs[0])):
            found = _first_failure(measure, axiom, [a[i : i + 1] for a in inputs])
            if found is not None:
                return (i, *found[1:])
        raise
    failing = bad.any(axis=-1)
    first = int(np.argmax(failing)) if failing.any() else len(failing)
    finite = np.isfinite(lhs).all(axis=-1) & np.isfinite(rhs).all(axis=-1)
    if not finite[: first + 1].all():
        raise RiskMeasureError(f"{measure.label} produced a non-finite risk value")
    if first == len(failing):
        return None
    block = int(np.argmax(bad[first])) + 1
    return first, block, float(lhs[first, block - 1]), float(rhs[first, block - 1])


def check_axiom(
    measure: CondRiskMeasure,
    axiom: str,
    trials: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Sampled check of one defining axiom; violations become report content.

    Each input of a trial (``TRIAL_INPUTS``) has its own child stream of
    ``SeedSequence(seed)``, and trial t is row t of each stream.  Trials are
    drawn and evaluated in row batches (``_row_batches``) of about
    CHUNK_ELEMENTS >> 5 payoff entries at first, doubling up to about
    CHUNK_ELEMENTS, so an early failure costs few evaluations and memory does
    not grow with ``trials``.  The first failing trial is
    reported; a non-finite risk in that trial or an earlier one raises
    RiskMeasureError, and an error the measure raises there is raised.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")
    _check_count(trials, "trials")
    _check_seed(seed)
    space = measure.space
    streams = _trial_streams(axiom, seed)
    groups = _equal_mass_groups(space) if axiom == "conditional_law_invariance" else None
    for done, size in _row_batches(space.n_atoms, trials):
        inputs = _draw_trials(axiom, space, streams, groups, size)
        found = _first_failure(measure, axiom, inputs)
        if found is not None:
            first, block, lhs, rhs = found
            return AxiomReport(
                axiom,
                trials,
                False,
                {
                    "trial": done + first,
                    "block": block,
                    "x": inputs[0][first].tolist(),
                    "lhs": lhs,
                    "rhs": rhs,
                },
            )
    return AxiomReport(axiom, trials, True)


def check_all_axioms(measure: CondRiskMeasure, trials: int = 100, seed: int = 0):
    return {axiom: check_axiom(measure, axiom, trials, seed) for axiom in AXIOMS}


# -- convergence checks --------------------------------------------------------


@dataclass(frozen=True)
class ShrinkingPerturbationSeq:
    """x_n = x + (1/n) d, truncated at n_max >= 1; converges to x."""

    x: RandomVariable
    d: RandomVariable
    n_max: int
    dominator: Optional[RandomVariable] = None

    def __post_init__(self):
        _check_count(self.n_max, "n_max")

    def limit(self) -> RandomVariable:
        return self.x

    def term(self, n: int) -> RandomVariable:
        return RandomVariable(self.x.values + self.d.values / n)

    def check_dominated(self) -> None:
        if self.dominator is None:
            return
        bound = self.dominator.values
        # |x + t d| over t in [0, 1] peaks at an endpoint
        for t in (self.term(1), self.x):
            if np.any(np.abs(t.values) > bound + 1e-12):
                raise UndominatedSequenceError("a sequence term exceeds the dominator")


@dataclass
class ConvergenceReport:
    property: str
    passed: bool
    max_deviation: float
    observed_order: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "property": self.property,
            "passed": self.passed,
            "max_deviation": self.max_deviation,
        }
        if self.observed_order is not None:
            out["order"] = self.observed_order
        return out


def check_convergence_property(
    measure: CondRiskMeasure,
    prop: str,
    sequence,
    tol: float = 1e-3,
) -> ConvergenceReport:
    """Fatou / Lebesgue verdict for a finitely described dominated sequence.

    The sequence is a shrinking perturbation, sampled at geometrically spaced
    indices up to n_max; the convergence order is estimated from the two
    largest sampled indices.
    The limit and the sampled terms are evaluated in one batch; a non-finite
    risk among them raises RiskMeasureError, as ``evaluate`` does.
    """
    if prop not in ("fatou", "lebesgue"):
        raise ValueError("property must be 'fatou' or 'lebesgue'")
    _check_tol(tol)
    if not isinstance(sequence, ShrinkingPerturbationSeq):
        raise TypeError("unsupported sequence spec")
    sequence.check_dominated()

    space = measure.space
    ns = sorted({min(2**k, sequence.n_max) for k in range(0, 64) if 2**k <= sequence.n_max} | {sequence.n_max})
    limit = space._check_rv(sequence.limit())
    # x + d / n for every sampled n, as ``term`` builds each
    terms = limit + space._check_rv(sequence.d) / np.array(ns)[:, None]
    if not np.all(np.isfinite(terms)):
        raise ValueError("random variable entries must be finite")
    risks = measure.evaluate_batch(np.concatenate([limit[None], terms]))
    if not np.all(np.isfinite(risks)):
        raise RiskMeasureError(f"{measure.label} produced a non-finite risk value")
    limit_vals, values = risks[0], risks[1:]
    devs = np.max(np.abs(values - limit_vals), axis=1).tolist()
    order = None
    if len(ns) >= 2 and devs[-1] > 0 and devs[-2] > 0:
        order = math.log(devs[-2] / devs[-1]) / math.log(ns[-1] / ns[-2])
    if prop == "fatou":
        # liminf estimated from the last sampled indices; the truncation error
        # there is O(1/n_max), which the caller's tolerance must absorb
        tail = np.min(values[-2:], axis=0)
        passed = bool(np.all(tail >= limit_vals - tol))
    else:
        passed = devs[-1] <= tol
    return ConvergenceReport(prop, passed, devs[-1], order)
