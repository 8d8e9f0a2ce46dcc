"""Conditional risk measures: the abstraction, built-in instances, checkers.

A conditional risk measure maps payoffs to one finite risk figure per block.
Built-ins cover the negated conditional mean, the conditional worst case, the
conditional entropic measure, and conditional average value at risk; each one
carries its closed-form dual penalty for cross-checks.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable, SpaceError, _cv, _readonly

# a dual variable y is an admissible density when y <= 0 and E[y | block] = -1
ADMISSIBLE_TOL = 1e-10
# payoff entries per chunk of a built-in's batch: bounds its temporaries
CHUNK_ELEMENTS = 1 << 16
# the CPUs this process may run on; the chunks of a built-in's batch are shared among them
_CPUS = tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else tuple(range(os.cpu_count() or 1))
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
    risk first; ``dual_density_cap`` bounds the density on each block, a
    scalar or one finite value per block kept as a read-only array, and adds
    the fill to that cap to the candidates for the blocks the differences
    leave short.  ``restrict(j)`` cuts block ``j`` out as a classical
    measure on one block: the one-block case of ``_stacked``, the cut the
    dual engine and the transfer suite work on, where a built-in becomes its
    dense classical kernel (``_kernel``) and any other measure is padded
    back to the whole space and checked for that padding.
    A built-in also carries its exact dual oracle ``_dual_oracle``: it maps a
    ``(rows, n_atoms)`` array of payoffs to nonnegative weights of that shape
    whose normalization on each block is the density that attains the
    block's risk.

    A measure is immutable, so its hooks, its restriction and its oracle
    cannot drift apart.  A measure with another hook is a new measure, made
    with ``dataclasses.replace``; that leaves ``_kernel`` and ``_dual_oracle``
    unset, so the copy is a user measure: a padded cut, and duals from the
    candidates graded by the hooks it holds.
    """

    space: FiniteProbSpace
    evaluate_fn: Callable[[RandomVariable], ConditionalValue]
    label: str
    closed_form_penalty: Optional[Callable[[np.ndarray], np.ndarray]] = None
    evaluate_batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dual_density_cap: Optional[np.ndarray] = None
    # built-ins only: the kind of ``_KERNELS`` and the parameter of each
    # block (None for a kind without one); it marks a built-in, whose rows
    # do not depend on the rows beside them
    _kernel: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _dual_oracle: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.dual_density_cap is not None:
            cap = _as_block_params(self.space, self.dual_density_cap, "dual_density_cap")
            object.__setattr__(self, "dual_density_cap", cap)

    def evaluate(self, x: RandomVariable) -> ConditionalValue:
        out = self._evaluate_one(x)
        _check_finite_risks(self, out.values)
        return out

    def _evaluate_one(self, x: RandomVariable) -> ConditionalValue:
        self.space._check_rv(x)
        out = self.evaluate_fn(x)
        self.space._check_cv(out)
        return out

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
        """Block ``j`` as a measure on ``space.block_space(j)``, labelled
        ``{label}@block{j}``, in the coordinates of ``space.block_index_array(j)``:
        the stack of block ``j`` alone (``_stacked``), so a built-in is its
        dense classical kernel there, any other measure is padded and
        checked, and a measure on one block in order is its own restriction.
        """
        self.space.block_index_array(j)  # refuses a j outside 1..n_blocks
        return _stacked(self, np.array([j - 1]))[0]


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


def _other_cpus() -> tuple:
    """``_CPUS`` but the CPU this thread runs on; empty where the OS does not
    say which that is."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            here = int(fh.read().rsplit(b")", 1)[1].split()[36])  # field 39
    except (OSError, IndexError, ValueError):
        return ()
    return tuple(c for c in _CPUS if c != here)


def _map_chunks(batch, chunks: list) -> list:
    """``[batch(c) for c in chunks]``, shared among k = min(CPUs, chunks)
    threads: the caller's, which takes chunks 0, k, 2k, ..., and k - 1
    helpers started for this call, helper w taking chunks w, w + k, ...

    ``batch`` must be a built-in's numpy-only closure over immutable layout
    arrays; numpy releases the GIL inside its large calls, so the chunks run
    side by side.  A kernel that does not balance load between CPUs (a
    cpuset with ``sched_load_balance`` off) leaves a new thread on the CPU it
    was started from, so each helper may run only on its own share of the
    CPUs but the caller's, where the OS says which CPU that is.  Each helper
    runs in a copy of the caller's context, so the caller's ``np.errstate``
    holds there.  The helpers are joined before the call returns, so no
    thread outlives it, and the error of the first failing chunk, the one
    the serial loop would raise, is raised here.
    """
    k = min(len(_CPUS), len(chunks))
    if k < 2:
        return [batch(c) for c in chunks]
    out = [None] * len(chunks)
    failed = []

    def work(w: int, cpus: tuple = ()) -> None:
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)  # 0: this thread
            except OSError:
                pass
        for i in range(w, len(chunks), k):
            try:
                out[i] = batch(chunks[i])
            except BaseException as exc:
                failed.append((i, exc))
                return

    others = _other_cpus()
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, w, others[w - 1 :: k - 1]))
        for w in range(1, k)
    ]
    for t in helpers:
        t.start()
    work(0)
    for t in helpers:
        t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return out


def _builtin(space, label, batch, penalty, oracle, kernel, prepare=None, **dual) -> CondRiskMeasure:
    """A built-in from its batched risk (rows of payoffs), its batched penalty
    (rows of duals), its dual oracle (rows of payoffs to weights) and its
    ``kernel``: the kind of ``_KERNELS`` and the parameter of each block.

    Batches run in chunks of rows of about CHUNK_ELEMENTS payoff entries, so a
    batch's full-size temporaries stay that small however many rows it has;
    a batch of several chunks shares them among the process's CPUs
    (``_map_chunks``).  ``prepare``, if given, builds the lazy tables that
    ``batch`` reads; it runs before any helper thread starts.
    """
    step = max(1, CHUNK_ELEMENTS // space.n_atoms)

    def batch_fn(xs: np.ndarray) -> np.ndarray:
        if len(xs) <= step:
            return batch(xs)
        if prepare is not None:
            prepare()
        return np.concatenate(_map_chunks(batch, [xs[i : i + step] for i in range(0, len(xs), step)]))

    measure = CondRiskMeasure(
        space,
        lambda x: ConditionalValue(batch(x.values[None])[0]),
        label,
        closed_form_penalty=penalty,
        evaluate_batch_fn=batch_fn,
        **dual,
    )
    object.__setattr__(measure, "_kernel", kernel)
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
        lambda xs: np.ones(xs.shape),
        ("neg_expectation", None),
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
        oracle,
        ("worst_case", None),
    )


def _as_block_params(space: FiniteProbSpace, value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or one number per block") from None
    except OverflowError as exc:  # an integer past the float range
        raise ValueError(f"{name} must be finite: {exc}") from None
    if arr.ndim == 0:
        arr = np.full(space.n_blocks, float(arr))
    if arr.shape != (space.n_blocks,):
        raise ValueError(f"{name} must be a scalar or one value per block")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    # a copy, read-only: the measure's closures and its kernel share it
    return _readonly(arr)


def cond_entropic(space: FiniteProbSpace, gamma) -> CondRiskMeasure:
    """rho(x) = (1/gamma) log E[exp(-gamma x) | F], gamma > 0 per block.

    The dual oracle is the Gibbs density, exp(-gamma x) normalized on each
    block.
    """
    g = _as_block_params(space, gamma, "gamma")
    if (g <= 0).any():
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
        oracle,
        ("entropic", g),
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
    if (lam_arr <= 0).any() or (lam_arr > 1).any():
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
        # first evaluation: a scenario builds every measure it lists.  A batch
        # of several chunks builds it (``prepare``) before its helpers start.
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
        oracle,
        ("avar", lam_arr),
        prepare=fill_tables,
        dual_density_cap=1.0 / lam_arr,
    )


# -- dense classical kernels ------------------------------------------------------
# Each built-in's textbook formula, written once on a dense ``(rows, B, k)``
# array of B blocks of k atoms with the ``(B, k)`` conditional masses q and
# one parameter per block, reducing along the last axis.  They share no code
# with the block layout that the whole-space built-ins above run on:
# ``restrict(j)`` of a built-in is its kernel at B = 1, and the transfer suite
# and the grid conjugate run it on stacks of same-size blocks, so their
# classical side is a second implementation (Foellmer and Schied, *Stochastic
# Finance*, ch. 4, for the penalties and densities).


def _dense_admissible(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Blocks on which -y is a conditional density (within ADMISSIBLE_TOL)."""
    return (y.max(axis=-1) <= ADMISSIBLE_TOL) & (np.abs((q * y).sum(axis=-1) + 1.0) <= ADMISSIBLE_TOL)


def _mean_risk(x, q, _):
    return -(q * x).sum(axis=-1)


def _mean_penalty(y, q, _):
    return _zero_where(np.abs(y + 1.0).max(axis=-1) <= ADMISSIBLE_TOL)


def _mean_oracle(x, q, _):
    return np.ones(x.shape)


def _worst_risk(x, q, _):
    return -x.min(axis=-1)


def _worst_penalty(y, q, _):
    return _zero_where(_dense_admissible(q, y))


def _worst_oracle(x, q, _):
    """1 on the first atom of each block, in block order, where x is least."""
    w = np.zeros(x.shape)
    np.put_along_axis(w, x.argmin(axis=-1)[..., None], 1.0, axis=-1)
    return w


def _gibbs(x, g):
    """exp(-gamma x - top), with top the block's largest -gamma x, and top."""
    a = x * -g[:, None]
    top = a.max(axis=-1)
    return np.exp(a - top[..., None]), top


def _entropic_risk(x, q, g):
    w, top = _gibbs(x, g)
    return (top + np.log((q * w).sum(axis=-1))) / g


def _entropic_penalty(y, q, g):
    d = np.maximum(-y, 0.0)
    ent = np.where(d > 0, d * np.log(np.maximum(d, 1e-300)), 0.0)
    return np.where(_dense_admissible(q, y), (q * ent).sum(axis=-1) / g, math.inf)


def _entropic_oracle(x, q, g):
    return _gibbs(x, g)[0]


def _avar_tail(x, q, lam):
    """One stable sort of each block by payoff, largest loss first (Acerbi
    and Tasche, *On the coherence of expected shortfall*, J. Banking &
    Finance 2002): the atom at each place, its mass, and the mass it gives
    the tail, what is left of lambda after the atoms ahead."""
    at = x.argsort(axis=-1, kind="stable")
    mass = np.take_along_axis(np.broadcast_to(q, x.shape), at, axis=-1)
    ahead = np.cumsum(mass, axis=-1) - mass
    return at, mass, np.clip(lam[:, None] - ahead, 0.0, mass)


def _avar_risk(x, q, lam):
    at, _, take = _avar_tail(x, q, lam)
    tail = -(take * np.take_along_axis(x, at, axis=-1)).sum(axis=-1) / lam
    return np.where(lam >= 1.0, _mean_risk(x, q, lam), tail)


def _avar_penalty(y, q, lam):
    capped = (-y).max(axis=-1) <= 1.0 / lam + ADMISSIBLE_TOL
    return _zero_where(_dense_admissible(q, y) & capped)


def _avar_oracle(x, q, lam):
    """The tail mass over its own mass on each atom; 1 on blocks at lambda = 1."""
    at, mass, take = _avar_tail(x, q, lam)
    w = np.empty(x.shape)
    np.put_along_axis(w, at, take / mass, axis=-1)
    return np.where((lam >= 1.0)[:, None], 1.0, w)


# kind: risk, penalty, dual oracle and the name of the block parameter
_KERNELS = {
    "neg_expectation": (_mean_risk, _mean_penalty, _mean_oracle, None),
    "worst_case": (_worst_risk, _worst_penalty, _worst_oracle, None),
    "entropic": (_entropic_risk, _entropic_penalty, _entropic_oracle, "gamma"),
    "avar": (_avar_risk, _avar_penalty, _avar_oracle, "lambda"),
}


def _kernel_measure(space: FiniteProbSpace, kind: str, param, label: str) -> CondRiskMeasure:
    """The dense kernel of ``kind`` as a built-in on ``space``, whose blocks
    are contiguous and of one size (a block space, or a stack of
    ``_stacked``), with ``param`` (one value per block, or None)."""
    shape = (space.n_blocks, space.n_atoms // space.n_blocks)
    q = space.cond.reshape(shape)
    risk, penalty, oracle, _ = _KERNELS[kind]

    def dense(fn):
        return lambda a: fn(a.reshape(a.shape[:-1] + shape), q, param)

    weights = dense(oracle)
    dual = {"dual_density_cap": 1.0 / param} if kind == "avar" else {}
    return _builtin(
        space, label, dense(risk), dense(penalty), lambda xs: weights(xs).reshape(xs.shape), (kind, param), **dual
    )


def _stacked(measure: CondRiskMeasure, blocks: np.ndarray):
    """The measure's blocks ``blocks`` (0-based, all of one size k) as one
    measure on a space of contiguous k-atom blocks that carries their
    conditional masses bit for bit, and the atoms of the measure's space in
    the stack's order: block a of the stack is ``blocks[a]``, and a payoff
    indexed by those atoms is the stack's.  The one cut of blocks out of a
    measure: ``restrict(j)`` is the stack of block j alone, on
    ``space.block_space(j)``, and a measure on one block that lists its
    atoms in order is its own stack.

    A built-in becomes its dense classical kernel (``_kernel_measure``), so
    it shares no code with its whole-space batch, penalty and oracle.  Any
    other measure is padded: each stack row goes into the parent's atoms
    with 0 elsewhere (-1 for dual rows), the parent evaluates each row once,
    in row batches of at most CHUNK_ELEMENTS entries, and the stacked
    blocks' columns are read back; the cap is the parent's entries.  The
    padding is checked once, exactly: on two probe payoffs, no block's
    figure may move when every atom outside it, stack-mates included, takes
    EXTENSION_FILL, or ScalarizeError is raised.  For each bit b of the
    stack index and each side s, a row keeps the probes on the blocks whose
    bit b is s and fills every other atom, and a last row keeps them on
    every block: two blocks differ in some bit, so in 2 ceil(log2 B) + 1
    rows each of B blocks sees every other at the fill.  Each such row is
    one call, with the two probes in their places in the call of ``lo``: a
    batch function may round a row by its place in the batch.
    """
    space, size = measure.space, len(blocks)
    if space.n_blocks == 1 and (space.order == np.arange(space.n_atoms)).all():
        return measure, space.order
    j = int(blocks[0]) + 1
    k = space._bounds[j] - space._bounds[j - 1]
    at = (space.starts[blocks][:, None] + np.arange(k)).ravel()  # places in block order
    atoms, n = space.order[at], space.n_atoms
    if size == 1:
        stack, label = space.block_space(j), f"{measure.label}@block{j}"
    else:
        q, layout = space._cond_in_order[at], np.arange(1, at.size + 1).reshape(-1, k)
        stack, label = FiniteProbSpace(q, layout, _normalized=True), f"{measure.label}@{k}-atom blocks"
    if measure._kernel is not None:
        kind, param = measure._kernel
        cut = None if param is None else _readonly(param[blocks])
        return _kernel_measure(stack, kind, cut, label), atoms

    def padded(xs: np.ndarray, fill: float = 0.0, fn=measure.evaluate_batch) -> np.ndarray:
        # in row batches of at most CHUNK_ELEMENTS entries, so a grid of
        # many rows never holds rows x n floats at once
        out, step = [], max(1, CHUNK_ELEMENTS // n)
        for part in np.split(xs, range(step, len(xs), step)):
            full = np.full((len(part), n), fill)
            full[:, atoms] = part
            out.append(fn(full)[:, blocks])
        return np.concatenate(out)

    b, s = np.divmod(np.arange(2 * (size - 1).bit_length() + 1), 2)
    keep = (np.arange(size) >> b[:, None]) & 1 == s[:, None]
    probes = np.stack([np.zeros(at.size), np.tile(np.linspace(-1.0, 1.0, k), size)])
    lo = padded(probes)
    mixed = np.where(keep.repeat(k, axis=1), probes[:, None], EXTENSION_FILL)
    hi = np.stack([padded(mixed[:, r], EXTENSION_FILL) for r in range(len(keep))], axis=1)
    bad = keep & (hi != lo[:, None])
    if bad.any():
        p, r, a = np.argwhere(bad)[0]
        raise ScalarizeError(
            f"block {blocks[a] + 1} restriction depends on the extension: "
            f"{float(lo[p, a])!r} vs {float(hi[p, r, a])!r}"
        )
    pen = None
    if measure.closed_form_penalty is not None:
        pen = lambda ys: padded(ys, -1.0, lambda full: measure._rows(measure.closed_form_penalty, full, "penalties"))
    cap = None if measure.dual_density_cap is None else measure.dual_density_cap[blocks]
    ev = lambda x: _cv(_readonly(padded(x.values[None])[0]))
    return CondRiskMeasure(stack, ev, label, closed_form_penalty=pen, evaluate_batch_fn=padded, dual_density_cap=cap), atoms


def _stacks(measure: CondRiskMeasure, marked: Optional[np.ndarray] = None):
    """``(blocks, stack, atoms)`` of ``_stacked`` for the blocks of each size
    that the mask ``marked`` marks (all by default), smallest size first."""
    sizes = np.where(True if marked is None else marked, np.diff(measure.space._bounds), 0)
    for k in np.unique(sizes[sizes > 0]):
        blocks = np.flatnonzero(sizes == k)
        yield (blocks, *_stacked(measure, blocks))


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


def _check_finite_risks(measure: CondRiskMeasure, *risks: np.ndarray) -> None:
    """Refuse, by the measure's label, risks with an entry that is not finite."""
    if not all(np.isfinite(r).all() for r in risks):
        raise RiskMeasureError(f"{measure.label} produced a non-finite risk value")


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
    """One generator for each input of ``axiom``, on that input's child
    stream, built directly: child i of ``spawn`` is the seed with spawn key (i,)."""
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(TRIAL_INPUTS.index(name),)))
        for name in _AXIOM_INPUTS[axiom]
    ]


def _draw_trials(axiom: str, space: FiniteProbSpace, streams: list, groups: tuple, size: int, tile: int = 1) -> list:
    """Inputs of the next ``size`` trials, one generator call per input array.

    Trial t is row t of each input's stream, wherever the batches are cut.
    A law-preserving permutation sorts each equal-mass group (``groups``, as
    ``_equal_mass_groups`` gives it) by the trial's keys, one random key per
    atom: the group's i-th slot takes the atom with the group's i-th
    smallest key.  Atoms outside every group keep their place.  A space of
    ``tile`` equal copies of one block layout side by side (a stack of
    ``_stacked``; 1 for any other space) draws each input for one copy and
    repeats it on every copy, so each copy sees the trials of its own check.
    """
    n, m = space.n_atoms // tile, space.n_blocks // tile

    def draw(a: np.ndarray) -> np.ndarray:
        return np.tile(a, tile) if tile > 1 else a

    x, rng = draw(streams[0].normal(0.0, 2.0, (size, n))), streams[1]
    if axiom == "convexity":
        return [x, draw(rng.normal(0.0, 2.0, (size, n))), draw(streams[2].uniform(0.0, 1.0, (size, m)))]
    if axiom == "monotonicity":
        return [x, draw(np.abs(rng.normal(0.0, 1.0, (size, n))))]
    if axiom == "cash_invariance":
        return [x, draw(rng.normal(0.0, 2.0, (size, m)))]
    if axiom == "local_property":
        # a uniform element of the block algebra: each block in with chance 1/2
        return [x, draw(rng.random((size, m)) < 0.5)]
    members, labels = groups
    perm = np.arange(space.n_atoms)[None].repeat(size, axis=0)
    if members.size:
        # one stable sort by (group label, key): numpy orders complex numbers
        # by their real parts, then by their imaginary parts
        keys = draw(rng.random((size, n)))[:, members]
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
    _check_finite_risks(measure, lhs[: first + 1], rhs[: first + 1])
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


def _failing_blocks(measure: CondRiskMeasure, axiom: str, trials: int, seed: int, tile: int) -> np.ndarray:
    """Every block on which a trial of ``check_axiom(measure, axiom, trials,
    seed)`` fails, where that check reports the first failure only: the
    same trials, drawn with ``tile`` as ``_draw_trials`` takes it, in row
    batches that stop once every block has failed or the trials are done.
    A non-finite risk in a trial run raises RiskMeasureError."""
    space = measure.space
    streams = _trial_streams(axiom, seed)
    groups = _equal_mass_groups(space) if axiom == "conditional_law_invariance" else None
    failed = np.zeros(space.n_blocks, dtype=bool)
    for _, size in _row_batches(space.n_atoms, trials):
        inputs = _draw_trials(axiom, space, streams, groups, size, tile)
        with np.errstate(invalid="ignore"):
            lhs, rhs, bad = _axiom_sides(axiom, space, measure.evaluate_batch, *inputs)
        _check_finite_risks(measure, lhs, rhs)
        failed |= bad.any(axis=0)
        if failed.all():
            break
    return failed


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
    fatou: bool
    lebesgue: bool
    max_deviation: float
    observed_order: Optional[float]


def check_convergence_property(
    measure: CondRiskMeasure,
    sequence,
    tol: float = 1e-3,
) -> ConvergenceReport:
    """Fatou and Lebesgue verdicts for a finitely described dominated sequence.

    The sequence is a shrinking perturbation, sampled at geometrically spaced
    indices up to n_max; the convergence order is estimated from the two
    largest sampled indices.
    The limit and the sampled terms are evaluated in one batch, which gives
    both verdicts; a non-finite risk among them raises RiskMeasureError, as
    ``evaluate`` does.
    """
    if not isinstance(sequence, ShrinkingPerturbationSeq):
        raise TypeError("unsupported sequence spec")
    _check_tol(tol)

    ns, fatou, dev = _convergence_blocks(measure, sequence, tol)
    devs = np.max(dev, axis=1).tolist()
    order = None
    if len(ns) >= 2 and devs[-1] > 0 and devs[-2] > 0:
        order = math.log(devs[-2] / devs[-1]) / math.log(ns[-1] / ns[-2])
    return ConvergenceReport(bool(fatou.all()), devs[-1] <= tol, devs[-1], order)


def _convergence_blocks(measure: CondRiskMeasure, sequence: ShrinkingPerturbationSeq, tol: float):
    """The sampled indices, the Fatou verdict of each block and the
    deviation |rho(x_n) - rho(x)| of each sampled n on each block, from one
    batch of risks; a block's Lebesgue verdict is its last deviation within
    ``tol``."""
    sequence.check_dominated()
    space = measure.space
    ns = sorted({min(2**k, sequence.n_max) for k in range(0, 64) if 2**k <= sequence.n_max} | {sequence.n_max})
    limit = space._check_rv(sequence.limit())
    # x + d / n for every sampled n, as ``term`` builds each
    terms = limit + space._check_rv(sequence.d) / np.array(ns)[:, None]
    RandomVariable._check(terms)
    risks = measure.evaluate_batch(np.concatenate([limit[None], terms]))
    _check_finite_risks(measure, risks)
    limit_vals, values = risks[0], risks[1:]
    # Fatou: the liminf estimated from the last sampled indices; the
    # truncation error there is O(1/n_max), which the caller's tolerance must absorb
    return ns, np.min(values[-2:], axis=0) >= limit_vals - tol, np.abs(values - limit_vals)
