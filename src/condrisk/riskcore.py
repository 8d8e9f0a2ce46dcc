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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CondriskError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable, _cv

# a dual variable y is an admissible density when y <= 0 and E[y | block] = -1
ADMISSIBLE_TOL = 1e-10
# payoff entries per chunk of a built-in's batch: bounds its temporaries
CHUNK_ELEMENTS = 1 << 16


class RiskMeasureError(CondriskError):
    pass


class UndominatedSequenceError(CondriskError):
    """A convergence sequence spec exceeds its declared dominator."""


@dataclass
class CondRiskMeasure:
    """Evaluable payoff-to-conditional-risk map with optional dual metadata.

    ``evaluate_fn`` maps one payoff to its blockwise risk.  ``evaluate_batch_fn``
    is the hook for a vectorized user measure: it maps a ``(rows, n_atoms)``
    array to ``(rows, n_blocks)`` risks, and ``evaluate_batch`` loops over
    ``evaluate`` without it.  Built-ins supply one batched function over the
    last axis and evaluate a single payoff as a one-row case of it.
    ``closed_form_penalty`` maps a raw dual vector (one value per sample atom,
    all <= 0) to the blockwise penalty, +inf where the vector is not an
    admissible density for the measure; ``dual_density_cap`` and
    ``dual_penalty_grad`` steer the dual ascent.  ``restrict(j)`` cuts block
    ``j`` out as a classical measure on one block, which is what the dual
    engine works on.
    """

    space: FiniteProbSpace
    evaluate_fn: Callable[[RandomVariable], ConditionalValue]
    label: str
    closed_form_penalty: Optional[Callable[[np.ndarray], ConditionalValue]] = None
    evaluate_batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dual_density_cap: Optional[Callable[[int], Optional[float]]] = None
    dual_penalty_grad: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def evaluate(self, x: RandomVariable) -> ConditionalValue:
        self.space._check_rv(x)
        out = self.evaluate_fn(x)
        vals = self.space._check_cv(out)
        if not np.all(np.isfinite(vals)):
            raise RiskMeasureError(f"{self.label} produced a non-finite risk value")
        return out

    def __call__(self, x: RandomVariable) -> ConditionalValue:
        return self.evaluate(x)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Risk of each row of ``xs``; falls back to looping over evaluate."""
        xs = np.asarray(xs, dtype=float)
        if self.evaluate_batch_fn is not None:
            return self.evaluate_batch_fn(xs)
        return np.stack([self.evaluate(RandomVariable(row)).values for row in xs])

    def restrict(self, j: int) -> "CondRiskMeasure":
        """Block ``j`` as a measure on ``space.block_space(j)``.

        The one place a block is cut out of the space: block payoffs are
        extended by 0 and block duals by -1, the parent's column ``j`` is read
        back, and the cap and gradient hooks are the parent's at ``j``.  Block
        coordinates follow ``space.block_index_array(j)``, so a measure on one
        block that lists its atoms in order is its own restriction.
        """
        space = self.space
        idx = space.block_index_array(j)
        n = space.n_atoms
        if space.n_blocks == 1 and space.blocks[0] == tuple(range(1, n + 1)):
            return self
        col = slice(j - 1, j)

        def ev(x: RandomVariable) -> ConditionalValue:
            return _cv(self.evaluate(space.extend(x.values, j)).values[col])

        def ev_batch(xs: np.ndarray) -> np.ndarray:
            full = np.zeros((xs.shape[0], n))
            full[:, idx] = xs
            return self.evaluate_batch(full)[:, col]

        pen = cap = grad = None
        if self.closed_form_penalty is not None:

            def pen(y: np.ndarray) -> ConditionalValue:
                full = np.full(n, -1.0)
                full[idx] = y
                return _cv(self.closed_form_penalty(full).values[col])

        if self.dual_density_cap is not None:
            cap = lambda _: self.dual_density_cap(j)
        if self.dual_penalty_grad is not None:
            grad = lambda _, d: self.dual_penalty_grad(j, d)
        return CondRiskMeasure(
            space.block_space(j),
            ev,
            f"{self.label}@block{j}",
            closed_form_penalty=pen,
            evaluate_batch_fn=ev_batch,
            dual_density_cap=cap,
            dual_penalty_grad=grad,
            params=dict(self.params),
        )


def _builtin(space, label, batch, penalty, **dual) -> CondRiskMeasure:
    """A built-in from its batched risk (rows of payoffs) and its penalty map.

    Batches run in chunks of rows of about CHUNK_ELEMENTS payoff entries, so a
    batch's full-size temporaries stay that small however many rows it has.
    """
    step = max(1, CHUNK_ELEMENTS // space.n_atoms)

    def batch_fn(xs: np.ndarray) -> np.ndarray:
        if len(xs) <= step:
            return batch(xs)
        return np.concatenate([batch(xs[i : i + step]) for i in range(0, len(xs), step)])

    return CondRiskMeasure(
        space,
        lambda x: ConditionalValue(batch(x.values[None])[0]),
        label,
        closed_form_penalty=lambda y: ConditionalValue(penalty(y)),
        evaluate_batch_fn=batch_fn,
        **dual,
    )


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
    )


def cond_worst_case(space: FiniteProbSpace) -> CondRiskMeasure:
    """rho(x) = esssup(-x | F), the conditional worst case."""
    return _builtin(
        space,
        "worst_case",
        lambda xs: -space.block_min(xs),
        lambda y: _zero_where(_admissible_mask(space, y)),
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
    return arr


def cond_entropic(space: FiniteProbSpace, gamma) -> CondRiskMeasure:
    """rho(x) = (1/gamma) log E[exp(-gamma x) | F], gamma > 0 per block."""
    g = _as_block_params(space, gamma, "gamma")
    if np.any(g <= 0):
        raise ValueError("gamma must be strictly positive")
    g_atom = space.broadcast(g)

    def batch(xs: np.ndarray) -> np.ndarray:
        a = -g_atom * xs
        top = space.block_max(a)
        return (top + np.log(space.block_mean(np.exp(a - space.broadcast(top))))) / g

    def penalty(y: np.ndarray) -> np.ndarray:
        d = np.maximum(-y, 0.0)
        ent = np.where(d > 0, d * np.log(np.maximum(d, 1e-300)), 0.0)
        return np.where(_admissible_mask(space, y), space.block_mean(ent) / g, math.inf)

    def grad(j: int, d: np.ndarray) -> np.ndarray:
        q = space.cond_probs(j)
        return (q / g[j - 1]) * (np.log(np.maximum(d, 1e-300)) + 1.0)

    return _builtin(
        space, "entropic", batch, penalty, dual_penalty_grad=grad, params={"gamma": g}
    )


def cond_avar(space: FiniteProbSpace, lam) -> CondRiskMeasure:
    """Conditional average value at risk at level lambda in (0, 1] per block.

    Per block: sort the losses -x, take conditional mass until lambda is
    filled, splitting the boundary atom fractionally, and average.  All blocks
    are sorted at once: a sort of each row by payoff, then a stable sort of
    the block ids (a radix sort for small integer ids) groups the atoms by
    block with the largest losses first.  Blocks at lambda = 1 take the plain
    conditional mean of the loss.
    """
    lam_arr = _as_block_params(space, lam, "lambda")
    if np.any(lam_arr <= 0) or np.any(lam_arr > 1):
        raise ValueError("lambda must lie in (0, 1]")
    full = lam_arr >= 1.0
    any_full = bool(full.any())
    starts = space.starts

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
        # once grouped, position i of a row lies in block block_of[order][i]
        return mass_fixed, before[space.block_of[space.order]], lam_arr * -scale

    def batch(xs: np.ndarray) -> np.ndarray:
        mass_fixed, limit, neg_lam_scaled = fill_tables()
        rows = np.arange(len(xs))[:, None]
        order = xs.argsort(axis=-1)
        order = order[rows, space.block_of[order].argsort(axis=-1, kind="stable")]
        fixed = mass_fixed[order]
        ahead = np.add.accumulate(fixed, axis=-1) - fixed
        take = np.minimum(np.maximum(limit - ahead, 0), fixed)
        out = np.add.reduceat(take * xs[rows, order], starts, axis=-1) / neg_lam_scaled
        return np.where(full, -space.block_mean(xs), out) if any_full else out

    def penalty(y: np.ndarray) -> np.ndarray:
        capped = space.block_max(-y) <= 1.0 / lam_arr + ADMISSIBLE_TOL
        return _zero_where(_admissible_mask(space, y) & capped)

    return _builtin(
        space,
        "avar",
        batch,
        penalty,
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


def _law_preserving_permutation(space: FiniteProbSpace, rng) -> np.ndarray:
    """Permute sample atoms within equal-conditional-mass groups of each block."""
    perm = np.arange(space.n_atoms)
    for j in range(1, space.n_blocks + 1):
        idx = space.block_index_array(j)
        q = space.cond_probs(j)
        for mass in np.unique(np.round(q, 12)):
            group = idx[np.abs(q - mass) <= 1e-12]
            perm[group] = rng.permutation(perm[group])
    return perm


# slack allowed between the two sides of an axiom before a trial fails
AXIOM_TOL = 1e-9


def check_axiom(
    measure: CondRiskMeasure,
    axiom: str,
    trials: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Sampled check of one defining axiom; violations become report content."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    space = measure.space
    rng = np.random.default_rng(seed)

    for trial in range(trials):
        xv = rng.normal(0.0, 2.0, space.n_atoms)
        x = RandomVariable(xv)
        if axiom == "convexity":
            y = RandomVariable(rng.normal(0.0, 2.0, space.n_atoms))
            eta = ConditionalValue(rng.uniform(0.0, 1.0, space.n_blocks))
            weight = space.lift(eta).values
            mix = RandomVariable(weight * x.values + (1.0 - weight) * y.values)
            lhs = measure.evaluate(mix).values
            rhs = eta.values * measure.evaluate(x).values + (
                1.0 - eta.values
            ) * measure.evaluate(y).values
            bad = lhs > rhs + AXIOM_TOL
        elif axiom == "monotonicity":
            y = RandomVariable(xv + np.abs(rng.normal(0.0, 1.0, space.n_atoms)))
            lhs = measure.evaluate(y).values
            rhs = measure.evaluate(x).values
            bad = lhs > rhs + AXIOM_TOL
        elif axiom == "cash_invariance":
            eta = ConditionalValue(rng.normal(0.0, 2.0, space.n_blocks))
            lhs = measure.evaluate(x + space.lift(eta)).values
            rhs = measure.evaluate(x).values - eta.values
            bad = np.abs(lhs - rhs) > AXIOM_TOL
        elif axiom == "local_property":
            # a uniform element of the block algebra: each block in with chance 1/2
            on = rng.random(space.n_blocks) < 0.5
            cut = RandomVariable(x.values * space.broadcast(on))
            lhs = measure.evaluate(x).values
            rhs = measure.evaluate(cut).values
            bad = on & (np.abs(lhs - rhs) > AXIOM_TOL)
        else:  # conditional_law_invariance
            perm = _law_preserving_permutation(space, rng)
            y = RandomVariable(xv[perm])
            lhs = measure.evaluate(x).values
            rhs = measure.evaluate(y).values
            bad = np.abs(lhs - rhs) > AXIOM_TOL

        if np.any(bad):
            block = int(np.argmax(bad)) + 1
            return AxiomReport(
                axiom,
                trials,
                False,
                {
                    "trial": trial,
                    "block": block,
                    "x": x.values.tolist(),
                    "lhs": float(lhs[block - 1]),
                    "rhs": float(rhs[block - 1]),
                },
            )
    return AxiomReport(axiom, trials, True)


def check_all_axioms(measure: CondRiskMeasure, trials: int = 100, seed: int = 0):
    return {axiom: check_axiom(measure, axiom, trials, seed) for axiom in AXIOMS}


# -- convergence checks --------------------------------------------------------


@dataclass(frozen=True)
class EventuallyConstantSeq:
    """x_n given explicitly for n < switch, constant equal to ``tail`` after."""

    terms: tuple
    tail: RandomVariable
    dominator: RandomVariable

    def check_dominated(self) -> None:
        bound = self.dominator.values
        for t in tuple(self.terms) + (self.tail,):
            if np.any(np.abs(t.values) > bound + 1e-12):
                raise UndominatedSequenceError("a sequence term exceeds the dominator")


@dataclass(frozen=True)
class ShrinkingPerturbationSeq:
    """x_n = x + (1/n) d, truncated at n_max; converges to x."""

    x: RandomVariable
    d: RandomVariable
    n_max: int
    dominator: Optional[RandomVariable] = None

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
    exact: bool
    max_deviation: float
    observed_order: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "property": self.property,
            "passed": self.passed,
            "exact": self.exact,
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

    Eventually-constant sequences give exact verdicts; shrinking-perturbation
    sequences are sampled at geometrically spaced indices up to n_max and the
    convergence order is estimated from the two largest sampled indices.
    """
    if prop not in ("fatou", "lebesgue"):
        raise ValueError("property must be 'fatou' or 'lebesgue'")
    sequence.check_dominated()

    if isinstance(sequence, EventuallyConstantSeq):
        # lim and liminf of rho(x_n) are rho(tail), and the a.s. limit is tail
        return ConvergenceReport(prop, True, True, 0.0)

    if not isinstance(sequence, ShrinkingPerturbationSeq):
        raise TypeError("unsupported sequence spec")

    limit_vals = measure.evaluate(sequence.limit()).values
    ns = sorted({min(2**k, sequence.n_max) for k in range(0, 64) if 2**k <= sequence.n_max} | {sequence.n_max})
    values = [measure.evaluate(sequence.term(n)).values for n in ns]
    devs = [float(np.max(np.abs(v - limit_vals))) for v in values]
    order = None
    if len(ns) >= 2 and devs[-1] > 0 and devs[-2] > 0:
        order = math.log(devs[-2] / devs[-1]) / math.log(ns[-1] / ns[-2])
    if prop == "fatou":
        # liminf estimated from the last sampled indices; the truncation error
        # there is O(1/n_max), which the caller's tolerance must absorb
        tail = np.min(np.stack(values[-2:]), axis=0)
        passed = bool(np.all(tail >= limit_vals - tol))
    else:
        passed = devs[-1] <= tol
    return ConvergenceReport(prop, passed, False, devs[-1], order)
