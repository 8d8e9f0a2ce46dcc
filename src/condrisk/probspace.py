"""Finite probability space with a block partition as intermediate information.

All atom probabilities are strictly positive, so almost-sure identities are
plain identities and no null-set bookkeeping is needed.  Sample atoms and
blocks are addressed with 1-based indices to match the wire formats.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .boolalg import BooleanAlgebra, BoolElem, PartitionOfUnity, mask_array
from .errors import CondriskError

PROB_SUM_TOL = 1e-12


class SpaceError(CondriskError):
    """Invalid space description or mismatched operands."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class RandomVariable:
    """Payoff: one finite real value per sample atom."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a random variable is a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("random variable entries must be finite")
        object.__setattr__(self, "values", _readonly(arr))

    def __setattr__(self, name, value):
        raise AttributeError("RandomVariable is immutable")

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return isinstance(other, RandomVariable) and np.array_equal(
            self.values, other.values
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __add__(self, other):
        other = other.values if isinstance(other, RandomVariable) else other
        return RandomVariable(self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        other = other.values if isinstance(other, RandomVariable) else other
        return RandomVariable(self.values - other)

    def __neg__(self):
        return RandomVariable(-self.values)

    def __mul__(self, other):
        other = other.values if isinstance(other, RandomVariable) else other
        return RandomVariable(self.values * other)

    __rmul__ = __mul__

    def __abs__(self):
        return RandomVariable(np.abs(self.values))

    def __repr__(self):
        return f"RandomVariable({self.values.tolist()!r})"


class ConditionalValue:
    """One extended-real value per block; finite entries mean a plain value."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a conditional value is a nonempty 1-d array")
        if np.any(np.isnan(arr)):
            raise ValueError("conditional value entries must not be NaN")
        object.__setattr__(self, "values", _readonly(arr))

    def __setattr__(self, name, value):
        raise AttributeError("ConditionalValue is immutable")

    @property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return isinstance(other, ConditionalValue) and np.array_equal(
            self.values, other.values
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def _combine(self, other, fn):
        other = other.values if isinstance(other, ConditionalValue) else other
        with np.errstate(invalid="ignore"):
            out = fn(self.values, other)
        if np.any(np.isnan(np.atleast_1d(out))):
            raise CondriskError("indeterminate extended-real arithmetic (inf - inf)")
        return ConditionalValue(out)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return ConditionalValue(-self.values)

    def __mul__(self, other):
        return self._combine(other, np.multiply)

    __rmul__ = __mul__

    def __repr__(self):
        return f"ConditionalValue({self.values.tolist()!r})"


class FiniteProbSpace:
    """Strictly positive probabilities on ``n`` atoms, split into ``m`` blocks."""

    def __init__(self, probs, blocks: Sequence[Sequence[int]], *, _normalized: bool = False):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise SpaceError("probs must be a nonempty 1-d array")
        if np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise SpaceError("probs must be strictly positive and finite")
        if not _normalized and abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise SpaceError(f"probs sum {p.sum():.12g}, expected 1")
        n = p.size

        blocks = tuple(tuple(int(i) for i in b) for b in blocks)
        if not blocks:
            raise SpaceError("blocks must be nonempty")
        seen = set()
        for j, b in enumerate(blocks, start=1):
            if not b:
                raise SpaceError(f"block {j} is empty")
            for i in b:
                if not 1 <= i <= n:
                    raise SpaceError(f"block {j} references atom {i} of {n}")
                if i in seen:
                    raise SpaceError(f"atom {i} appears in more than one block")
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise SpaceError(f"blocks do not cover atoms {missing}")

        self.probs = _readonly(p)
        self.blocks = blocks
        self.algebra = BooleanAlgebra(len(blocks))
        # block layout, built once: atoms in block order, cut at ``starts``
        # (kept as Python ints in ``_bounds`` too, for cheap per-block slices)
        sizes = [len(b) for b in blocks]
        self._bounds = list(accumulate(sizes, initial=0))
        order = np.array([i - 1 for b in blocks for i in b], dtype=np.intp)
        starts = np.array(self._bounds[:-1], dtype=np.intp)
        # the smallest integer type that holds a block id keeps the stable
        # sort of block ids in cond_avar a radix sort
        block_of = np.empty(n, dtype=np.min_scalar_type(len(blocks) - 1))
        block_of[order] = np.arange(len(blocks)).repeat(sizes)
        self.order, self.starts, self.block_of = order, starts, block_of
        self.block_mass = self.block_sum(self.probs)
        self.cond = self.probs if _normalized else self.probs / self.block_mass[block_of]
        self._cond_in_order = self.cond[order]
        for arr in (order, starts, block_of, self.block_mass, self.cond, self._cond_in_order):
            arr.setflags(write=False)
        self._block_spaces: dict = {}

    @property
    def n_atoms(self) -> int:
        return self.probs.size

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def __repr__(self):
        return f"FiniteProbSpace(n={self.n_atoms}, blocks={self.n_blocks})"

    # -- plumbing -----------------------------------------------------------

    def _check_rv(self, x: RandomVariable) -> np.ndarray:
        if not isinstance(x, RandomVariable):
            raise TypeError("expected a RandomVariable")
        if len(x) != self.n_atoms:
            raise SpaceError(f"random variable has length {len(x)}, space has {self.n_atoms} atoms")
        return x.values

    def _check_cv(self, eta: ConditionalValue) -> np.ndarray:
        if not isinstance(eta, ConditionalValue):
            raise TypeError("expected a ConditionalValue")
        if len(eta) != self.n_blocks:
            raise SpaceError(f"conditional value has length {len(eta)}, space has {self.n_blocks} blocks")
        return eta.values

    def _check_elem(self, a: BoolElem) -> BoolElem:
        if a.algebra is not self.algebra:
            raise SpaceError("element does not belong to this space's block algebra")
        return a

    def _block_slice(self, j: int) -> slice:
        return slice(self._bounds[j - 1], self._bounds[j])

    def cond_probs(self, j: int) -> np.ndarray:
        """Conditional atom probabilities inside block ``j`` (1-based)."""
        return self._cond_in_order[self._block_slice(j)]

    def block_index_array(self, j: int) -> np.ndarray:
        return self.order[self._block_slice(j)]

    def restrict(self, x: RandomVariable, j: int) -> np.ndarray:
        return self._check_rv(x)[self.block_index_array(j)]

    def extend(self, block_values, j: int, fill: float = 0.0) -> RandomVariable:
        out = np.full(self.n_atoms, float(fill))
        out[self.block_index_array(j)] = np.asarray(block_values, dtype=float)
        return RandomVariable(out)

    # -- blockwise reductions over the last axis of arrays (payoffs or row
    #    batches); each is one gather into block order and one reduceat

    def block_sum(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v.take(self.order, axis=-1), self.starts, axis=-1)

    def block_max(self, v: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(v.take(self.order, axis=-1), self.starts, axis=-1)

    def block_min(self, v: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(v.take(self.order, axis=-1), self.starts, axis=-1)

    def block_mean(self, v: np.ndarray) -> np.ndarray:
        """Conditional expectation of each block under the conditional probabilities."""
        return self.block_sum(self.cond * v)

    def broadcast(self, per_block: np.ndarray) -> np.ndarray:
        """Per-block values (last axis) repeated onto the atoms of each block."""
        return per_block.take(self.block_of, axis=-1)

    def block_space(self, j: int) -> "FiniteProbSpace":
        """Single-block space carrying the conditional probabilities of block ``j``.

        The probability array is reused bit-for-bit, so blockwise quantities on
        this space agree exactly with the parent's block-``j`` quantities.
        """
        if j not in self._block_spaces:
            q = self.cond_probs(j)
            self._block_spaces[j] = FiniteProbSpace(
                q, [tuple(range(1, q.size + 1))], _normalized=True
            )
        return self._block_spaces[j]

    def sample_mask(self, a: BoolElem) -> np.ndarray:
        return self.broadcast(mask_array(self._check_elem(a).mask, self.n_blocks))

    def indicator(self, a: BoolElem) -> RandomVariable:
        return RandomVariable(self.sample_mask(a).astype(float))

    def lift(self, eta: ConditionalValue) -> RandomVariable:
        """Blockwise-constant payoff with the given finite block values."""
        vals = self._check_cv(eta)
        if not np.all(np.isfinite(vals)):
            raise SpaceError("cannot lift an extended conditional value to a payoff")
        return RandomVariable(self.broadcast(vals))

    # -- conditional operators ----------------------------------------------

    def cond_expect(self, x: RandomVariable) -> ConditionalValue:
        """Conditional expectation: per block the conditional weighted average."""
        return ConditionalValue(self.block_mean(self._check_rv(x)))

    def esssup_cond(self, x: RandomVariable) -> ConditionalValue:
        return ConditionalValue(self.block_max(self._check_rv(x)))

    def essinf_cond(self, x: RandomVariable) -> ConditionalValue:
        return ConditionalValue(self.block_min(self._check_rv(x)))

    def indicator_mix(self, partition: PartitionOfUnity, xs: Sequence[RandomVariable]) -> RandomVariable:
        """Paste one payoff per part: the result agrees with ``xs[k]`` on part k."""
        if not isinstance(partition, PartitionOfUnity):
            raise TypeError("expected a PartitionOfUnity")
        self._check_elem(partition.parts[0])
        xs = list(xs)
        if len(xs) != len(partition):
            raise SpaceError(
                f"{len(partition)} parts but {len(xs)} payoffs"
            )
        part_of = np.empty(self.n_blocks, dtype=np.intp)
        for k, part in enumerate(partition):
            part_of[mask_array(part.mask, self.n_blocks)] = k
        stacked = np.stack([self._check_rv(x) for x in xs])
        return RandomVariable(stacked[self.broadcast(part_of), np.arange(self.n_atoms)])

    def cond_cdf(self, x: RandomVariable, eta: ConditionalValue) -> ConditionalValue:
        """P(x <= eta | block) per block."""
        xv = self._check_rv(x)
        ev = self._check_cv(eta)
        return ConditionalValue(self.block_mean(xv <= self.broadcast(ev)))

    def same_conditional_law(self, x: RandomVariable, y: RandomVariable) -> bool:
        """Exact equality of the per-block step cdfs on the observed value grid."""
        xv = self._check_rv(x)
        yv = self._check_rv(y)
        for j in range(1, self.n_blocks + 1):
            q, idx = self.cond_probs(j), self.block_index_array(j)
            xb, yb = xv[idx], yv[idx]
            for level in np.union1d(xb, yb):
                fx = float(np.dot(q, (xb <= level).astype(float)))
                fy = float(np.dot(q, (yb <= level).astype(float)))
                if fx != fy:
                    return False
        return True


def esssup_family(values: Iterable[ConditionalValue]) -> ConditionalValue:
    """Componentwise supremum of a nonempty family of conditional values."""
    vals = [v.values for v in values]
    if not vals:
        raise ValueError("esssup of an empty family")
    return ConditionalValue(np.max(np.stack(vals), axis=0))
