"""Finite probability space with a block partition as intermediate information.

All atom probabilities are strictly positive, so almost-sure identities are
plain identities and no null-set bookkeeping is needed.  Sample atoms and
blocks are addressed with 1-based indices to match the wire formats.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .boolalg import BooleanAlgebra, BoolElem, PartitionOfUnity
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


def _cv(values: np.ndarray) -> ConditionalValue:
    """Unvalidated constructor, for read-only slices of a validated value."""
    out = object.__new__(ConditionalValue)
    object.__setattr__(out, "values", values)
    return out


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

        probs = _readonly(p)
        # block layout, built once: atoms in block order, cut at ``starts``
        # (kept as Python ints in ``_bounds`` too, for cheap per-block slices)
        sizes = [len(b) for b in blocks]
        bounds = tuple(accumulate(sizes, initial=0))
        order = np.array([i - 1 for b in blocks for i in b], dtype=np.intp)
        starts = np.array(bounds[:-1], dtype=np.intp)
        # the smallest integer type that holds a block id keeps the stable
        # sort of block ids in cond_avar a radix sort
        block_of = np.empty(n, dtype=np.min_scalar_type(len(blocks) - 1))
        in_order = np.arange(len(blocks), dtype=block_of.dtype).repeat(sizes)
        block_of[order] = in_order
        block_mass = np.add.reduceat(probs.take(order), starts)
        cond = probs if _normalized else probs / block_mass[block_of]
        cond_in_order = cond[order]
        for arr in (order, starts, block_of, block_mass, cond, cond_in_order, in_order):
            arr.setflags(write=False)
        # set once, here: every measure on the space reads this layout, so
        # assignment is refused; the memo of block spaces is the one part
        # that changes
        vars(self).update(
            probs=probs,
            blocks=blocks,
            algebra=BooleanAlgebra(len(blocks)),
            _bounds=bounds,
            order=order,
            starts=starts,
            block_of=block_of,
            _block_in_order=in_order,
            block_mass=block_mass,
            cond=cond,
            _cond_in_order=cond_in_order,
            _block_spaces={},
        )

    def __setattr__(self, name, value):
        raise AttributeError("FiniteProbSpace is immutable")

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
        """Atoms of block ``j`` in block order; the one range check of a block index."""
        if not 1 <= j <= len(self.blocks):
            raise ValueError(f"block {j} outside 1..{len(self.blocks)}")
        return slice(self._bounds[j - 1], self._bounds[j])

    def cond_probs(self, j: int) -> np.ndarray:
        """Conditional atom probabilities inside block ``j`` (1-based)."""
        return self._cond_in_order[self._block_slice(j)]

    def block_index_array(self, j: int) -> np.ndarray:
        return self.order[self._block_slice(j)]

    def restrict(self, x: RandomVariable, j: int) -> np.ndarray:
        return self._check_rv(x)[self.block_index_array(j)]

    def extend(self, block_values, j: int, fill: float = 0.0) -> RandomVariable:
        idx = self.block_index_array(j)
        vals = np.asarray(block_values, dtype=float)
        if vals.shape != idx.shape:
            raise SpaceError(f"block {j} has {idx.size} atoms, got values of shape {vals.shape}")
        out = np.full(self.n_atoms, float(fill))
        out[idx] = vals
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

    def part_index(self, partition: PartitionOfUnity) -> np.ndarray:
        """For each sample atom, the index of the part that holds its block:
        ``PartitionOfUnity.part_index`` carried from the blocks to the atoms."""
        if not isinstance(partition, PartitionOfUnity):
            raise TypeError("expected a PartitionOfUnity")
        self._check_elem(partition.parts[0])
        return self.broadcast(partition.part_index())

    def indicator_mix(self, partition: PartitionOfUnity, xs: Sequence[RandomVariable]) -> RandomVariable:
        """Paste one payoff per part: the result agrees with ``xs[k]`` on part k."""
        part = self.part_index(partition)
        xs = list(xs)
        if len(xs) != len(partition):
            raise SpaceError(
                f"{len(partition)} parts but {len(xs)} payoffs"
            )
        stacked = np.stack([self._check_rv(x) for x in xs])
        return RandomVariable(stacked[part, np.arange(self.n_atoms)])

    def cond_cdf(self, x: RandomVariable, eta: ConditionalValue) -> ConditionalValue:
        """P(x <= eta | block) per block."""
        xv = self._check_rv(x)
        ev = self._check_cv(eta)
        return ConditionalValue(self.block_mean(xv <= self.broadcast(ev)))

    def same_conditional_law(self, x: RandomVariable, y: RandomVariable) -> bool:
        """Whether every block gives x and y the same law: the same values,
        each carrying the same conditional mass.

        The mass at a value is summed in the order of a lexsort by block,
        value and atom mass, so the verdict does not depend on atom order.
        """
        laws = []
        for v in (self._check_rv(x), self._check_rv(y)):
            at = np.lexsort((self.cond, v, self.block_of))
            block, value = self.block_of[at], v[at]
            first = np.flatnonzero(
                np.r_[True, (block[1:] != block[:-1]) | (value[1:] != value[:-1])]
            )
            laws.append((block[first], value[first], np.add.reduceat(self.cond[at], first)))
        return all(np.array_equal(a, b) for a, b in zip(*laws))

