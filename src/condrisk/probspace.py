"""Finite probability space with a block partition as intermediate information.

All atom probabilities are strictly positive, so almost-sure identities are
plain identities and no null-set bookkeeping is needed.  Sample atoms and
blocks are addressed with 1-based indices to match the wire formats.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import Sequence

import numpy as np

from .boolalg import BooleanAlgebra, BoolElem, PartitionOfUnity, _Memo, array_mask
from .errors import CondriskError, _as_int

PROB_SUM_TOL = 1e-12


def _mass_key(mass: np.ndarray) -> np.ndarray:
    """The equal-mass rule: two conditional masses are equal when their keys are (12 decimals)."""
    return np.round(mass, 12)


class SpaceError(CondriskError):
    """Invalid space description or mismatched operands."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class _Values:
    """A checked, read-only vector of floats: the base of payoffs, values
    per block and dual variables.  Built from one ``np.array`` copy, which
    must be nonempty and 1-d (refused by the type's ``_noun``) and pass the
    type's ``_check``; compared by type and values.  ``_gathered`` is the
    slot of ``FiniteProbSpace._in_order``, unset until a space reads it."""

    __slots__ = ("values", "_gathered")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{self._noun} is a nonempty 1-d array")
        self._check(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        """The type's rule on the entries of an array of any shape, so row
        batches are checked by the rule of the value their rows stand for."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"{type(self).__name__}({self.values.tolist()!r})"


class _Arithmetic(_Values):
    """Entrywise +, - and * with a number, an array or a value of the same type."""

    __slots__ = ()

    def _apply(self, fn, other) -> np.ndarray:
        return fn(self.values, other.values if isinstance(other, type(self)) else other)

    def __add__(self, other):
        return type(self)(self._apply(np.add, other))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(self._apply(np.subtract, other))

    def __neg__(self):
        return type(self)(-self.values)

    def __mul__(self, other):
        return type(self)(self._apply(np.multiply, other))

    __rmul__ = __mul__


class RandomVariable(_Arithmetic):
    """Payoff: one finite real value per sample atom."""

    __slots__ = ()
    _noun = "a random variable"

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.isfinite(arr).all():
            raise ValueError("random variable entries must be finite")

    def __abs__(self):
        return RandomVariable(np.abs(self.values))


class ConditionalValue(_Arithmetic):
    """One extended-real value per block; finite entries mean a plain value."""

    __slots__ = ()
    _noun = "a conditional value"

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if np.isnan(arr).any():
            raise ValueError("conditional value entries must not be NaN")

    @property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def _apply(self, fn, other) -> np.ndarray:
        # a NaN operand is refused as a NaN entry is; a NaN left in the
        # result is then inf * 0 from a product, else inf - inf
        if not isinstance(other, type(self)):
            other = np.asarray(other, dtype=float)
            self._check(other)
        with np.errstate(invalid="ignore"):
            out = super()._apply(fn, other)
        if np.isnan(out).any():
            form = "inf * 0" if fn is np.multiply else "inf - inf"
            raise CondriskError(f"indeterminate extended-real arithmetic ({form})")
        return out


def _partition_error(blocks, n: int) -> str:
    """The first fault of ``blocks`` as a partition of atoms 1..n, in scan
    order: an empty block, an index that is a bool, not an integer or not
    an atom, an atom in a second block; then the atoms no block covers."""
    seen = set()
    for j, b in enumerate(blocks, start=1):
        if len(b) == 0:
            return f"block {j} is empty"
        for i in b:
            try:
                k = operator.index(i)
            except TypeError:
                k = None
            if k is None or isinstance(i, bool):
                return f"block {j} holds {i!r}, not an integer atom index"
            if not 1 <= k <= n:
                return f"block {j} references atom {k} of {n}"
            if k in seen:
                return f"atom {k} appears in more than one block"
            seen.add(k)
    return f"blocks do not cover atoms {sorted(set(range(1, n + 1)) - seen)}"


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

        if len(blocks) == 0:
            raise SpaceError("blocks must be nonempty")
        # read every atom index once, into one array; ``operator.index``
        # takes Python and numpy integers and refuses a float or a string
        sizes = list(map(len, blocks))
        bounds = tuple(accumulate(sizes, initial=0))
        try:
            atoms = np.fromiter(map(operator.index, chain.from_iterable(blocks)), np.intp, bounds[-1])
        except (TypeError, ValueError, OverflowError):
            atoms = None
        # a partition: no empty block, and the atoms sorted are 1..n, which
        # covers range, duplicates and coverage in one test
        if atoms is None or 0 in sizes or bounds[-1] != n or not (np.sort(atoms) == np.arange(1, n + 1)).all():
            raise SpaceError(_partition_error(blocks, n))

        probs = _readonly(p)
        # block layout, built once: atoms in block order, cut at ``starts``
        # (kept as Python ints in ``_bounds`` too, for cheap per-block slices)
        order = vars(self)["order"] = atoms - 1
        starts = np.array(bounds[:-1], dtype=np.intp)
        # the smallest integer type that holds a block id keeps the stable
        # sort of block ids in cond_avar a radix sort
        block_of = np.empty(n, dtype=np.min_scalar_type(len(sizes) - 1))
        in_order = np.arange(len(sizes), dtype=block_of.dtype).repeat(sizes)
        # True reads as atom 1 (False as 0, refused above): refuse a bool at the entry read as 1
        k = int((atoms == 1).argmax())
        if isinstance(next(islice(blocks[in_order[k]], k - bounds[in_order[k]], None)), bool):
            raise SpaceError(_partition_error(blocks, n))
        block_of[order] = in_order
        block_mass = np.add.reduceat(self._in_order(probs), starts)
        cond = probs if _normalized else probs / block_mass[block_of]
        cond_in_order = self._in_order(cond)
        for arr in (order, starts, block_of, block_mass, cond, cond_in_order, in_order):
            arr.setflags(write=False)
        # set once, here: every measure on the space reads this layout, so
        # assignment is refused; the memo of block spaces is the one part
        # that changes
        vars(self).update(
            probs=probs,
            algebra=BooleanAlgebra(len(sizes)),
            _bounds=bounds,
            starts=starts,
            block_of=block_of,
            _block_in_order=in_order,
            block_mass=block_mass,
            cond=cond,
            _cond_in_order=cond_in_order,
            _block_spaces=_Memo(),
        )

    def __setattr__(self, name, value):
        raise AttributeError("FiniteProbSpace is immutable")

    @property
    def n_atoms(self) -> int:
        return self.probs.size

    @property
    def n_blocks(self) -> int:
        return len(self._bounds) - 1

    @cached_property
    def _mass_groups(self) -> tuple:
        """Groups of atoms of one block whose conditional masses are equal
        (``_mass_key``), built on first read: the atoms of every group, group
        after group and in block order inside each, and the group label of
        each.  A conditional law survives any shuffle inside a group; one-atom
        groups, whose shuffle is the identity, are left out."""
        mass = _mass_key(self._cond_in_order)
        # stable: a group's atoms stay in block order
        s = np.lexsort((mass, self._block_in_order))
        block, mass = self._block_in_order[s], mass[s]
        label = np.cumsum(np.r_[True, (block[1:] != block[:-1]) | (mass[1:] != mass[:-1])]) - 1
        shared = np.bincount(label)[label] > 1
        members, labels = self.order[s][shared], label[shared]
        for arr in (members, labels):
            arr.setflags(write=False)
        return members, labels

    @cached_property
    def blocks(self) -> tuple:
        """The blocks as tuples of 1-based atom indices, as Python ints, in
        the order given; built from the layout on first read."""
        atoms, b = (self.order + 1).tolist(), self._bounds
        return tuple(tuple(atoms[b[j] : b[j + 1]]) for j in range(len(b) - 1))

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
        """Atoms of block ``j`` in block order; the one read of a block index,
        by the integer rule (``errors._as_int``)."""
        b = self._bounds
        if type(j) is not int or not 0 < j < len(b):
            j = _as_int(j, "block", 1, len(b) - 1)
        return slice(b[j - 1], b[j])

    def cond_probs(self, j: int) -> np.ndarray:
        """Conditional atom probabilities inside block ``j`` (1-based)."""
        return self._cond_in_order[self._block_slice(j)]

    def block_index_array(self, j: int) -> np.ndarray:
        return self.order[self._block_slice(j)]

    def restrict(self, x: RandomVariable, j: int) -> np.ndarray:
        return self._check_rv(x)[self.block_index_array(j)]

    def _in_order(self, v, gathered: np.ndarray = None) -> np.ndarray:
        """``v`` gathered into block order, the one gather of the space: rows
        of an array (its last axis) get a fresh gather, which the caller may
        write.  A value (a payoff or a dual) keeps its copy, read-only, in
        its one slot, keyed by the ``order`` array it was gathered for, so a
        read through another layout replaces it; ``gathered``, a gather the
        caller made already, seeds an empty or stale slot."""
        if not isinstance(v, _Values):
            return v.take(self.order, axis=-1)
        slot = getattr(v, "_gathered", None)
        if slot is None or slot[0] is not self.order:
            if gathered is None:
                gathered = v.values.take(self.order)
            gathered.setflags(write=False)
            slot = (self.order, gathered)
            object.__setattr__(v, "_gathered", slot)
        return slot[1]

    def _mean(self, a: np.ndarray) -> np.ndarray:
        """Conditional expectation of each block of ``a``, rows already in block order."""
        return np.add.reduceat(self._cond_in_order * a, self.starts, axis=-1)

    # -- blockwise reductions over the last axis of arrays (payoffs or row
    #    batches) or of a value; each reads ``_in_order`` and cuts at ``starts``

    def block_max(self, v) -> np.ndarray:
        return np.maximum.reduceat(self._in_order(v), self.starts, axis=-1)

    def block_min(self, v) -> np.ndarray:
        return np.minimum.reduceat(self._in_order(v), self.starts, axis=-1)

    def block_mean(self, v) -> np.ndarray:
        """Conditional expectation of each block under the conditional probabilities."""
        return self._mean(self._in_order(v))

    def broadcast(self, per_block: np.ndarray) -> np.ndarray:
        """Per-block values (last axis) repeated onto the atoms of each block."""
        return per_block.take(self.block_of, axis=-1)

    def block_space(self, j: int) -> "FiniteProbSpace":
        """Single-block space carrying the conditional probabilities of block ``j``.

        The probability array is reused bit-for-bit, so blockwise quantities on
        this space agree exactly with the parent's block-``j`` quantities.
        """
        q = self.cond_probs(j)  # refuses a bad j before the memo sees it
        space = self._block_spaces.get(j)
        if space is None:
            space = self._block_spaces.keep(j, FiniteProbSpace(q, [range(1, q.size + 1)], _normalized=True))
        return space

    def lift(self, eta: ConditionalValue) -> RandomVariable:
        """Blockwise-constant payoff with the given finite block values."""
        vals = self._check_cv(eta)
        if not np.all(np.isfinite(vals)):
            raise SpaceError("cannot lift an extended conditional value to a payoff")
        return RandomVariable(self.broadcast(vals))

    # -- conditional operators ----------------------------------------------

    def cond_expect(self, x: RandomVariable) -> ConditionalValue:
        """Conditional expectation: per block the conditional weighted average."""
        self._check_rv(x)
        return ConditionalValue(self.block_mean(x))

    def esssup_cond(self, x: RandomVariable) -> ConditionalValue:
        self._check_rv(x)
        return ConditionalValue(self.block_max(x))

    def essinf_cond(self, x: RandomVariable) -> ConditionalValue:
        self._check_rv(x)
        return ConditionalValue(self.block_min(x))

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
        """P(x <= eta | block) per block, in block order against eta repeated by block size."""
        self._check_rv(x)
        ev = self._check_cv(eta)
        return ConditionalValue(self._mean(self._in_order(x) <= ev.take(self._block_in_order)))

    def same_conditional_law(self, x: RandomVariable, y: RandomVariable) -> bool:
        """Whether every block gives x and y the same law: the same values,
        each carrying the same conditional mass by the equal-mass rule
        (``_mass_key``), the rule that groups the atoms a law trial shuffles.

        The mass at a value is summed in the order of a lexsort by block,
        value and atom mass, so the verdict does not depend on atom order.
        """
        laws = []
        for v in (self._check_rv(x), self._check_rv(y)):
            at = np.lexsort((self.cond, v, self.block_of))
            block, value = self.block_of[at], v[at]
            first = np.flatnonzero(np.r_[True, (block[1:] != block[:-1]) | (value[1:] != value[:-1])])
            laws.append((block[first], value[first], _mass_key(np.add.reduceat(self.cond[at], first))))
        return all(np.array_equal(a, b) for a, b in zip(*laws))


# -- interpretation maps -----------------------------------------------------------
# Over a finite algebra the model's reals descend to one real per atom, which
# is what a ConditionalValue holds (a natural number when its entries are
# integral), and the model's L^1 elements descend to payoffs.  The maps below
# act on those types directly.


def _real_entries(algebra: BooleanAlgebra, u: ConditionalValue) -> np.ndarray:
    """The entries of ``u``, checked as one finite real per atom of ``algebra``."""
    if not isinstance(u, ConditionalValue):
        raise TypeError("expected a ConditionalValue")
    if len(u) != algebra.atom_count:
        raise ValueError(f"conditional value has length {len(u)}, algebra has {algebra.atom_count} atoms")
    if not u.is_finite:
        raise ValueError("a real of the model is a finite conditional value")
    return u.values


def real_eq_truth(algebra: BooleanAlgebra, u: ConditionalValue, v: ConditionalValue) -> BoolElem:
    return algebra.from_mask(array_mask(_real_entries(algebra, u) == _real_entries(algebra, v)))


def real_le_truth(algebra: BooleanAlgebra, u: ConditionalValue, v: ConditionalValue) -> BoolElem:
    return algebra.from_mask(array_mask(_real_entries(algebra, u) <= _real_entries(algebra, v)))


def l1_eq_truth(space: FiniteProbSpace, x: RandomVariable, y: RandomVariable) -> BoolElem:
    return space.algebra.from_mask(array_mask(space.block_min(space._check_rv(x) == space._check_rv(y))))


def l1_le_truth(space: FiniteProbSpace, x: RandomVariable, y: RandomVariable) -> BoolElem:
    return space.algebra.from_mask(array_mask(space.block_min(space._check_rv(x) <= space._check_rv(y))))


def mix_reals(partition: PartitionOfUnity, reals: Sequence[ConditionalValue]) -> ConditionalValue:
    """Paste one real per part: the result agrees with ``reals[k]`` on part k."""
    reals = list(reals)
    if len(reals) != len(partition):
        raise ValueError(f"{len(partition)} parts but {len(reals)} reals")
    algebra = partition.algebra
    stacked = np.stack([_real_entries(algebra, u) for u in reals])
    return ConditionalValue(stacked[partition.part_index(), np.arange(algebra.atom_count)])


def seq_index(xs: Sequence[RandomVariable], n: ConditionalValue, space: FiniteProbSpace) -> RandomVariable:
    """Blockwise indexing of a finite sequence: block j takes xs[n_j] (1-based).

    ``n`` is a natural number of the model: one integral entry per block.
    """
    xs = list(xs)
    index = space._check_cv(n)
    outside = (index < 1) | (index > len(xs))
    if np.any(outside):
        j = int(np.argmax(outside))
        raise IndexError(f"block {j + 1} index {index[j]:g} outside 1..{len(xs)}")
    fractional = index != np.floor(index)
    if np.any(fractional):
        j = int(np.argmax(fractional))
        raise ValueError(f"block {j + 1} index {index[j]:g} is not an integer")
    stacked = np.stack([space._check_rv(x) for x in xs])
    return RandomVariable(stacked[space.broadcast(index.astype(np.intp) - 1), np.arange(space.n_atoms)])
