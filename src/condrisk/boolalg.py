"""Finite complete Boolean algebra over the conditioning blocks.

The algebra is the powerset of the atom indices ``1..m``; atom ``j`` stands
for the j-th block of the sub-sigma-algebra.  Elements are immutable value
objects, so they can serve as memoization keys elsewhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CondriskError


class AlgebraMismatchError(CondriskError):
    """Operands belong to different algebras."""


class PartitionError(CondriskError):
    """A list of elements fails to be a partition of unity."""


class NotDisjointError(PartitionError):
    pass


class NotCoveringError(PartitionError):
    pass


class BooleanAlgebra:
    """Powerset algebra on atoms ``1..m``; ``full`` is the mask of the unity."""

    __slots__ = ("atom_count", "full", "_zero", "_one")

    def __init__(self, atom_count: int):
        if not isinstance(atom_count, int) or atom_count < 1:
            raise ValueError("atom_count must be a positive integer")
        self.atom_count = atom_count
        self.full = (1 << atom_count) - 1
        self._zero = _elem(self, 0)
        self._one = _elem(self, self.full)

    @property
    def zero(self) -> "BoolElem":
        return self._zero

    @property
    def one(self) -> "BoolElem":
        return self._one

    def element(self, atoms: Iterable[int]) -> "BoolElem":
        return BoolElem(self, atoms)

    def atom(self, index: int) -> "BoolElem":
        return BoolElem(self, (index,))

    def from_mask(self, mask: int) -> "BoolElem":
        """The element whose atom ``a`` is bit ``a - 1`` of ``mask``."""
        if not isinstance(mask, int) or not 0 <= mask <= self.full:
            raise ValueError(f"mask {mask!r} outside 0..{self.full}")
        return _elem(self, mask)

    def atom_elements(self) -> tuple:
        return tuple(self.atom(i) for i in range(1, self.atom_count + 1))

    def elements(self) -> Iterator["BoolElem"]:
        """All ``2^m`` elements, in mask order.  Intended for small ``m``."""
        for mask in range(1 << self.atom_count):
            yield _elem(self, mask)

    def __repr__(self):
        return f"BooleanAlgebra(atoms={self.atom_count})"


def mask_atoms(mask: int) -> list:
    """The atoms of a mask, ascending: atom ``a`` for each set bit ``a - 1``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def mask_array(mask: int, m: int) -> np.ndarray:
    """Boolean array of length ``m`` whose entry ``i`` is bit ``i`` of ``mask``."""
    raw = np.frombuffer(mask.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=m, bitorder="little").view(bool)


def array_mask(bits: np.ndarray) -> int:
    """The mask whose bit ``i`` is ``bits[i]``; the inverse of ``mask_array``."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class BoolElem:
    """Element of a finite Boolean algebra: a subset of the atom indices.

    Held as one int ``mask`` in which bit ``a - 1`` stands for atom ``a``.
    The constructor validates the atoms; the lattice operations combine
    valid masks, so their results skip that check.
    """

    __slots__ = ("algebra", "mask")

    def __init__(self, algebra: BooleanAlgebra, atoms: Iterable[int]):
        mask = 0
        for a in atoms:
            if not isinstance(a, int) or not 1 <= a <= algebra.atom_count:
                raise ValueError(f"atom index {a!r} outside 1..{algebra.atom_count}")
            mask |= 1 << (a - 1)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("BoolElem is immutable")

    @property
    def atoms(self) -> frozenset:
        return frozenset(mask_atoms(self.mask))

    def _same(self, other: "BoolElem") -> None:
        if not isinstance(other, BoolElem):
            raise TypeError(f"expected BoolElem, got {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise AlgebraMismatchError("elements come from different algebras")

    # lattice operations
    def meet(self, other: "BoolElem") -> "BoolElem":
        self._same(other)
        return _elem(self.algebra, self.mask & other.mask)

    def join(self, other: "BoolElem") -> "BoolElem":
        self._same(other)
        return _elem(self.algebra, self.mask | other.mask)

    def complement(self) -> "BoolElem":
        return _elem(self.algebra, self.mask ^ self.algebra.full)

    def implies(self, other: "BoolElem") -> "BoolElem":
        # a => b is a^c v b
        self._same(other)
        return _elem(self.algebra, (self.mask ^ self.algebra.full) | other.mask)

    __and__ = meet
    __or__ = join
    __invert__ = complement

    def __le__(self, other: "BoolElem") -> bool:
        self._same(other)
        return (self.mask & other.mask) == self.mask

    def __ge__(self, other: "BoolElem") -> bool:
        self._same(other)
        return (self.mask & other.mask) == other.mask

    @property
    def is_zero(self) -> bool:
        return not self.mask

    @property
    def is_one(self) -> bool:
        return self.mask == self.algebra.full

    def __eq__(self, other):
        return (
            isinstance(other, BoolElem)
            and other.algebra is self.algebra
            and other.mask == self.mask
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((id(self.algebra), self.mask))

    def __repr__(self):
        return "{" + ",".join(map(str, mask_atoms(self.mask))) + "}"


def _elem(algebra: BooleanAlgebra, mask: int) -> BoolElem:
    """Unvalidated constructor, for masks already known to lie in the algebra."""
    e = object.__new__(BoolElem)
    object.__setattr__(e, "algebra", algebra)
    object.__setattr__(e, "mask", mask)
    return e


def lattice_ops(a: BoolElem, b: BoolElem | None, op: str) -> BoolElem:
    """Dispatch form of the lattice operations (``b`` ignored for complement)."""
    if op == "meet":
        return a.meet(b)
    if op == "join":
        return a.join(b)
    if op == "complement":
        return a.complement()
    if op == "implies":
        return a.implies(b)
    raise ValueError(f"unknown lattice operation {op!r}")


class PartitionOfUnity:
    """Pairwise disjoint elements whose join is the unity; zero parts dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[BoolElem]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a partition needs at least one element")
        algebra = parts[0].algebra
        kept = []
        seen = 0
        for p in parts:
            parts[0]._same(p)
            if not p.mask:
                continue
            if seen & p.mask:
                raise NotDisjointError(f"parts overlap on atoms {mask_atoms(seen & p.mask)}")
            seen |= p.mask
            kept.append(p)
        if seen != algebra.full:
            raise NotCoveringError(f"parts do not cover atoms {mask_atoms(algebra.full ^ seen)}")
        object.__setattr__(self, "parts", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("PartitionOfUnity is immutable")

    @property
    def algebra(self) -> BooleanAlgebra:
        return self.parts[0].algebra

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"PartitionOfUnity({list(self.parts)!r})"


def partition_validate(parts: Sequence[BoolElem]) -> PartitionOfUnity:
    """Normalize a list of elements into a partition of unity, or raise."""
    return PartitionOfUnity(parts)


def iter_partitions(algebra: BooleanAlgebra) -> Iterator[PartitionOfUnity]:
    """All set partitions of the atoms, each as a partition of unity."""

    m = algebra.atom_count

    def rec(atom: int) -> Iterator[list]:
        # partitions of the atoms ``atom..m``, each a list of part masks
        if atom > m:
            yield []
            return
        bit = 1 << (atom - 1)
        for sub in rec(atom + 1):
            yield [bit] + sub
            for i in range(len(sub)):
                yield sub[:i] + [bit | sub[i]] + sub[i + 1 :]

    for masks in rec(1):
        yield PartitionOfUnity([_elem(algebra, mask) for mask in masks])
