"""Finite complete Boolean algebra over the conditioning blocks.

The algebra is the powerset of the atom indices ``1..m``; atom ``j`` stands
for the j-th block of the sub-sigma-algebra.  Elements are immutable value
objects, so they can serve as memoization keys elsewhere.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CondriskError, _as_int


class AlgebraMismatchError(CondriskError):
    """Operands belong to different algebras."""


class PartitionError(CondriskError):
    """A list of elements fails to be a partition of unity."""


class NotDisjointError(PartitionError):
    pass


class NotCoveringError(PartitionError):
    pass


MEMO_CAP = 1 << 12


class _Memo(dict):
    """A table filled on a miss, by ``build(key)`` through ``memo[key]`` or by
    ``keep(key, value)`` after a ``get``; a builder bound to the table's owner
    keeps the owner in a reference cycle.  A memo of ``MEMO_CAP`` entries is
    cleared before its next insert, and an insert is a ``setdefault``, so of
    two threads that miss at once the first value stored is kept (each may
    pass the cap by one entry)."""

    __slots__ = ("build",)

    def __init__(self, build: Callable | None = None):
        self.build = build

    def __missing__(self, key):
        return self.keep(key, self.build(key))

    def keep(self, key, value):
        if len(self) >= MEMO_CAP:
            self.clear()
        return self.setdefault(key, value)


class BooleanAlgebra:
    """Powerset algebra on atoms ``1..m``; ``full`` is the mask of the unity.

    Every element it hands out, and every result of a lattice operation on
    them, is the one element it keeps for that mask, in a ``_Memo``."""

    __slots__ = ("atom_count", "full", "_interned")

    def __init__(self, atom_count: int):
        self.atom_count = atom_count = _as_int(atom_count, "atom_count", 1, None)
        self.full = (1 << atom_count) - 1
        self._interned = _Memo(self._fresh)

    def _fresh(self, mask: int) -> "BoolElem":
        e = object.__new__(BoolElem)
        _set_algebra(e, self)
        _set_mask(e, mask)
        _set_atom_set(e, None)
        return e

    @property
    def one(self) -> "BoolElem":
        return self._interned[self.full]

    def element(self, atoms: Iterable[int]) -> "BoolElem":
        return self._interned[_atoms_mask(self, atoms)]

    def atom(self, index: int) -> "BoolElem":
        return self.element((index,))

    def from_mask(self, mask: int) -> "BoolElem":
        """The element whose atom ``a`` is bit ``a - 1`` of ``mask``."""
        if type(mask) is not int or not 0 <= mask <= self.full:
            mask = _as_int(mask, "mask", 0, self.full)
        return self._interned[mask]

    def atom_elements(self) -> tuple:
        return tuple(self.atom(i) for i in range(1, self.atom_count + 1))

    def elements(self) -> Iterator["BoolElem"]:
        """All ``2^m`` elements, in mask order.  Intended for small ``m``."""
        for mask in range(1 << self.atom_count):
            yield self._interned[mask]

    def __repr__(self):
        return f"BooleanAlgebra(atoms={self.atom_count})"


# _BYTE_ATOMS[k][b]: the atoms, ascending, of byte value b at byte k of a mask
# (k < 8, so up to 64 atoms); _BYTE_SETS and _BYTE1_SETS: bytes 0's and 1's
# as shared frozensets
_BYTE_ATOMS = tuple(
    tuple(tuple(8 * k + i + 1 for i in range(8) if b >> i & 1) for b in range(256)) for k in range(8)
)
_BYTE_SETS = tuple(map(frozenset, _BYTE_ATOMS[0]))
_BYTE1_SETS = tuple(map(frozenset, _BYTE_ATOMS[1]))


def mask_atoms(mask: int) -> list:
    """The atoms of a mask, ascending: atom ``a`` for each set bit ``a - 1``,
    read one byte at a time from a table of bit positions."""
    if mask < 256:
        return list(_BYTE_ATOMS[0][mask])
    out = []
    for k, b in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if b:
            out += _BYTE_ATOMS[k][b] if k < 8 else [8 * k + a for a in _BYTE_ATOMS[0][b]]
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
    The constructor validates the atoms and makes a fresh element; the
    algebra's readers and the lattice operations hand out the element the
    algebra keeps for the mask, and combine valid masks without that check.
    """

    __slots__ = ("algebra", "mask", "_atom_set")

    def __init__(self, algebra: BooleanAlgebra, atoms: Iterable[int]):
        _set_algebra(self, algebra)
        _set_mask(self, _atoms_mask(algebra, atoms))
        _set_atom_set(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("BoolElem is immutable")

    @property
    def atoms(self) -> frozenset:
        """Built on the first read and kept for masks below 2^16; a larger
        mask builds its set on each read, so a large algebra keeps none."""
        atom_set = self._atom_set
        if atom_set is None:
            mask = self.mask
            if mask < 256:
                atom_set = _BYTE_SETS[mask]
            elif mask < 65536:
                atom_set = _BYTE_SETS[mask & 255] | _BYTE1_SETS[mask >> 8]
            else:
                return frozenset(mask_atoms(mask))
            _set_atom_set(self, atom_set)
        return atom_set

    def _same(self, other: "BoolElem") -> None:
        if not isinstance(other, BoolElem):
            raise TypeError(f"expected BoolElem, got {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise AlgebraMismatchError("elements come from different algebras")

    # lattice operations
    def meet(self, other: "BoolElem") -> "BoolElem":
        self._same(other)
        return self.algebra._interned[self.mask & other.mask]

    def join(self, other: "BoolElem") -> "BoolElem":
        self._same(other)
        return self.algebra._interned[self.mask | other.mask]

    def complement(self) -> "BoolElem":
        algebra = self.algebra
        return algebra._interned[self.mask ^ algebra.full]

    def implies(self, other: "BoolElem") -> "BoolElem":
        # a => b is a^c v b
        self._same(other)
        algebra = self.algebra
        return algebra._interned[(self.mask ^ algebra.full) | other.mask]

    __and__ = meet
    __or__ = join
    __invert__ = complement

    def __le__(self, other: "BoolElem") -> bool:
        self._same(other)
        return (self.mask & other.mask) == self.mask

    def __ge__(self, other: "BoolElem") -> bool:
        self._same(other)
        return (self.mask & other.mask) == other.mask

    def __eq__(self, other):
        return (
            isinstance(other, BoolElem)
            and other.algebra is self.algebra
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.algebra), self.mask))

    def __repr__(self):
        return "{" + ",".join(map(str, mask_atoms(self.mask))) + "}"


# the slot descriptors' setters: BoolElem.__setattr__ refuses every assignment
_set_algebra = BoolElem.algebra.__set__
_set_mask = BoolElem.mask.__set__
_set_atom_set = BoolElem._atom_set.__set__


def _atoms_mask(algebra: BooleanAlgebra, atoms: Iterable[int]) -> int:
    """The mask of a list of atoms, each checked to lie in ``1..m``."""
    m = algebra.atom_count
    mask = 0
    for a in atoms:
        if type(a) is not int or not 1 <= a <= m:
            a = _as_int(a, "atom index", 1, m)
        mask |= 1 << (a - 1)
    return mask


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

    def part_index(self) -> np.ndarray:
        """For each atom, ascending, the index of the part that holds it.

        The one mixing rule: a value pasted along the partition from a stack
        of rows takes atom ``i + 1`` from row ``part_index()[i]``.
        """
        m = self.algebra.atom_count
        out = np.empty(m, dtype=np.intp)
        for k, part in enumerate(self.parts):
            out[mask_array(part.mask, m)] = k
        return out

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
        yield PartitionOfUnity([algebra._interned[mask] for mask in masks])
