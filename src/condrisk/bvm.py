"""Boolean-valued model engine over a finite atomic algebra.

Names are finite maps from child names to algebra elements, hash-consed into
a separated universe.  Over a finite atomic algebra the universe factors over
the atoms: a name is determined, up to equivalence, by its two-valued collapse
at each atom.  Canonical identity is therefore keyed on the collapse tuple,
while Boolean truth values come from the rank recursion itself, evaluated
bottom-up into dense tables, so the two routes stay independently checkable.
"""

from __future__ import annotations

import operator
import re
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .boolalg import (
    AlgebraMismatchError,
    BooleanAlgebra,
    BoolElem,
    PartitionOfUnity,
    array_mask,
    mask_array,
    mask_atoms,
)
from .errors import CondriskError, ParseError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable


class UniverseError(CondriskError):
    pass


class ExtensionalityError(CondriskError):
    """A candidate function map fails the extensionality inequality."""

    def __init__(self, w, t):
        super().__init__("map is not extensional on the reported pair")
        self.pair = (w, t)


class WitnessError(CondriskError):
    pass


class Name:
    """Node of the separated universe; compare by identity (hash-consed).

    ``entries`` holds ``(child, BoolElem)`` pairs by child id; ``masks`` holds
    the same pairs with bare int masks, for the truth recursion.
    """

    __slots__ = ("universe", "entries", "masks", "rank", "canonical_id", "collapses")

    def __init__(self, universe, entries, rank, canonical_id, collapses):
        self.universe = universe
        self.entries = entries
        self.masks = tuple((child, value.mask) for child, value in entries)
        self.rank = rank
        self.canonical_id = canonical_id
        self.collapses = collapses

    def collapse_at(self, atom: int) -> frozenset:
        m = len(self.collapses)
        if not 1 <= atom <= m:
            raise ValueError(f"atom {atom} outside 1..{m}")
        return self.collapses[atom - 1]

    def __repr__(self):
        try:
            return name_to_literal(self)
        except UniverseError:
            return f"Name(canonical_id={self.canonical_id}, rank={self.rank})"


class Universe:
    """Separated Boolean-valued universe over one finite algebra.

    The registry, truth tables and literal memo are shared mutable state.
    Names are registered, and truth tables grown, under one lock; a reader
    takes one reference to the current table and reads only slots it holds,
    and a table cleared at its cap is swapped for a new one, so no slot a
    reader holds is ever rewritten.  The literal memo
    maps the exact source text of a ``name{...}``, ``check(...)`` or
    ``mix[...]`` literal to its name, so a spelling is parsed once here.
    """

    def __init__(self, algebra: BooleanAlgebra):
        self.algebra = algebra
        self._registry: dict = {}
        # names by canonical id; the truth tables are built on the first query
        self._names: list = []
        self._table: Optional[_TruthTable] = None
        self._literal_memo: dict = {}
        self._lock = threading.Lock()
        self.empty = self.make_name({})

    def __repr__(self):
        return f"Universe(atoms={self.algebra.atom_count}, names={len(self._registry)})"

    # -- construction -------------------------------------------------------

    def make_name(self, entries: Mapping[Name, BoolElem]) -> Name:
        """Normalize and hash-cons: drop zero values, merge equivalent children."""
        merged: dict = {}
        for child, value in entries.items():
            if not isinstance(child, Name) or child.universe is not self:
                raise UniverseError("child names must belong to this universe")
            if value.algebra is not self.algebra:
                raise AlgebraMismatchError("entry value from a different algebra")
            if not value.mask:
                continue
            prior = merged.get(child)
            merged[child] = value if prior is None else prior | value
        # at atom a, the collapse holds the collapses of the children valued there
        cols: list = [[] for _ in range(self.algebra.atom_count)]
        for c, v in merged.items():
            for a in mask_atoms(v.mask):
                cols[a - 1].append(c.collapses[a - 1])
        collapses = tuple(map(frozenset, cols))
        existing = self._registry.get(collapses)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._registry.get(collapses)
            if existing is not None:
                return existing
            ordered = tuple(sorted(merged.items(), key=lambda cv: cv[0].canonical_id))
            rank = 1 + max((c.rank for c, _ in ordered), default=-1)
            name = Name(self, ordered, rank, len(self._names), collapses)
            self._registry[collapses] = name
            self._names.append(name)
        return name

    def canonical_name(self, h) -> Name:
        """Embed a hereditary finite set (nested iterables) with all values I."""
        hf = _to_hf(h)
        return self._canonical_from_hf(hf)

    def _canonical_from_hf(self, hf: frozenset) -> Name:
        one = self.algebra.one
        return self.make_name({self._canonical_from_hf(c): one for c in hf})

    # -- Boolean truth values -------------------------------------------------

    def truth_in(self, u: Name, v: Name) -> BoolElem:
        """[[u in v]] by the membership equation, read from the truth table."""
        self._check(u, v)
        return self.algebra.from_mask(self._in(u, v))

    def truth_eq(self, u: Name, v: Name) -> BoolElem:
        """[[u = v]] by the double-inclusion equation, read from the truth table."""
        self._check(u, v)
        return self.algebra.from_mask(self._eq(u, v))

    # Both read the truth tables; no name checks are needed past _check:
    # make_name refuses children from another universe, so every name reached
    # belongs to self.

    def _in(self, u: Name, v: Name) -> int:
        table, s, t = self._slots(v, u)
        return table.inn.item(s, t)

    def _eq(self, u: Name, v: Name) -> int:
        table, s, t = self._slots(u, v)
        return table.eq.item(s, t)

    def _slots(self, u: Name, v: Name):
        """A truth table holding u and v, and their slots in it."""
        table = self._table
        if table is not None:
            s = table.slot.get(u)
            t = table.slot.get(v)
            if s is not None and t is not None:
                return table, s, t
        table = self._grow(u, v)
        return table, table.slot[u], table.slot[v]

    def _grow(self, u: Name, v: Name) -> "_TruthTable":
        """Slot every unslotted name if the registry fits under the cap, else
        the unslotted closure of u and v, in a cleared table if need be."""
        with self._lock:
            table = self._table
            if table is None:
                table = self._table = _TruthTable(self.algebra)
            if u in table.slot and v in table.slot:
                return table
            if len(self._names) <= TRUTH_TABLE_CAP:
                table.add([w for w in self._names if w not in table.slot])
                return table
            batch = _unslotted_closure((u, v), table.slot)
            if len(table.slot) + len(batch) > TRUTH_TABLE_CAP:
                batch = _unslotted_closure((u, v), {})
                if len(batch) > TRUTH_TABLE_CAP:
                    raise UniverseError(
                        f"the truth values of this pair need {len(batch)} names, "
                        f"over TRUTH_TABLE_CAP = {TRUTH_TABLE_CAP}"
                    )
                # a reader may still hold the full table: swap, never rewrite
                table = _TruthTable(self.algebra)
            table.add(batch)
            self._table = table
            return table

    def _check(self, *names: Name) -> None:
        for n in names:
            if not isinstance(n, Name) or n.universe is not self:
                raise UniverseError("name belongs to a different universe")

    # -- mixing and witnesses --------------------------------------------------

    def mix(self, partition: PartitionOfUnity, names: Sequence[Name]) -> Name:
        """The unique name equal to names[k] on part k.

        Assembled from the candidate children of all inputs, each child valued
        by the join over parts of (part AND membership there); the result is
        verified against the defining inequality.
        """
        names = list(names)
        if len(names) != len(partition):
            raise UniverseError(f"{len(partition)} parts but {len(names)} names")
        if partition.algebra is not self.algebra:
            raise AlgebraMismatchError("partition over a different algebra")
        self._check(*names)
        candidates: dict = {}
        for u in names:
            for child, _ in u.entries:
                candidates[child] = None
        entries = {}
        for child in candidates:
            value = 0
            for part, u in zip(partition, names):
                value |= part.mask & self._in(child, u)
            entries[child] = self.algebra.from_mask(value)
        mixed = self.make_name(entries)
        for part, u in zip(partition, names):
            if part.mask & ~self._eq(mixed, u):
                raise UniverseError("mixing produced a name violating its defining bound")
        return mixed

    def maximum_witness(
        self,
        phi: Callable[[Name], BoolElem],
        v: Name,
        default: Optional[Name] = None,
    ) -> Name:
        """A name u with [[phi(u)]] equal to [[exists x in v . phi(x)]].

        Atomwise: below the existence value pick the smallest-id member of
        dom(v) whose formula value covers the atom; elsewhere pick any member
        (still smallest id), since membership already forces the formula false
        there.  Where v has no member at all, try ``default`` (the empty name)
        and then small canonical fallbacks until one falsifies the formula at
        that atom.  The guarantee is verified; it is unachievable only when v
        is empty at an atom where the formula holds of every candidate.
        """
        self._check(v)
        default = default if default is not None else self.empty
        truths = [(child, value.mask, phi(child).mask) for child, value in v.entries]
        exists = 0
        for child, value, t in truths:
            exists |= value & t
        picks = []
        parts = []
        fallbacks = None
        for a in range(1, self.algebra.atom_count + 1):
            bit = 1 << (a - 1)
            local = [(c, val, t) for c, val, t in truths if val & bit]
            local.sort(key=lambda cvt: cvt[0].canonical_id)
            if exists & bit:
                chosen = next(c for c, val, t in local if t & bit)
            elif local:
                chosen = local[0][0]
            else:
                if fallbacks is None:
                    ordinal: frozenset = frozenset()
                    pool = [default]
                    for _ in range(4):
                        pool.append(self._canonical_from_hf(ordinal))
                        ordinal = ordinal | frozenset([ordinal])
                    fallbacks = pool
                chosen = next(
                    (c for c in fallbacks if not phi(c).mask & bit), default
                )
            picks.append(chosen)
            parts.append(self.algebra.from_mask(bit))
        witness = self.mix(PartitionOfUnity(parts), picks)
        if phi(witness) != self.algebra.from_mask(exists):
            raise WitnessError(
                "no witness can match the existence value: the bound name is "
                "empty on an atom where the formula holds of every candidate"
            )
        return witness

    def kuratowski_pair(self, a: Name, b: Name) -> Name:
        one = self.algebra.one
        left = self.make_name({a: one})
        right = self.make_name({a: one, b: one})
        return self.make_name({left: one, right: one})

    def extensional_lift(self, mapping: Mapping[Name, Name]) -> Name:
        """Name for the graph of an extensional map, as Kuratowski pairs.

        Rejects the map (reporting the offending pair) unless
        [[w = t]] <= [[f(w) = f(t)]] for all given argument pairs.
        """
        items = list(mapping.items())
        for w, fw in items:
            self._check(w, fw)
        for i, (w, fw) in enumerate(items):
            for t, ft in items[i + 1 :]:
                if not self.truth_eq(w, t) <= self.truth_eq(fw, ft):
                    raise ExtensionalityError(w, t)
        one = self.algebra.one
        graph = self.make_name({self.kuratowski_pair(w, fw): one for w, fw in items})
        for w, fw in items:
            if not self.truth_in(self.kuratowski_pair(w, fw), graph).is_one:
                raise UniverseError("graph name lost one of its own pairs")
        return graph


# slots a universe's truth tables hold; a miss that cannot fit clears them
TRUTH_TABLE_CAP = 1 << 11
# entries of one fill step's intermediate arrays before a level is cut in chunks
_FILL_CHUNK = 1 << 20


def _mask_dtype(atom_count: int) -> np.dtype:
    """The smallest unsigned int dtype that holds every mask; object past 64 atoms."""
    for bits in (8, 16, 32, 64):
        if atom_count <= bits:
            return np.dtype(f"uint{bits}")
    return np.dtype(object)


def _unslotted_closure(roots: Iterable[Name], slot: Mapping) -> list:
    """The names hereditarily below ``roots`` (roots included) with no slot."""
    seen: dict = {}
    stack = [r for r in roots if r not in slot]
    while stack:
        w = stack.pop()
        if w not in seen:
            seen[w] = None
            stack.extend(c for c, _ in w.masks if c not in slot and c not in seen)
    return list(seen)


class _TruthTable:
    """Square tables ``EQ[s, t] = [[u_s = u_t]]`` and ``IN[s, t] = [[u_t in u_s]]``.

    ``slot`` maps a slotted name to its row; a name is slotted only with all
    its children, each at a lower slot.  The child edges of slot ``s`` are
    entries ``start[s]`` to ``start[s + 1]`` of ``child`` and ``mask``, so
    they are sorted by parent; the empty name gets one edge to itself with
    mask 0, which no reduction can tell from none.
    """

    __slots__ = ("full", "slot", "eq", "inn", "child", "mask", "start")

    def __init__(self, algebra: BooleanAlgebra):
        dtype = _mask_dtype(algebra.atom_count)
        self.full = algebra.full
        self.slot: dict = {}
        self.eq = self.inn = np.zeros((0, 0), dtype)
        self.child = np.zeros(0, np.intp)
        self.mask = np.zeros(0, dtype)
        self.start = np.zeros(1, np.intp)

    def add(self, batch: Sequence[Name]) -> None:
        """Slot ``batch``, whose unslotted children are all in it, level by level.

        A name's level is 0 if none of its children is in the batch, else one
        more than the highest level among them; slots run by level, then by
        id.  Each level, cut in chunks when large, fills its IN rows against
        the slots below it, then its EQ rows and columns, then its IN columns.
        The new slots are published once they are filled.
        """
        by_id = sorted(batch, key=operator.attrgetter("canonical_id"))
        level: dict = {}
        for u in by_id:
            level[u] = 1 + max((level.get(c, -1) for c, _ in u.masks), default=-1)
        order = sorted(by_id, key=level.__getitem__)
        n = len(self.slot)
        new: dict = {}
        child, mask, counts = [], [], []
        for k, u in enumerate(order, n):
            new[u] = k
            for c, value in u.masks or ((u, 0),):
                child.append(new[c] if c in new else self.slot[c])
                mask.append(value)
            counts.append(len(u.masks) or 1)
        self.child = np.concatenate([self.child, np.array(child, np.intp)])
        self.mask = np.concatenate([self.mask, np.array(mask, self.mask.dtype)])
        self.start = np.concatenate([self.start, self.start[-1] + np.cumsum(counts, dtype=np.intp)])
        end = n + len(order)
        self._reserve(end)
        # a chunk's intermediates hold at most its names times all edges, or
        # its edges times all slots
        edges, lo = len(self.child), n
        for k in range(n + 1, end + 1):
            if (
                k == end
                or level[order[k - n]] != level[order[lo - n]]
                or (k + 1 - lo) * edges + (self.start[k + 1] - self.start[lo]) * end > _FILL_CHUNK
            ):
                self._fill(lo, k)
                lo = k
        self.slot.update(new)

    def _reserve(self, size: int) -> None:
        old = len(self.eq)
        if size > old:
            size = max(size, min(TRUTH_TABLE_CAP, max(64, 2 * old)))
            for key in ("eq", "inn"):
                grown = np.zeros((size, size), self.mask.dtype)
                grown[:old, :old] = getattr(self, key)
                setattr(self, key, grown)

    def _fill(self, lo: int, hi: int) -> None:
        """Rows and columns of slots lo..hi, whose children are all below lo."""
        eq, inn, start = self.eq, self.inn, self.start
        a, b = start[lo], start[hi]
        child, mask = self.child[:b], self.mask[:b]
        cmask = mask ^ self.full
        kids, own, every = child[a:], start[lo:hi] - a, start[:hi]
        if lo:
            # IN[s, t] = OR over the edges (c, m) of s of m & EQ[c, t]
            inn[lo:hi, :lo] = np.bitwise_or.reduceat(mask[a:, None] & eq[kids, :lo], own, axis=0)
        # sub[t, s] = [[u_s sub u_t]] and sup[s, t] = [[u_t sub u_s]]: each is
        # an AND over the edges (c, m) of the subset of (m ^ full) | [[c in superset]]
        sub = np.bitwise_and.reduceat(cmask[None, a:] | inn[:hi, kids], own, axis=1)
        sup = np.bitwise_and.reduceat(cmask[None, :] | inn[lo:hi, child], every, axis=1)
        rows = sub.T & sup
        eq[lo:hi, :hi] = rows
        eq[:hi, lo:hi] = rows.T
        inn[:hi, lo:hi] = np.bitwise_or.reduceat(mask[:, None] & eq[child, lo:hi], every, axis=0)


def _to_hf(obj) -> frozenset:
    if isinstance(obj, frozenset):
        return frozenset(_to_hf(c) for c in obj)
    if isinstance(obj, (list, tuple, set)):
        return frozenset(_to_hf(c) for c in obj)
    raise TypeError("hereditary finite sets are nested lists/tuples/sets")


# -- module-level operation wrappers ----------------------------------------------


def truth_atomic(u: Name, v: Name, kind: str) -> BoolElem:
    """Boolean truth value of an atomic formula: kind 'elem' is u in v."""
    if u.universe is not v.universe:
        raise UniverseError("names belong to different universes")
    if kind == "elem":
        return u.universe.truth_in(u, v)
    if kind == "eq":
        return u.universe.truth_eq(u, v)
    raise ValueError("kind must be 'elem' or 'eq'")


def mix_names(partition: PartitionOfUnity, names: Sequence[Name]) -> Name:
    if not names:
        raise UniverseError("mixing needs at least one name")
    return names[0].universe.mix(partition, names)


def canonical_name(universe: Universe, h) -> Name:
    return universe.canonical_name(h)


def atom_collapse(u: Name, atom) -> frozenset:
    """Two-valued evaluation of a name at an atom (1-based index or atom element).

    An index is any integer but a bool; an element must be one atom of the
    name's algebra.
    """
    if isinstance(atom, BoolElem):
        if atom.algebra is not u.universe.algebra:
            raise AlgebraMismatchError("atom from a different algebra")
        mask = atom.mask
        if not mask or mask & (mask - 1):
            raise ValueError("collapse needs a single atom")
        return u.collapse_at(mask.bit_length())
    if isinstance(atom, (bool, np.bool_)):
        raise TypeError("an atom index must be an integer, not a bool")
    return u.collapse_at(operator.index(atom))


def maximum_witness(phi: Callable[[Name], BoolElem], v: Name, default: Optional[Name] = None) -> Name:
    return v.universe.maximum_witness(phi, v, default)


def extensional_lift(mapping: Mapping[Name, Name]) -> Name:
    items = list(mapping.items())
    if not items:
        raise UniverseError("extensional lift of an empty map")
    return items[0][0].universe.extensional_lift(mapping)


# -- interpretation carriers -------------------------------------------------------


class RealName:
    """Carrier for the model-side real determined by one real per atom."""

    __slots__ = ("blockwise",)

    def __init__(self, blockwise):
        arr = np.asarray(blockwise, dtype=float)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("blockwise real values must be a finite 1-d array")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "blockwise", arr)

    def __setattr__(self, name, value):
        raise AttributeError("RealName is immutable")

    def __add__(self, other):
        return RealName(self.blockwise + other.blockwise)

    def __mul__(self, other):
        return RealName(self.blockwise * other.blockwise)

    def __eq__(self, other):
        return isinstance(other, RealName) and np.array_equal(self.blockwise, other.blockwise)

    def __repr__(self):
        return f"RealName({self.blockwise.tolist()!r})"


class L1Name:
    """Carrier for the model-side integrable random variable."""

    __slots__ = ("rv",)

    def __init__(self, rv: RandomVariable):
        object.__setattr__(self, "rv", rv)

    def __setattr__(self, name, value):
        raise AttributeError("L1Name is immutable")

    def __add__(self, other):
        return L1Name(self.rv + other.rv)

    def __eq__(self, other):
        return isinstance(other, L1Name) and self.rv == other.rv

    def __repr__(self):
        return f"L1Name({self.rv.values.tolist()!r})"


class NatName:
    """Carrier for a model-side natural number: one natural per atom."""

    __slots__ = ("blockwise",)

    def __init__(self, blockwise):
        arr = np.asarray(blockwise, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("NatName needs a nonempty 1-d array")
        if np.any(arr != np.floor(arr)) or np.any(arr < 0):
            raise ValueError("NatName entries must be nonnegative integers")
        arr = arr.astype(int)
        arr.setflags(write=False)
        object.__setattr__(self, "blockwise", arr)

    def __setattr__(self, name, value):
        raise AttributeError("NatName is immutable")

    def __eq__(self, other):
        return isinstance(other, NatName) and np.array_equal(self.blockwise, other.blockwise)

    def __repr__(self):
        return f"NatName({self.blockwise.tolist()!r})"


def iota(eta: ConditionalValue) -> RealName:
    if not eta.is_finite:
        raise ValueError("iota is defined on finite conditional values")
    return RealName(eta.values)


def iota_inv(u: RealName) -> ConditionalValue:
    return ConditionalValue(u.blockwise)


def jmath(x: RandomVariable) -> L1Name:
    return L1Name(x)


def jmath_inv(u: L1Name) -> RandomVariable:
    return u.rv


def _truth_of(algebra: BooleanAlgebra, holds: np.ndarray) -> BoolElem:
    """The element whose atom ``i + 1`` is in it exactly where ``holds[i]``."""
    if holds.shape != (algebra.atom_count,):
        raise ValueError(f"expected {algebra.atom_count} blockwise values, got {holds.shape}")
    return algebra.from_mask(array_mask(holds))


def real_eq_truth(algebra: BooleanAlgebra, u: RealName, v: RealName) -> BoolElem:
    return _truth_of(algebra, u.blockwise == v.blockwise)


def real_le_truth(algebra: BooleanAlgebra, u: RealName, v: RealName) -> BoolElem:
    return _truth_of(algebra, u.blockwise <= v.blockwise)


def l1_eq_truth(space: FiniteProbSpace, u: L1Name, v: L1Name) -> BoolElem:
    return _truth_of(space.algebra, space.block_min(u.rv.values == v.rv.values))


def l1_le_truth(space: FiniteProbSpace, u: L1Name, v: L1Name) -> BoolElem:
    return _truth_of(space.algebra, space.block_min(u.rv.values <= v.rv.values))


def _paste(partition: PartitionOfUnity, rows: Sequence[np.ndarray], dtype) -> np.ndarray:
    """Row k of ``rows`` on the atoms of part k."""
    m = partition.algebra.atom_count
    out = np.empty(m, dtype=dtype)
    for part, row in zip(partition, rows):
        on = mask_array(part.mask, m)
        out[on] = row[on]
    return out


def mix_reals(partition: PartitionOfUnity, reals: Sequence[RealName]) -> RealName:
    if len(reals) != len(partition):
        raise ValueError("one real per part is required")
    return RealName(_paste(partition, [r.blockwise for r in reals], float))


def mix_nats(partition: PartitionOfUnity, nats: Sequence[NatName]) -> NatName:
    if len(nats) != len(partition):
        raise ValueError("one natural per part is required")
    return NatName(_paste(partition, [r.blockwise for r in nats], int))


def mix_l1(space: FiniteProbSpace, partition: PartitionOfUnity, names: Sequence[L1Name]) -> L1Name:
    return L1Name(space.indicator_mix(partition, [u.rv for u in names]))


def expect_q(space: FiniteProbSpace, u: L1Name) -> RealName:
    """The model-side expectation: per atom, the conditional mean on its block."""
    return RealName(space.block_mean(u.rv.values))


def seq_index(xs: Sequence[RandomVariable], n: NatName, space: FiniteProbSpace) -> RandomVariable:
    """Blockwise indexing of a finite sequence: block j takes xs[n_j] (1-based)."""
    xs = list(xs)
    if len(n.blockwise) != space.n_blocks:
        raise ValueError("index name does not match the space's block count")
    outside = (n.blockwise < 1) | (n.blockwise > len(xs))
    if np.any(outside):
        j = int(np.argmax(outside)) + 1
        raise IndexError(f"block {j} index {int(n.blockwise[j - 1])} outside 1..{len(xs)}")
    stacked = np.stack([x.values for x in xs])
    return RandomVariable(
        stacked[space.broadcast(n.blockwise - 1), np.arange(space.n_atoms)]
    )


# -- interpretation property suite --------------------------------------------------


AGREEMENT_ATOM_CAP = 16


class ExhaustiveCapError(CondriskError):
    """An exhaustive walk over the algebra was asked for past its atom cap."""


def _agreement_join_exhaustive(algebra: BooleanAlgebra, agrees_on) -> BoolElem:
    """Independent oracle: join of all elements a with agreement on every atom of a.

    Walks all ``2^m`` masks, so it refuses past ``AGREEMENT_ATOM_CAP`` atoms.
    """
    m = algebra.atom_count
    if m > AGREEMENT_ATOM_CAP:
        raise ExhaustiveCapError(
            f"the exhaustive agreement join walks 2^m elements; {m} atoms exceed "
            f"the cap of {AGREEMENT_ATOM_CAP}"
        )
    agree = 0
    for i in range(m):
        if agrees_on(i + 1):
            agree |= 1 << i
    best = 0
    for mask in range(1 << m):
        if mask & agree == mask:
            best |= mask
    return algebra.from_mask(best)


@dataclass
class InterpCheck:
    name: str
    passed: bool
    max_deviation: float = 0.0


@dataclass
class InterpReport:
    checks: List[InterpCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "max_deviation": c.max_deviation}
                for c in self.checks
            ],
        }


def verify_interp_props(space: FiniteProbSpace, samples: int = 100, seed: int = 0) -> InterpReport:
    """Exact checks of the interpretation-map identities over seeded samples.

    Covers: arithmetic commutes with the real embedding; equality and order
    truth values equal the exhaustive agreement joins; mixing commutes with
    both embeddings; the conditional expectation matches the model-side
    expectation of the embedded payoff; sums commute with the payoff
    embedding; natural-number mixing matches blockwise pasting.
    """
    rng = np.random.default_rng(seed)
    algebra = space.algebra
    m = space.n_blocks
    checks = {
        "real_arithmetic": 0.0,
        "real_truth_joins": 0.0,
        "real_mixing": 0.0,
        "nat_mixing": 0.0,
        "l1_truth_joins": 0.0,
        "l1_sum": 0.0,
        "cond_expect_transfer": 0.0,
        "l1_mixing": 0.0,
    }
    failed = set()

    def mark(name, ok, dev=0.0):
        checks[name] = max(checks[name], dev)
        if not ok:
            failed.add(name)

    zero = iota(ConditionalValue(np.zeros(m)))
    one = iota(ConditionalValue(np.ones(m)))
    mark("real_arithmetic", np.array_equal(zero.blockwise, np.zeros(m)))
    mark("real_arithmetic", np.array_equal(one.blockwise, np.ones(m)))

    for _ in range(samples):
        ev = rng.normal(0.0, 2.0, m)
        xv = rng.normal(0.0, 2.0, m)
        # duplicate some entries so agreement sets are nontrivial
        dup = rng.integers(0, m)
        xv[dup] = ev[dup]
        eta, xi = ConditionalValue(ev), ConditionalValue(xv)

        a = iota(eta) + iota(xi)
        b = iota(eta + xi)
        mark("real_arithmetic", a == b, float(np.max(np.abs(a.blockwise - b.blockwise))))
        a = iota(eta) * iota(xi)
        b = iota(eta * xi)
        mark("real_arithmetic", a == b, float(np.max(np.abs(a.blockwise - b.blockwise))))

        direct = real_eq_truth(algebra, iota(eta), iota(xi))
        oracle = _agreement_join_exhaustive(algebra, lambda i: ev[i - 1] == xv[i - 1])
        mark("real_truth_joins", direct == oracle)
        direct = real_le_truth(algebra, iota(eta), iota(xi))
        oracle = _agreement_join_exhaustive(algebra, lambda i: ev[i - 1] <= xv[i - 1])
        mark("real_truth_joins", direct == oracle)

        # a random labelling of the atoms: atom i + 1 lies in part part_of[i]
        _, part_of = np.unique(rng.integers(0, m, m), return_inverse=True)
        partition = PartitionOfUnity(
            [
                algebra.element((np.flatnonzero(part_of == k) + 1).tolist())
                for k in range(part_of.max() + 1)
            ]
        )
        etas = [ConditionalValue(rng.normal(0.0, 2.0, m)) for _ in partition]
        model_side = mix_reals(partition, [iota(e) for e in etas])
        paste = np.array([etas[k].values[i] for i, k in enumerate(part_of)])
        mark("real_mixing", model_side == iota(ConditionalValue(paste)))

        nats = [NatName(rng.integers(1, 7, m)) for _ in partition]
        nat_mix = mix_nats(partition, nats)
        paste_n = np.array([nats[k].blockwise[i] for i, k in enumerate(part_of)])
        mark("nat_mixing", np.array_equal(nat_mix.blockwise, paste_n))

        x = RandomVariable(rng.normal(0.0, 2.0, space.n_atoms))
        y_vals = rng.normal(0.0, 2.0, space.n_atoms)
        # force agreement on a random block
        jdup = rng.integers(1, space.n_blocks + 1)
        y_vals[space.block_index_array(jdup)] = x.values[space.block_index_array(jdup)]
        y = RandomVariable(y_vals)

        direct = l1_eq_truth(space, jmath(x), jmath(y))
        oracle = _agreement_join_exhaustive(
            algebra,
            lambda i: bool(
                np.array_equal(
                    x.values[space.block_index_array(i)],
                    y.values[space.block_index_array(i)],
                )
            ),
        )
        mark("l1_truth_joins", direct == oracle)
        direct = l1_le_truth(space, jmath(x), jmath(y))
        oracle = _agreement_join_exhaustive(
            algebra,
            lambda i: bool(
                np.all(
                    x.values[space.block_index_array(i)]
                    <= y.values[space.block_index_array(i)]
                )
            ),
        )
        mark("l1_truth_joins", direct == oracle)

        mark("l1_sum", jmath(x) + jmath(y) == jmath(x + y))

        lhs = iota(space.cond_expect(x))
        rhs = expect_q(space, jmath(x))
        dev = float(np.max(np.abs(lhs.blockwise - rhs.blockwise)))
        mark("cond_expect_transfer", dev <= 1e-12, dev)

        l1s = [jmath(RandomVariable(rng.normal(0.0, 2.0, space.n_atoms))) for _ in partition]
        mixed = mix_l1(space, partition, l1s)
        paste_rv = space.indicator_mix(partition, [u.rv for u in l1s])
        mark("l1_mixing", mixed.rv == paste_rv)

    return InterpReport(
        [InterpCheck(name, name not in failed, dev) for name, dev in checks.items()]
    )


# -- name literal text format --------------------------------------------------------

Token = namedtuple("Token", ["kind", "text", "pos"])

LITERAL_PUNCT = {ch: ch for ch in "{}()[],:;"}
# literal spellings a universe remembers; a full memo is cleared before the next insert
LITERAL_MEMO_CAP = 1 << 12
# the longest text name_to_literal spells
LITERAL_CHAR_CAP = 1 << 20
_WORD_REST = re.compile(r"\w*")
# a non-empty atom set; \d and \s are exactly str.isdecimal and str.isspace
_ATOMS = re.compile(r"\{\s*\d+\s*(?:,\s*\d+\s*)*\}")
_DIGITS = re.compile(r"\d+")
# the token kinds after which either grammar takes an atom set
_ATOMS_AFTER = frozenset(":[;")
_OPEN = frozenset("{([")
_CLOSE = frozenset("})]")
_HEAD_OPEN = {"name": "{", "check": "(", "mix": "["}
# builds a Token without the Python-level __new__ of a namedtuple
_token = tuple.__new__


class Tokens(list):
    """The tokens of ``source``; ``close[k]`` is the index of the token that
    closes the opening bracket at index ``k`` (one stack over all kinds)."""

    __slots__ = ("source", "close")


def scan(text: str, punct: Mapping[str, str]) -> List[Token]:
    """Split text into INT, IDENT, ATOMS and punctuation tokens, ending with EOF.

    ``punct`` maps each one- or two-character punctuation string to its token
    kind; a two-character entry wins over a one-character one.  Right after a
    ``:``, ``[`` or ``;`` token a well-formed non-empty atom set ``{1, 2}`` is
    one ATOMS token; any other text there is lexed character by character.
    Any other character is a ParseError at its position.  The result is a
    ``Tokens`` list, which also holds the text and each bracket's close.
    """
    pairs = {p[0] for p in punct if len(p) == 2}
    tokens = Tokens()
    tokens.source = text
    tokens.close = close = {}
    opens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "{" and tokens and tokens[-1].kind in _ATOMS_AFTER:
            m = _ATOMS.match(text, i)
            if m is not None:
                j = m.end()
                tokens.append(_token(Token, ("ATOMS", text[i:j], i)))
                i = j
                continue
        if ch in pairs and text[i : i + 2] in punct:
            ch = text[i : i + 2]
        if ch in punct:
            if ch in _OPEN:
                opens.append(len(tokens))
            elif ch in _CLOSE and opens:
                close[opens.pop()] = len(tokens)
            tokens.append(_token(Token, (punct[ch], ch, i)))
            i += len(ch)
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            kind = "INT"
        elif ch.isalpha() or ch == "_":
            # \w is exactly str.isalnum() or "_"
            j = _WORD_REST.match(text, i + 1).end()
            kind = "IDENT"
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(_token(Token, (kind, text[i:j], i)))
        i = j
    tokens.append(Token("EOF", "", n))
    return tokens


def tokenize_literal(text: str) -> List[Token]:
    """Tokens of the name-literal grammar."""
    return scan(text, LITERAL_PUNCT)


def _expect(tokens: List[Token], i: int, kind: str) -> int:
    if tokens[i].kind != kind:
        raise ParseError(f"expected {kind!r}, found {tokens[i].text!r}", tokens[i].pos)
    return i + 1


def parse_atomset_tokens(tokens: List[Token], i: int, algebra: BooleanAlgebra):
    tok = tokens[i]
    if tok.kind == "ATOMS":
        # findall, not split: int() refuses some str.isspace characters
        atoms = list(map(int, _DIGITS.findall(tok.text)))
        pos = tok.pos + len(tok.text) - 1
        i += 1
    else:
        i = _expect(tokens, i, "{")
        atoms = []
        if tokens[i].kind != "}":
            while True:
                if tokens[i].kind != "INT":
                    raise ParseError("expected an atom index", tokens[i].pos)
                atoms.append(int(tokens[i].text))
                i += 1
                if tokens[i].kind == ",":
                    i += 1
                    continue
                break
        pos = tokens[i].pos
        i = _expect(tokens, i, "}")
    try:
        return algebra.element(atoms), i
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _parse_hf_tokens(tokens: List[Token], i: int):
    i = _expect(tokens, i, "{")
    members = []
    if tokens[i].kind != "}":
        while True:
            hf, i = _parse_hf_tokens(tokens, i)
            members.append(hf)
            if tokens[i].kind == ",":
                i += 1
                continue
            break
    i = _expect(tokens, i, "}")
    return frozenset(members), i


def parse_name_tokens(tokens: List[Token], i: int, universe: Universe):
    """The name whose literal starts at token ``i``, and the index after it.

    A ``name{...}``, ``check(...)`` or ``mix[...]`` literal is looked up by
    its exact source text in the universe's literal memo, and stored there
    after a parse that ends at its closing bracket.
    """
    tok = tokens[i]
    if tok.kind != "IDENT":
        raise ParseError("expected a name literal", tok.pos)
    if tok.text == "empty":
        return universe.empty, i + 1
    j = tokens.close.get(i + 1)
    if j is None or tokens[i + 1].kind != _HEAD_OPEN.get(tok.text):
        return _parse_compound(tokens, i, universe)
    key = tokens.source[tok.pos : tokens[j].pos + 1]
    memo = universe._literal_memo
    name = memo.get(key)
    if name is not None:
        return name, j + 1
    name, end = _parse_compound(tokens, i, universe)
    if end == j + 1:
        if len(memo) >= LITERAL_MEMO_CAP:
            memo.clear()
        memo.setdefault(key, name)
    return name, end


def _parse_compound(tokens: List[Token], i: int, universe: Universe):
    tok = tokens[i]
    if tok.text == "check":
        i = _expect(tokens, i + 1, "(")
        hf, i = _parse_hf_tokens(tokens, i)
        i = _expect(tokens, i, ")")
        return universe.canonical_name(hf), i
    if tok.text == "name":
        i = _expect(tokens, i + 1, "{")
        entries: dict = {}
        if tokens[i].kind != "}":
            while True:
                child, i = parse_name_tokens(tokens, i, universe)
                i = _expect(tokens, i, ":")
                value, i = parse_atomset_tokens(tokens, i, universe.algebra)
                prior = entries.get(child)
                entries[child] = value if prior is None else prior | value
                if tokens[i].kind == ",":
                    i += 1
                    continue
                break
        i = _expect(tokens, i, "}")
        return universe.make_name(entries), i
    if tok.text == "mix":
        i = _expect(tokens, i + 1, "[")
        parts = []
        names = []
        while True:
            part, i = parse_atomset_tokens(tokens, i, universe.algebra)
            i = _expect(tokens, i, ":")
            child, i = parse_name_tokens(tokens, i, universe)
            parts.append(part)
            names.append(child)
            if tokens[i].kind == ";":
                i += 1
                continue
            break
        i = _expect(tokens, i, "]")
        try:
            partition = PartitionOfUnity(parts)
        except CondriskError as exc:
            raise ParseError(str(exc), tok.pos) from None
        return universe.mix(partition, names), i
    raise ParseError(f"unknown name literal {tok.text!r}", tok.pos)


def parse_name_literal(text: str, universe: Universe) -> Name:
    tokens = tokenize_literal(text)
    name, i = parse_name_tokens(tokens, 0, universe)
    if tokens[i].kind != "EOF":
        raise ParseError("trailing input after name literal", tokens[i].pos)
    return name


def parse_atom_set(text: str, algebra: BooleanAlgebra) -> BoolElem:
    tokens = tokenize_literal(text)
    elem, i = parse_atomset_tokens(tokens, 0, algebra)
    if tokens[i].kind != "EOF":
        raise ParseError("trailing input after atom set", tokens[i].pos)
    return elem


def _atomset_text(value: BoolElem) -> str:
    return "{" + ",".join(map(str, mask_atoms(value.mask))) + "}"


def name_to_literal(u: Name) -> str:
    """Canonical text form: ``empty`` or a ``name{...}`` listing by child id.

    A shared child is spelled once per occurrence, so the text can grow
    exponentially in the rank; each name is spelled once per call, and a text
    longer than ``LITERAL_CHAR_CAP`` characters raises ``UniverseError``.
    """
    spelled: dict = {}

    def spell(v: Name) -> str:
        text = spelled.get(v)
        if text is None:
            if not v.entries:
                text = "empty"
            else:
                items = [f"{spell(c)}: {_atomset_text(value)}" for c, value in v.entries]
                if sum(map(len, items)) + 2 * len(items) + 4 > LITERAL_CHAR_CAP:
                    raise UniverseError(
                        f"the literal of this name exceeds LITERAL_CHAR_CAP = "
                        f"{LITERAL_CHAR_CAP} characters"
                    )
                text = "name{" + ", ".join(items) + "}"
            spelled[v] = text
        return text

    return spell(u)
