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
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .boolalg import (
    AlgebraMismatchError,
    BooleanAlgebra,
    BoolElem,
    PartitionOfUnity,
    _elem,
    array_mask,
    mask_atoms,
)
from .errors import CondriskError, ParseError
from .probspace import ConditionalValue, FiniteProbSpace, RandomVariable
from .riskcore import _check_count, _check_seed


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
    reader holds is ever rewritten.  A warm truth read is one lookup of both
    slots in that table; a miss checks the names and grows the table.  The
    literal memo maps the exact source text of a ``name{...}``, ``check(...)``
    or ``mix[...]`` literal to its name, so a spelling is lexed and parsed
    once here: ``scan`` passes a remembered spelling over as one token.
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
        table = self._table
        if table is not None:
            try:
                s, t = table.slot[v], table.slot[u]
            except (KeyError, TypeError):
                pass
            else:
                return _elem(self.algebra, table.inn.item(s, t))
        self._check(u, v)
        return _elem(self.algebra, self._in(u, v))

    def truth_eq(self, u: Name, v: Name) -> BoolElem:
        """[[u = v]] by the double-inclusion equation, read from the truth table."""
        table = self._table
        if table is not None:
            try:
                s, t = table.slot[u], table.slot[v]
            except (KeyError, TypeError):
                pass
            else:
                return _elem(self.algebra, table.eq.item(s, t))
        self._check(u, v)
        return _elem(self.algebra, self._eq(u, v))

    # A slotted name belongs to self, so a pair found in the table needs no
    # check, and an unhashable or foreign name misses and meets _check.  No
    # name checks are needed past _check either: make_name refuses children
    # from another universe, so every name reached belongs to self.

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

    def maximum_witness(self, phi: Callable[[Name], BoolElem], v: Name) -> Name:
        """A name u with [[phi(u)]] equal to [[exists x in v . phi(x)]].

        Atomwise: below the existence value pick the smallest-id member of
        dom(v) whose formula value covers the atom; elsewhere pick any member
        (still smallest id), since membership already forces the formula false
        there.  Where v has no member at all, try the first four von Neumann
        ordinals, the empty name first, until one falsifies the formula at
        that atom, else take the empty name.  The guarantee is verified; it is
        unachievable only when v is empty at an atom where the formula holds
        of every candidate.
        """
        self._check(v)
        truths = [(child, value.mask, phi(child).mask) for child, value in v.entries]
        exists = 0
        for child, value, t in truths:
            exists |= value & t
        picks = []
        parts = []
        fallbacks = None
        for a in range(1, self.algebra.atom_count + 1):
            bit = 1 << (a - 1)
            # v.entries are ordered by child id, so local is too
            local = [(c, val, t) for c, val, t in truths if val & bit]
            if exists & bit:
                chosen = next(c for c, val, t in local if t & bit)
            elif local:
                chosen = local[0][0]
            else:
                if fallbacks is None:
                    ordinal: frozenset = frozenset()
                    fallbacks = []
                    for _ in range(4):
                        fallbacks.append(self._canonical_from_hf(ordinal))
                        ordinal = ordinal | frozenset([ordinal])
                chosen = next(
                    (c for c in fallbacks if not phi(c).mask & bit), self.empty
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
    mask 0, which no reduction can tell from none.  The first ``edges``
    entries of ``child`` and ``mask`` are in use; like the square tables,
    the three edge arrays grow by doubling.
    """

    __slots__ = ("full", "slot", "eq", "inn", "child", "mask", "start", "edges")

    def __init__(self, algebra: BooleanAlgebra):
        dtype = _mask_dtype(algebra.atom_count)
        self.full = algebra.full
        self.slot: dict = {}
        self.eq = self.inn = np.zeros((0, 0), dtype)
        self.child = np.zeros(0, np.intp)
        self.mask = np.zeros(0, dtype)
        self.start = np.zeros(1, np.intp)
        self.edges = 0

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
        end = n + len(order)
        a = self.edges
        edges = self.edges = a + len(child)
        self._reserve(end, edges)
        self.child[a:edges] = child
        self.mask[a:edges] = mask
        self.start[n + 1 : end + 1] = a + np.cumsum(counts, dtype=np.intp)
        # a chunk's intermediates hold at most its names times all edges, or
        # its edges times all slots
        lo = n
        for k in range(n + 1, end + 1):
            if (
                k == end
                or level[order[k - n]] != level[order[lo - n]]
                or (k + 1 - lo) * edges + (self.start[k + 1] - self.start[lo]) * end > _FILL_CHUNK
            ):
                self._fill(lo, k)
                lo = k
        self.slot.update(new)

    def _reserve(self, size: int, edges: int) -> None:
        """Room for ``size`` slots and ``edges`` edges."""
        old = len(self.eq)
        if size > old:
            size = max(size, min(TRUTH_TABLE_CAP, max(64, 2 * old)))
            for key in ("eq", "inn"):
                grown = np.zeros((size, size), self.mask.dtype)
                grown[:old, :old] = getattr(self, key)
                setattr(self, key, grown)
        self.start = _room(self.start, size + 1)
        self.child = _room(self.child, edges)
        self.mask = _room(self.mask, edges)

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


def _room(array: np.ndarray, need: int) -> np.ndarray:
    """``array``, or a copy of it with room for ``need`` entries, at least
    twice as long."""
    if len(array) >= need:
        return array
    grown = np.zeros(max(need, 2 * len(array)), array.dtype)
    grown[: len(array)] = array
    return grown


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


def maximum_witness(phi: Callable[[Name], BoolElem], v: Name) -> Name:
    return v.universe.maximum_witness(phi, v)


def extensional_lift(mapping: Mapping[Name, Name]) -> Name:
    items = list(mapping.items())
    if not items:
        raise UniverseError("extensional lift of an empty map")
    return items[0][0].universe.extensional_lift(mapping)


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


# -- interpretation property suite --------------------------------------------------


def _agreement_set(algebra: BooleanAlgebra, agrees_on) -> BoolElem:
    """Independent oracle: the atoms on which ``agrees_on`` holds, asked one atom at a time."""
    return algebra.element([i for i in range(1, algebra.atom_count + 1) if agrees_on(i)])


@dataclass
class InterpCheck:
    """One check of ``verify_interp_props``, an exact comparison."""

    name: str
    passed: bool


@dataclass
class InterpReport:
    checks: List[InterpCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_interp_props(space: FiniteProbSpace, samples: int = 100, seed: int = 0) -> InterpReport:
    """Exact checks of the interpretation maps over seeded samples.

    Each check compares two different computations: the equality and order
    truth values of reals and of payoffs against the agreement sets asked
    atom by atom, and mixing of reals and of naturals against a per-atom
    paste along a random labelling of the atoms.
    """
    _check_count(samples, "samples")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    algebra = space.algebra
    m = space.n_blocks
    blocks = [space.block_index_array(j) for j in range(1, m + 1)]
    failed = set()

    def mark(name, ok):
        if not ok:
            failed.add(name)

    for _ in range(samples):
        ev = rng.normal(0.0, 2.0, m)
        xv = rng.normal(0.0, 2.0, m)
        # duplicate some entries so agreement sets are nontrivial
        dup = rng.integers(0, m)
        xv[dup] = ev[dup]
        eta, xi = ConditionalValue(ev), ConditionalValue(xv)

        direct = real_eq_truth(algebra, eta, xi)
        oracle = _agreement_set(algebra, lambda i: ev[i - 1] == xv[i - 1])
        mark("real_truth_joins", direct == oracle)
        direct = real_le_truth(algebra, eta, xi)
        oracle = _agreement_set(algebra, lambda i: ev[i - 1] <= xv[i - 1])
        mark("real_truth_joins", direct == oracle)

        # a random labelling of the atoms: atom i + 1 lies in part part_of[i]
        _, part_of = np.unique(rng.integers(0, m, m), return_inverse=True)
        partition = PartitionOfUnity(
            [
                algebra.element((np.flatnonzero(part_of == k) + 1).tolist())
                for k in range(part_of.max() + 1)
            ]
        )
        reals = [rng.normal(0.0, 2.0, m) for _ in partition]
        nats = [rng.integers(1, 7, m).astype(float) for _ in partition]
        for rows in (reals, nats):
            mixed = mix_reals(partition, [ConditionalValue(r) for r in rows])
            paste = [rows[k][i] for i, k in enumerate(part_of)]
            mark("mixing", np.array_equal(mixed.values, paste))

        x = rng.normal(0.0, 2.0, space.n_atoms)
        y = rng.normal(0.0, 2.0, space.n_atoms)
        # force agreement on a random block
        jdup = blocks[rng.integers(0, m)]
        y[jdup] = x[jdup]
        payoffs = RandomVariable(x), RandomVariable(y)
        direct = l1_eq_truth(space, *payoffs)
        oracle = _agreement_set(
            algebra, lambda i: bool(np.array_equal(x[blocks[i - 1]], y[blocks[i - 1]]))
        )
        mark("l1_truth_joins", direct == oracle)
        direct = l1_le_truth(space, *payoffs)
        oracle = _agreement_set(
            algebra, lambda i: bool(np.all(x[blocks[i - 1]] <= y[blocks[i - 1]]))
        )
        mark("l1_truth_joins", direct == oracle)

    return InterpReport(
        [
            InterpCheck(name, name not in failed)
            for name in ("real_truth_joins", "mixing", "l1_truth_joins")
        ]
    )


# -- name literal text format --------------------------------------------------------

Token = namedtuple("Token", ["kind", "text", "pos"])

LITERAL_PUNCT = {ch: ch for ch in "{}()[],:;"}
# literal spellings a universe remembers; a full memo is cleared before the next insert
LITERAL_MEMO_CAP = 1 << 12
# the longest text name_to_literal spells
LITERAL_CHAR_CAP = 1 << 20
_WORD_REST = re.compile(r"\w*")
_SPACE = re.compile(r"\s*")
# a non-empty atom set; \d and \s are exactly str.isdecimal and str.isspace
_ATOMS = re.compile(r"\{\s*\d+\s*(?:,\s*\d+\s*)*\}")
_DIGITS = re.compile(r"\d+")
# the token kinds after which either grammar takes an atom set
_ATOMS_AFTER = frozenset(":[;")
_HEAD_OPEN = {"name": "{", "check": "(", "mix": "["}
# builds a Token without the Python-level __new__ of a namedtuple
_token = tuple.__new__


class _Known(Token):
    """A literal whose text was read before: the IDENT token of its head,
    carrying the ``key`` of its name in ``Tokens.known``.  Every parse step
    but ``parse_name_tokens`` reads it as the head."""


class Tokens(list):
    """The tokens of ``source``.  ``known`` maps the text of each literal
    that ``scan`` met, from its head to its close, to its name: from the
    memo, or None until the parse of its first occurrence fills it in."""

    __slots__ = ("source", "known")


def _group_pattern(depth: int) -> str:
    """A regex for a bracket group nested at most ``depth`` deep, atom sets
    included, in which any closing bracket closes the innermost open one, as
    the parser pairs them.  A run of text between brackets is one repeat of
    one character class, and a bracket can start only one branch, so a match
    that succeeds never backtracks."""
    gap = r"[^{}()\[\]]*"
    group = r"[{(\[]" + gap + r"[})\]]"
    for _ in range(depth - 1):
        group = r"[{(\[]" + gap + "(?:" + group + gap + r")*[})\]]"
    return group


# The extent of the literal whose bracket opens at a position is one match, from
# that bracket to its close; a literal nested deeper is lexed and parsed in full.
_GROUP_DEPTH = 16
_GROUP = re.compile(_group_pattern(_GROUP_DEPTH))


def scan(text: str, punct: Mapping[str, str], memo: Optional[Mapping] = None) -> List[Token]:
    """Split text into INT, IDENT, ATOMS and punctuation tokens, ending with EOF.

    ``punct`` maps each one- or two-character punctuation string to its token
    kind; a two-character entry wins over a one-character one.  Right after a
    ``:``, ``[`` or ``;`` token a well-formed non-empty atom set ``{1, 2}`` is
    one ATOMS token; any other text there is lexed character by character.
    Where a ``name``, ``check`` or ``mix`` head is followed by its opening
    bracket, the text from the head to that bracket's close (one match of
    ``_GROUP``) is looked up in ``memo``, a universe's literal memo, and
    among the literals met earlier in ``text``.  A text found either way is
    one ``_Known`` token: the parser has read it before, or reads its first
    occurrence before this one.  Any other text is lexed character by
    character, and any other character is a ParseError at its position.
    The result is a ``Tokens`` list, which also holds the text and the
    names of the literals met.
    """
    pairs = {p[0] for p in punct if len(p) == 2}
    memo = memo or {}
    tokens = Tokens()
    tokens.source = text
    tokens.known = known = {}
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
            opener = _HEAD_OPEN.get(text[i:j])
            if opener is not None:
                k = _SPACE.match(text, j).end()
                group = _GROUP.match(text, k) if text.startswith(opener, k) else None
                if group is not None:
                    key = text[i : group.end()]
                    met = key in known
                    if not met:
                        known[key] = memo.get(key)
                    if met or known[key] is not None:
                        tok = _token(_Known, (kind, text[i:j], i))
                        tok.key = key
                        tokens.append(tok)
                        i = group.end()
                        continue
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(_token(Token, (kind, text[i:j], i)))
        i = j
    tokens.append(Token("EOF", "", n))
    return tokens


def tokenize_literal(text: str, memo: Optional[Mapping] = None) -> List[Token]:
    """Tokens of the name-literal grammar; a literal in ``memo`` is one token."""
    return scan(text, LITERAL_PUNCT, memo)


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

    A literal that ``scan`` met before, in the universe's literal memo or
    earlier in the text, is one token, and its name is looked up.  Any other
    ``name{...}``, ``check(...)`` or ``mix[...]`` literal is parsed, and its
    name stored under its exact source text, from the head to the close of
    its bracket, for the repeats that follow and in the memo.
    """
    tok = tokens[i]
    if tok.kind != "IDENT":
        raise ParseError("expected a name literal", tok.pos)
    if type(tok) is _Known:
        return tokens.known[tok.key], i + 1
    if tok.text == "empty":
        return universe.empty, i + 1
    name, end = _parse_compound(tokens, i, universe)
    # a literal that parses ends at the close of its head's bracket
    key = tokens.source[tok.pos : tokens[end - 1].pos + 1]
    tokens.known[key] = name
    memo = universe._literal_memo
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
    tokens = tokenize_literal(text, universe._literal_memo)
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
