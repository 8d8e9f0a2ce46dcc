"""Seeded generators shared between the unit tests and the acceptance suite."""

import math
import operator
import re
from collections import namedtuple
from itertools import accumulate
from types import SimpleNamespace

import numpy as np

from condrisk import ConditionalValue, CondRiskMeasure, PartitionOfUnity, Universe, atom_collapse
from condrisk.bvm import WitnessError
from condrisk.errors import CondriskError, ParseError
from condrisk.formulalang import (
    And,
    Eq,
    ExistsIn,
    ForallIn,
    FormulaError,
    Implies,
    In,
    Lit,
    Not,
    Or,
    UnboundVariableError,
    Var,
)


def random_name(universe: Universe, rng, max_rank: int, max_width: int = 3):
    if max_rank == 0 or rng.random() < 0.25:
        return universe.empty
    entries = {}
    m = universe.algebra.atom_count
    for _ in range(int(rng.integers(0, max_width + 1))):
        child = random_name(universe, rng, max_rank - 1, max_width)
        atoms = [a for a in range(1, m + 1) if rng.random() < 0.5]
        entries[child] = universe.algebra.element(atoms)
    return universe.make_name(entries)


def random_formula(universe: Universe, rng, depth: int, scope=()):
    def term():
        if scope and rng.random() < 0.5:
            return Var(scope[int(rng.integers(0, len(scope)))])
        return Lit(random_name(universe, rng, 2, 2))

    if depth == 0:
        return (Eq if rng.random() < 0.5 else In)(term(), term())
    roll = rng.random()
    if roll < 0.2:
        return Not(random_formula(universe, rng, depth - 1, scope))
    if roll < 0.35:
        return And(
            random_formula(universe, rng, depth - 1, scope),
            random_formula(universe, rng, depth - 1, scope),
        )
    if roll < 0.5:
        return Or(
            random_formula(universe, rng, depth - 1, scope),
            random_formula(universe, rng, depth - 1, scope),
        )
    if roll < 0.6:
        return Implies(
            random_formula(universe, rng, depth - 1, scope),
            random_formula(universe, rng, depth - 1, scope),
        )
    var = f"v{len(scope)}"
    cls = ForallIn if rng.random() < 0.5 else ExistsIn
    return cls(var, term(), random_formula(universe, rng, depth - 1, scope + (var,)))


def spy_calls(monkeypatch, owner, name: str) -> list:
    """Route ``owner.name`` through a wrapper that records the positional
    arguments of each call, in order; the returned list grows as it runs.
    Work pins count these calls instead of timing them."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


# -- plain per-block reference for the blockwise layer ------------------------------
# Built from the wire description (probs and blocks) only, one Python loop per
# block, so it shares no code with the block layout of FiniteProbSpace.


def reference_blocks(space):
    """(0-based atom indices, conditional probabilities) of each block."""
    out = []
    for block in space.blocks:
        idx = np.array(block) - 1
        p = space.probs[idx]
        out.append((idx, p / p.sum()))
    return out


def reference_layout(probs, blocks, normalized=False):
    """The block layout of ``FiniteProbSpace(probs, blocks)`` from one Python
    step per atom: the validation loop and layout of the constructor as it
    was before it read the blocks as one array, with an integer check
    (``operator.index``, refusing a bool) in place of ``int``.  Returns the layout's
    attributes, or the SpaceError message of the first fault in scan order;
    ``probs`` is taken as valid."""
    p = np.asarray(probs, dtype=float)
    n = p.size
    if len(blocks) == 0:
        return "blocks must be nonempty"
    seen, ints = set(), []
    for j, b in enumerate(blocks, start=1):
        if not len(b):
            return f"block {j} is empty"
        ints.append([])
        for i in b:
            if isinstance(i, bool):
                return f"block {j} holds {i!r}, not an integer atom index"
            try:
                i = operator.index(i)
            except TypeError:
                return f"block {j} holds {i!r}, not an integer atom index"
            if not 1 <= i <= n:
                return f"block {j} references atom {i} of {n}"
            if i in seen:
                return f"atom {i} appears in more than one block"
            seen.add(i)
            ints[-1].append(i)
    if len(seen) != n:
        return f"blocks do not cover atoms {sorted(set(range(1, n + 1)) - seen)}"
    sizes = [len(b) for b in ints]
    bounds = tuple(accumulate(sizes, initial=0))
    order = np.array([i - 1 for b in ints for i in b], dtype=np.intp)
    starts = np.array(bounds[:-1], dtype=np.intp)
    block_of = np.empty(n, dtype=np.min_scalar_type(len(ints) - 1))
    in_order = np.arange(len(ints), dtype=block_of.dtype).repeat(sizes)
    block_of[order] = in_order
    block_mass = np.add.reduceat(p.take(order), starts)
    cond = p if normalized else p / block_mass[block_of]
    return {
        "blocks": tuple(tuple(b) for b in ints),
        "_bounds": bounds,
        "order": order,
        "starts": starts,
        "block_of": block_of,
        "_block_in_order": in_order,
        "block_mass": block_mass,
        "cond": cond,
        "_cond_in_order": cond[order],
    }


def reference_avar_block(q, xb, lam):
    if lam >= 1.0:
        return -float(np.dot(q, xb))
    losses = -xb
    filled = total = 0.0
    for i in np.argsort(-losses, kind="stable"):
        take = min(q[i], lam - filled)
        total += take * losses[i]
        filled += take
        if filled >= lam:
            break
    return total / lam


def reference_risk(space, kind, param, x):
    """Blockwise risk of one payoff for a built-in; ``param`` is per block."""
    out = []
    for j, (idx, q) in enumerate(reference_blocks(space)):
        xb = x[idx]
        if kind == "neg_expectation":
            out.append(-float(np.dot(q, xb)))
        elif kind == "worst_case":
            out.append(float(np.max(-xb)))
        elif kind == "entropic":
            a = -param[j] * xb
            top = a.max()
            out.append((top + np.log(np.dot(q, np.exp(a - top)))) / param[j])
        else:
            out.append(reference_avar_block(q, xb, param[j]))
    return np.array(out)


def user_entropic(space, gamma):
    """Entropic risk as a user measure with a batch function only: no closed
    form, no cap or gradient hook, no oracle."""
    blocks = reference_blocks(space)

    def batch(xs):
        out = np.empty((len(xs), len(blocks)))
        for j, (idx, q) in enumerate(blocks):
            a = -gamma * xs[:, idx]
            top = a.max(axis=1)
            out[:, j] = (top + np.log(np.exp(a - top[:, None]) @ q)) / gamma
        return out

    return CondRiskMeasure(
        space, lambda x: ConditionalValue(batch(x.values[None])[0]), "user_entropic", evaluate_batch_fn=batch
    )


def max_of_linear(space, densities, alphas):
    """A user measure made of linear pieces: on block j, rho(x) is the
    largest E[-x d_i | block j] - alphas[i, j] over the pieces i.

    Each row d_i of ``densities`` has conditional mean 1 on every block.
    The measure gives ``evaluate_batch_fn`` only: no closed form and no dual
    hooks, so its penalty is the grid conjugate.  Its dual set on a block is
    the hull of the d_i, and rho has a kink wherever two pieces tie.
    """
    blocks = reference_blocks(space)
    d, a = np.asarray(densities, dtype=float), np.asarray(alphas, dtype=float)

    def batch(xs):
        out = np.empty((len(xs), len(blocks)))
        for j, (idx, q) in enumerate(blocks):
            out[:, j] = np.max(-(xs[:, idx] * q) @ d[:, idx].T - a[:, j], axis=1)
        return out

    return CondRiskMeasure(
        space, lambda x: ConditionalValue(batch(x.values[None])[0]), "max_of_linear", evaluate_batch_fn=batch
    )


def ceil_measure(space):
    """Local: -E[x | block 1] on block 1, -ceil(E[x | block 2]) on block 2.
    Not lower semicontinuous on block 2, where the mean is an integer."""

    def ev(x):
        vals = -space.cond_expect(x).values
        vals[1] = -math.ceil(-vals[1])
        return ConditionalValue(vals)

    return CondRiskMeasure(space, ev, "ceil")


def reference_penalty(space, kind, param, y):
    """Closed-form blockwise penalty of a built-in at the raw dual vector y."""
    out = []
    for j, (idx, q) in enumerate(reference_blocks(space)):
        yb = y[idx]
        d = -yb
        density = np.all(yb <= 1e-10) and abs(np.dot(q, yb) + 1.0) <= 1e-10
        if kind == "neg_expectation":
            ok = np.all(np.abs(yb + 1.0) <= 1e-10)
            out.append(0.0 if ok else np.inf)
        elif kind == "worst_case":
            out.append(0.0 if density else np.inf)
        elif kind == "entropic":
            ent = [di * np.log(di) if di > 0 else 0.0 for di in d]
            out.append(float(np.dot(q, ent)) / param[j] if density else np.inf)
        else:
            capped = np.all(d <= 1.0 / param[j] + 1e-10)
            out.append(0.0 if density and capped else np.inf)
    return np.array(out)


def reference_cond_ops(space, x, eta):
    """cond_expect, esssup_cond, essinf_cond, cond_cdf at eta, lift of eta."""
    mean, top, bottom, cdf = [], [], [], []
    lifted = np.empty(space.n_atoms)
    for j, (idx, q) in enumerate(reference_blocks(space)):
        xb = x[idx]
        mean.append(float(np.dot(q, xb)))
        top.append(float(xb.max()))
        bottom.append(float(xb.min()))
        cdf.append(float(np.dot(q, xb <= eta[j])))
        lifted[idx] = eta[j]
    return np.array(mean), np.array(top), np.array(bottom), np.array(cdf), lifted


def reference_admissible_dual(space, d):
    y = np.empty(space.n_atoms)
    for idx, q in reference_blocks(space):
        y[idx] = -d[idx] / float(np.dot(q, d[idx]))
    return y


# -- plain frozenset reference for the bitmask Boolean algebra ----------------------
# Each element is a frozenset of 1-based atoms, combined with set operations, so it
# shares no code with the int masks of condrisk.boolalg.


class RefElem:
    """An element of the powerset of atoms ``1..m``, held as a frozenset."""

    def __init__(self, m: int, atoms):
        # the integer rule, written out: an int or a numpy integer, not a bool
        checked = set()
        for a in atoms:
            if isinstance(a, bool):
                raise ValueError("atom index must be an int, not a bool")
            try:
                i = operator.index(a)
            except TypeError:
                raise ValueError(f"atom index must be an int, got {a!r}") from None
            if not 1 <= i <= m:
                raise ValueError(f"atom index {i} outside 1..{m}")
            checked.add(i)
        self.m = m
        self.atoms = frozenset(checked)

    def meet(self, other):
        return RefElem(self.m, self.atoms & other.atoms)

    def join(self, other):
        return RefElem(self.m, self.atoms | other.atoms)

    def complement(self):
        return RefElem(self.m, frozenset(range(1, self.m + 1)) - self.atoms)

    def implies(self, other):
        return self.complement().join(other)

    def __le__(self, other):
        return self.atoms <= other.atoms

    def __ge__(self, other):
        return self.atoms >= other.atoms

    def __repr__(self):
        return "{" + ",".join(str(a) for a in sorted(self.atoms)) + "}"


def reference_elements(m: int):
    """The atom sets of all 2^m elements, in mask order (bit a-1 is atom a)."""
    return [
        frozenset(a for a in range(1, m + 1) if mask >> (a - 1) & 1)
        for mask in range(1 << m)
    ]


# -- one-trial-at-a-time reference for the axiom checker ----------------------------
# Each trial is drawn and judged on its own with ``evaluate``, which raises on a
# non-finite risk; the batched checker must agree report for report.  Every input
# of a trial has its own child stream of ``SeedSequence(seed)``, and trial t is
# row t of each stream: here one row is drawn per trial.


def reference_trial_streams(seed):
    """One generator per trial input, on that input's child stream."""
    children = np.random.SeedSequence(seed).spawn(6)
    return dict(zip(("x", "y", "eta", "up", "on", "keys"), map(np.random.default_rng, children)))


def reference_law_permutation(space, keys):
    """One trial's law-preserving permutation from its key row: the atoms of
    a block whose conditional masses agree to 12 decimals, sorted by their
    keys."""
    perm = np.arange(space.n_atoms)
    for j in range(1, space.n_blocks + 1):
        idx = space.block_index_array(j)
        q = np.round(space.cond_probs(j), 12)
        for mass in np.unique(q):
            group = idx[q == mass]
            perm[group] = group[np.argsort(keys[group], kind="stable")]
    return perm


def reference_check_axiom(measure, axiom, trials, seed):
    """AxiomReport of ``axiom`` from ``trials`` trials judged one at a time."""
    from condrisk import ConditionalValue, RandomVariable
    from condrisk.riskcore import AXIOM_TOL, AxiomReport

    space = measure.space
    n, m = space.n_atoms, space.n_blocks
    streams = reference_trial_streams(seed)
    for trial in range(trials):
        xv = streams["x"].normal(0.0, 2.0, n)
        x = RandomVariable(xv)
        if axiom == "convexity":
            y = RandomVariable(streams["y"].normal(0.0, 2.0, n))
            eta = ConditionalValue(streams["eta"].uniform(0.0, 1.0, m))
            weight = space.lift(eta).values
            mix = RandomVariable(weight * x.values + (1.0 - weight) * y.values)
            lhs = measure.evaluate(mix).values
            rhs = eta.values * measure.evaluate(x).values + (
                1.0 - eta.values
            ) * measure.evaluate(y).values
            bad = lhs > rhs + AXIOM_TOL
        elif axiom == "monotonicity":
            y = RandomVariable(xv + np.abs(streams["up"].normal(0.0, 1.0, n)))
            lhs = measure.evaluate(y).values
            rhs = measure.evaluate(x).values
            bad = lhs > rhs + AXIOM_TOL
        elif axiom == "cash_invariance":
            eta = ConditionalValue(streams["eta"].normal(0.0, 2.0, m))
            lhs = measure.evaluate(x + space.lift(eta)).values
            rhs = measure.evaluate(x).values - eta.values
            bad = np.abs(lhs - rhs) > AXIOM_TOL
        elif axiom == "local_property":
            on = streams["on"].random(m) < 0.5
            cut = RandomVariable(x.values * space.broadcast(on))
            lhs = measure.evaluate(x).values
            rhs = measure.evaluate(cut).values
            bad = on & (np.abs(lhs - rhs) > AXIOM_TOL)
        else:  # conditional_law_invariance
            perm = reference_law_permutation(space, streams["keys"].random(n))
            lhs = measure.evaluate(x).values
            rhs = measure.evaluate(RandomVariable(xv[perm])).values
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


# -- reference mixing walk ----------------------------------------------------------
# Pastes every choice through the validated ``indicator_mix`` along the finest
# partition (one part per block), so it shares no indexing with the member stack
# of ``stable_sublevel_check``.


def reference_sublevel_walk(space, f, eta, probe, max_combos):
    """(members, violation, notes) of the mixing walk over ``probe``: every
    choice of one member per block in product order up to ``max_combos``
    choices, else the covering array that gives, for each bit b of the block
    index and each ordered pair (s, t) of members, s to the blocks whose bit
    b is 0 and t to the others."""
    import itertools

    from condrisk import PartitionOfUnity
    from condrisk.boolalg import mask_atoms

    def inside(v):
        return bool(np.all(f(v).values <= eta.values))

    members = [v for v in probe if inside(v)]
    notes = [] if members else ["no probe member lies in the sublevel set; verdicts vacuous"]
    finest = PartitionOfUnity(space.algebra.atom_elements())
    m, k = len(finest), len(members)
    if m == 1 or k <= 1:
        # every mix is then a member, which the screening above judged
        return k, None, notes
    if k**m <= max_combos:
        walk, note = list(itertools.product(members, repeat=m)), []
    else:
        walk = [
            tuple(t if (j >> b) & 1 else s for j in range(m))
            for b in range(math.ceil(math.log2(m)))
            for s in members
            for t in members
        ]
        note = [
            f"mixing closure checked on a covering array of {len(walk)} of the {k}^{m} "
            "choices of members: every pair of blocks took every pair of members; "
            "couplings of three or more blocks are unchecked"
        ]
    for choice in walk:
        if not inside(space.indicator_mix(finest, choice)):
            violation = {
                "partition": [mask_atoms(p.mask) for p in finest],
                "choice": [v.values.tolist() for v in choice],
            }
            return k, violation, notes
    return k, None, notes + note


def reference_block_verdicts(measure, items, payoffs, seed=0):
    """Each block's verdict on the transfer items, by the loop the suite ran
    before its stacked runs: every check of the item, through the public
    checkers, on ``measure.restrict(j)`` with the payoffs, probes and level
    cut to block j."""
    from condrisk import ConditionalValue, RandomVariable, transfer
    from condrisk.duality import penalty_map, stable_sublevel_check, verify_representation
    from condrisk.riskcore import check_axiom, check_convergence_property

    space = measure.space
    probes = transfer._probe_duals(measure, seed) if 7 in items else []
    eta = transfer._probe_level(measure, probes) if 7 in items else None
    out = {i: [] for i in items}
    for j in range(1, space.n_blocks + 1):
        block = measure.restrict(j)
        cut = [RandomVariable(space.restrict(x, j)) for x in payoffs]
        verdicts = {}
        if 1 in items:
            verdicts[1] = verify_representation(block, cut).attained_all
        if 3 in items or 4 in items:
            seq = transfer._default_sequence(cut[0], transfer.CONV_N_MAX)
            conv = check_convergence_property(block, seq, transfer.CONV_TOL)
            verdicts[3], verdicts[4] = conv.fatou, conv.lebesgue
        if 5 in items:
            law = check_axiom(block, "conditional_law_invariance", trials=transfer.LAW_TRIALS, seed=seed)
            verdicts[5] = law.passed
        if 7 in items:
            level = ConditionalValue(eta.values[j - 1 : j])
            cut_probes = [RandomVariable(space.restrict(p, j)) for p in probes]
            rep = stable_sublevel_check(block.space, penalty_map(block), level, cut_probes)
            verdicts[7] = rep.mixing_closure_passed and all(rep.inf_compact_per_block)
        for i in items:
            out[i].append(verdicts[i])
    return out


def reference_sublevel_rays(space, f, eta, probe, members):
    """Blocks bounded along every step-doubling ray of ``stable_sublevel_check``,
    found one payoff per call of ``f``: a ray counts on a block only when its
    direction is not 0 there."""
    from condrisk import RandomVariable
    from condrisk.duality import SUBLEVEL_RAY_BOUND

    bounded = [True] * space.n_blocks
    if not members:
        return bounded
    base = members[0].values
    for v in probe:
        for dvec in (v.values, -v.values):
            escaped = [False] * space.n_blocks
            t = 1.0
            while t <= SUBLEVEL_RAY_BOUND:
                vals = f(RandomVariable(base + t * dvec)).values
                escaped = [e or bool(val > lev) for e, val, lev in zip(escaped, vals, eta.values)]
                t *= 2.0
            for j in range(space.n_blocks):
                if np.any(space.restrict(v, j + 1)):
                    bounded[j] = bounded[j] and escaped[j]
    return bounded


# -- per-pair reference for the truth tables --------------------------------------
# The rank recursion as it ran before the tables: one memoised call per pair
# of names, on int masks, sharing no code with bvm's bottom-up fill.


def reference_truth(universe: Universe) -> SimpleNamespace:
    """``truth_eq(u, v)`` and ``truth_in(u, v)`` as int masks, by the
    memoised per-pair recursion over the names of ``universe``."""
    full = universe.algebra.full
    eq_memo: dict = {}
    in_memo: dict = {}

    def truth_in(u, v) -> int:
        key = (u.canonical_id, v.canonical_id)
        acc = in_memo.get(key)
        if acc is not None:
            return acc
        acc = 0
        for child, mask in v.masks:
            # only atoms of mask not yet in acc can change it
            if mask & ~acc:
                acc |= mask & truth_eq(child, u)
                if acc == full:
                    break
        return in_memo.setdefault(key, acc)

    def truth_eq(u, v) -> int:
        key = tuple(sorted((u.canonical_id, v.canonical_id)))
        acc = eq_memo.get(key)
        if acc is not None:
            return acc
        acc = full
        for a, b in ((u, v), (v, u)):
            for child, mask in a.masks:
                # mask => [[child in b]] only constrains the atoms of mask
                if mask & acc:
                    acc &= (mask ^ full) | truth_in(child, b)
                    if not acc:
                        break
            if not acc:
                break
        return eq_memo.setdefault(key, acc)

    return SimpleNamespace(truth_eq=truth_eq, truth_in=truth_in)


# -- reference for Universe.mix ------------------------------------------------------
# The mix as it was built before it read the inputs' entries: every candidate
# child valued from the truth tables.


def reference_mix(universe: Universe, partition, names):
    """The name equal to names[k] on part k, each child of an input valued by
    the join over parts of (part AND [[child in names[k]]])."""
    candidates: dict = {}
    for u in names:
        for child, _ in u.entries:
            candidates[child] = None
    entries = {}
    for child in candidates:
        value = 0
        for part, u in zip(partition, names):
            value |= part.mask & universe.truth_in(child, u).mask
        entries[child] = universe.algebra.from_mask(value)
    return universe.make_name(entries)


# -- per-atom reference for Universe.maximum_witness ----------------------------------
# The witness as it was picked before it was a mix of per-child parts: one
# pick per atom, the fallback ordinals asked atom by atom.


def reference_maximum_witness(universe: Universe, phi, v):
    """A name u with [[phi(u)]] equal to [[exists x in v . phi(x)]], picked
    atom by atom: below the existence value the smallest-id member of dom(v)
    whose formula value covers the atom, elsewhere the smallest-id member,
    and where v has no member the first of the four smallest von Neumann
    ordinals that falsifies the formula there, else the empty name."""
    universe._check(v)
    truths = [(child, value.mask, phi(child).mask) for child, value in v.entries]
    exists = 0
    for child, value, t in truths:
        exists |= value & t
    picks = []
    parts = []
    fallbacks = None
    for a in range(1, universe.algebra.atom_count + 1):
        bit = 1 << (a - 1)
        local = [(c, val, t) for c, val, t in truths if val & bit]
        if exists & bit:
            chosen = next(c for c, val, t in local if t & bit)
        elif local:
            chosen = local[0][0]
        else:
            if fallbacks is None:
                ordinal = frozenset()
                fallbacks = []
                for _ in range(4):
                    fallbacks.append(universe.canonical_name(ordinal))
                    ordinal = ordinal | frozenset([ordinal])
            chosen = next((c for c in fallbacks if not phi(c).mask & bit), universe.empty)
        picks.append(chosen)
        parts.append(universe.algebra.from_mask(bit))
    witness = universe.mix(PartitionOfUnity(parts), picks)
    if phi(witness) != universe.algebra.from_mask(exists):
        raise WitnessError(
            "no witness can match the existence value: the bound name is "
            "empty on an atom where the formula holds of every candidate"
        )
    return witness


# -- per-call reference for collapse_eval -----------------------------------------
# The two-valued evaluation as it ran before formulas were staged: one walk of
# the syntax tree per call, each literal read through atom_collapse.


def reference_collapse_eval(f, atom, env=None) -> bool:
    """Two-valued evaluation at one atom, over collapsed hereditary finite sets."""
    env = dict(env or {})

    def term(t, scope) -> frozenset:
        if isinstance(t, Lit):
            return atom_collapse(t.name, atom)
        if t.name in scope:
            return scope[t.name]
        if t.name in env:
            return atom_collapse(env[t.name], atom)
        raise FormulaError(f"no binding for {t.name!r}")

    def rec(node, scope) -> bool:
        if isinstance(node, Eq):
            return term(node.left, scope) == term(node.right, scope)
        if isinstance(node, In):
            return term(node.left, scope) in term(node.right, scope)
        if isinstance(node, Not):
            return not rec(node.body, scope)
        if isinstance(node, And):
            return rec(node.left, scope) and rec(node.right, scope)
        if isinstance(node, Or):
            return rec(node.left, scope) or rec(node.right, scope)
        if isinstance(node, Implies):
            return (not rec(node.left, scope)) or rec(node.right, scope)
        domain = term(node.domain, scope)
        if isinstance(node, ForallIn):
            return all(rec(node.body, {**scope, node.var: s}) for s in domain)
        return any(rec(node.body, {**scope, node.var: s}) for s in domain)

    return rec(f, {})


# -- token reference for the literal and formula readers ------------------------------
# The front end as it ran before the readers stepped through the text: the
# whole text is lexed into a token list first, so an unexpected character
# anywhere is the error, and two parsers then read the tokens.  A literal
# that the lexer finds in the universe's literal memo, or earlier in the
# text, is one token.

Token = namedtuple("Token", ["kind", "text", "pos"])

REFERENCE_LITERAL_PUNCT = {ch: ch for ch in "{}()[],:;"}
REFERENCE_FORMULA_PUNCT = {
    **REFERENCE_LITERAL_PUNCT, "->": "ARROW", "|": "OR", "&": "AND", "!": "NOT", ".": "DOT", "=": "EQ",
}
_REF_WORD_REST = re.compile(r"\w*")
_REF_SPACE = re.compile(r"\s*")
_REF_ATOMS = re.compile(r"\{\s*\d+\s*(?:,\s*\d+\s*)*\}")
_REF_DIGITS = re.compile(r"\d+")
_REF_ATOMS_AFTER = frozenset(":[;")
_REF_HEAD_OPEN = {"name": "{", "check": "(", "mix": "["}
_REF_KEYWORDS = {"forall", "exists", "in", "empty", "check", "name", "mix"}
_REF_LITERAL_HEADS = {"empty", "check", "name", "mix"}


class _Known(Token):
    """The IDENT token of the head of a literal read before, carrying the
    ``key`` of its name in ``Tokens.known``."""


class Tokens(list):
    """The tokens of ``source``; ``known`` maps the text of each literal
    met to its name, or None until its first occurrence is parsed."""

    __slots__ = ("source", "known")


def _reference_group_pattern(depth):
    gap = r"[^{}()\[\]]*"
    group = r"[{(\[]" + gap + r"[})\]]"
    for _ in range(depth - 1):
        group = r"[{(\[]" + gap + "(?:" + group + gap + r")*[})\]]"
    return group


REFERENCE_GROUP = re.compile(_reference_group_pattern(16))


def reference_scan(text, punct, memo=None):
    """Split text into INT, IDENT, ATOMS and punctuation tokens, ending with
    EOF, character by character; a literal whose text is in ``memo`` or met
    earlier in ``text`` is one ``_Known`` token."""
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
        if ch == "{" and tokens and tokens[-1].kind in _REF_ATOMS_AFTER:
            m = _REF_ATOMS.match(text, i)
            if m is not None:
                tokens.append(Token("ATOMS", text[i : m.end()], i))
                i = m.end()
                continue
        if ch in pairs and text[i : i + 2] in punct:
            ch = text[i : i + 2]
        if ch in punct:
            tokens.append(Token(punct[ch], ch, i))
            i += len(ch)
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            kind = "INT"
        elif ch.isalpha() or ch == "_":
            j = _REF_WORD_REST.match(text, i + 1).end()
            kind = "IDENT"
            opener = _REF_HEAD_OPEN.get(text[i:j])
            if opener is not None:
                k = _REF_SPACE.match(text, j).end()
                group = REFERENCE_GROUP.match(text, k) if text.startswith(opener, k) else None
                if group is not None:
                    key = text[i : group.end()]
                    met = key in known
                    if not met:
                        known[key] = memo.get(key)
                    if met or known[key] is not None:
                        tok = _Known(kind, text[i:j], i)
                        tok.key = key
                        tokens.append(tok)
                        i = group.end()
                        continue
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(Token(kind, text[i:j], i))
        i = j
    tokens.append(Token("EOF", "", n))
    return tokens


def _ref_expect(tokens, i, kind):
    if tokens[i].kind != kind:
        raise ParseError(f"expected {kind!r}, found {tokens[i].text!r}", tokens[i].pos)
    return i + 1


def _ref_atomset(tokens, i, algebra, memo=None):
    tok = tokens[i]
    if tok.kind == "ATOMS":
        if memo is not None:
            elem = memo.get(tok.text)
            if elem is not None:
                return elem, i + 1
        atoms = list(map(int, _REF_DIGITS.findall(tok.text)))
        pos = tok.pos + len(tok.text) - 1
        i += 1
    else:
        i = _ref_expect(tokens, i, "{")
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
        i = _ref_expect(tokens, i, "}")
    try:
        elem = algebra.element(atoms)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None
    if memo is not None and tok.kind == "ATOMS":
        memo.keep(tok.text, elem)
    return elem, i


def _ref_hf(tokens, i):
    i = _ref_expect(tokens, i, "{")
    members = []
    if tokens[i].kind != "}":
        while True:
            hf, i = _ref_hf(tokens, i)
            members.append(hf)
            if tokens[i].kind == ",":
                i += 1
                continue
            break
    i = _ref_expect(tokens, i, "}")
    return frozenset(members), i


def _ref_name(tokens, i, universe):
    tok = tokens[i]
    if tok.kind != "IDENT":
        raise ParseError("expected a name literal", tok.pos)
    if type(tok) is _Known:
        return tokens.known[tok.key], i + 1
    if tok.text == "empty":
        return universe.empty, i + 1
    name, end = _ref_compound(tokens, i, universe)
    key = tokens.source[tok.pos : tokens[end - 1].pos + 1]
    tokens.known[key] = name
    universe._literal_memo.keep(key, name)
    return name, end


def _ref_compound(tokens, i, universe):
    tok = tokens[i]
    if tok.text == "check":
        i = _ref_expect(tokens, i + 1, "(")
        hf, i = _ref_hf(tokens, i)
        i = _ref_expect(tokens, i, ")")
        return universe.canonical_name(hf), i
    algebra, memo = universe.algebra, universe._atom_memo
    if tok.text == "name":
        i = _ref_expect(tokens, i + 1, "{")
        entries = {}
        if tokens[i].kind != "}":
            while True:
                child, i = _ref_name(tokens, i, universe)
                i = _ref_expect(tokens, i, ":")
                value, i = _ref_atomset(tokens, i, algebra, memo)
                prior = entries.get(child)
                entries[child] = value if prior is None else prior | value
                if tokens[i].kind == ",":
                    i += 1
                    continue
                break
        i = _ref_expect(tokens, i, "}")
        return universe.make_name(entries), i
    if tok.text == "mix":
        i = _ref_expect(tokens, i + 1, "[")
        parts, names = [], []
        while True:
            part, i = _ref_atomset(tokens, i, algebra, memo)
            i = _ref_expect(tokens, i, ":")
            child, i = _ref_name(tokens, i, universe)
            parts.append(part)
            names.append(child)
            if tokens[i].kind == ";":
                i += 1
                continue
            break
        i = _ref_expect(tokens, i, "]")
        try:
            partition = PartitionOfUnity(parts)
        except CondriskError as exc:
            raise ParseError(str(exc), tok.pos) from None
        return universe.mix(partition, names), i
    raise ParseError(f"unknown name literal {tok.text!r}", tok.pos)


def reference_parse_name_literal(text, universe):
    tokens = reference_scan(text, REFERENCE_LITERAL_PUNCT, universe._literal_memo)
    name, i = _ref_name(tokens, 0, universe)
    if tokens[i].kind != "EOF":
        raise ParseError("trailing input after name literal", tokens[i].pos)
    return name


def reference_parse_atom_set(text, algebra):
    tokens = reference_scan(text, REFERENCE_LITERAL_PUNCT)
    elem, i = _ref_atomset(tokens, 0, algebra)
    if tokens[i].kind != "EOF":
        raise ParseError("trailing input after atom set", tokens[i].pos)
    return elem


class _RefParser:
    def __init__(self, tokens, universe, free_names):
        self.tokens, self.i, self.universe = tokens, 0, universe
        self.free = set(free_names)
        self.bound = []

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.i += 1
        return tok

    def formula(self):
        left = self.disj()
        if self.peek().kind == "ARROW":
            self.i += 1
            return Implies(left, self.disj())
        return left

    def disj(self):
        node = self.conj()
        while self.peek().kind == "OR":
            self.i += 1
            node = Or(node, self.conj())
        return node

    def conj(self):
        node = self.atom()
        while self.peek().kind == "AND":
            self.i += 1
            node = And(node, self.atom())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NOT":
            self.i += 1
            return Not(self.atom())
        if tok.kind == "(":
            self.i += 1
            node = self.formula()
            self.take(")")
            return node
        if tok.kind == "IDENT" and tok.text in ("forall", "exists"):
            self.i += 1
            var = self.take("IDENT")
            if var.text in _REF_KEYWORDS:
                raise ParseError(f"{var.text!r} is reserved", var.pos)
            kw = self.take("IDENT")
            if kw.text != "in":
                raise ParseError("expected 'in' after the bound variable", kw.pos)
            domain = self.term()
            self.take("DOT")
            self.bound.append(var.text)
            body = self.formula()
            self.bound.pop()
            return (ForallIn if tok.text == "forall" else ExistsIn)(var.text, domain, body)
        left = self.term()
        op = self.peek()
        if op.kind == "EQ":
            self.i += 1
            return Eq(left, self.term())
        if op.kind == "IDENT" and op.text == "in":
            self.i += 1
            return In(left, self.term())
        raise ParseError("expected '=' or 'in' after a term", op.pos)

    def term(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError("expected a term", tok.pos)
        if tok.text in _REF_LITERAL_HEADS:
            name, self.i = _ref_name(self.tokens, self.i, self.universe)
            return Lit(name)
        if tok.text in _REF_KEYWORDS:
            raise ParseError(f"{tok.text!r} is reserved", tok.pos)
        self.i += 1
        if tok.text not in self.bound and tok.text not in self.free:
            raise UnboundVariableError(f"unbound variable {tok.text!r}", tok.pos)
        return Var(tok.text)


def reference_parse(text, universe, free_names=()):
    parser = _RefParser(reference_scan(text, REFERENCE_FORMULA_PUNCT, universe._literal_memo), universe, free_names)
    node = parser.formula()
    parser.take("EOF")
    return node
