"""Seeded generators shared between the unit tests and the acceptance suite."""

import math
from types import SimpleNamespace

import numpy as np

from condrisk import ConditionalValue, CondRiskMeasure, Universe
from condrisk.formulalang import And, Eq, ExistsIn, ForallIn, Implies, In, Lit, Not, Or, Var


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
        atoms = frozenset(atoms)
        for a in atoms:
            if not isinstance(a, int) or not 1 <= a <= m:
                raise ValueError(f"atom index {a!r} outside 1..{m}")
        self.m = m
        self.atoms = atoms

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

    @property
    def is_zero(self):
        return not self.atoms

    @property
    def is_one(self):
        return len(self.atoms) == self.m

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
    """(members, violation, notes) of the mixing walk over ``probe``."""
    import itertools

    from condrisk import PartitionOfUnity
    from condrisk.boolalg import mask_atoms

    def inside(v):
        return bool(np.all(f(v).values <= eta.values))

    members = [v for v in probe if inside(v)]
    notes = [] if members else ["no probe member lies in the sublevel set; verdicts vacuous"]
    finest = PartitionOfUnity(space.algebra.atom_elements())
    if len(finest) == 1 or len(members) <= 1:
        # every mix is then a member, which the screening above judged
        return len(members), None, notes
    walk = itertools.product(members, repeat=len(finest))
    for combos, choice in enumerate(walk, start=1):
        if not inside(space.indicator_mix(finest, choice)):
            violation = {
                "partition": [mask_atoms(p.mask) for p in finest],
                "choice": [v.values.tolist() for v in choice],
            }
            return len(members), violation, notes
        if combos > max_combos:
            if next(walk, None) is not None:
                notes.append(
                    f"mixing closure checked on the first {combos} combinations of a "
                    "partition and a choice of members only: the walk stops at its cap"
                )
            break
    return len(members), None, notes


def reference_sublevel_rays(space, f, eta, probe, members):
    """Blocks bounded along every step-doubling ray of ``stable_sublevel_check``,
    found one payoff per call of ``f``."""
    from condrisk import RandomVariable
    from condrisk.duality import SUBLEVEL_RAY_BOUND

    bounded = [True] * space.n_blocks
    if not members:
        return bounded
    base = members[0].values
    for v in probe:
        for dvec in (v.values, -v.values):
            if not np.any(dvec):
                continue
            escaped = [False] * space.n_blocks
            t = 1.0
            while t <= SUBLEVEL_RAY_BOUND:
                vals = f(RandomVariable(base + t * dvec)).values
                escaped = [e or bool(val > lev) for e, val, lev in zip(escaped, vals, eta.values)]
                t *= 2.0
            bounded = [b and e for b, e in zip(bounded, escaped)]
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
