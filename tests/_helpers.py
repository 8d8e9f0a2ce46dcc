"""Seeded generators shared between the unit tests and the acceptance suite."""

import numpy as np

from condrisk import Universe
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
# non-finite risk; the batched checker must agree report for report.


def reference_check_axiom(measure, axiom, trials, seed):
    """AxiomReport of ``axiom`` from ``trials`` trials judged one at a time."""
    from condrisk import ConditionalValue, RandomVariable
    from condrisk.riskcore import AXIOM_TOL, AxiomReport

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
            on = rng.random(space.n_blocks) < 0.5
            cut = RandomVariable(x.values * space.broadcast(on))
            lhs = measure.evaluate(x).values
            rhs = measure.evaluate(cut).values
            bad = on & (np.abs(lhs - rhs) > AXIOM_TOL)
        else:  # conditional_law_invariance
            perm = np.arange(space.n_atoms)
            for j in range(1, space.n_blocks + 1):
                idx = space.block_index_array(j)
                q = space.cond_probs(j)
                for mass in np.unique(np.round(q, 12)):
                    group = idx[np.abs(q - mass) <= 1e-12]
                    perm[group] = rng.permutation(perm[group])
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
