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
