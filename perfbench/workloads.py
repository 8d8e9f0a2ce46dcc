"""The three closed-loop workloads of the condrisk benchmark.

Each workload has four steps.  ``generate`` makes every input from the seed
(benchmark work, never timed).  ``setup`` runs the program's construction
calls (timed as ``setup_s``).  ``prepare`` draws one job's inputs (not timed)
and ``run`` executes the job (timed).  ``check`` compares the job's outputs
with references that do not go through the code under test and returns the
list of mismatches; a non-empty list fails the job.

Why each workload exists, and what it leaves out, is in README.md beside
this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import condrisk as cr
import condrisk.cli

BUILTIN_KINDS = (
    {"kind": "neg_expectation"},
    {"kind": "worst_case"},
    {"kind": "entropic", "gamma": 1.0},
    {"kind": "avar", "lambda": 0.3},
)
GAMMA = 1.0
LAMBDA = 0.3
TOL = 1e-9


def _close(a, b, tol=TOL) -> bool:
    """Equal infinities and finite entries within ``tol`` (relative above 1)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isinf(a), np.isinf(b)):
        return False
    fin = np.isfinite(a)
    return bool(np.all(np.abs(a[fin] - b[fin]) <= tol * np.maximum(1.0, np.abs(b[fin]))))


def _builtins(space):
    return (
        cr.neg_cond_expectation(space),
        cr.cond_worst_case(space),
        cr.cond_entropic(space, GAMMA),
        cr.cond_avar(space, LAMBDA),
    )


def _run_cli(argv):
    """One CLI request in-process: (exit code, last stdout line as JSON or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = condrisk.cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        payload = None
    return code, payload


class _Blocks:
    """Benchmark-side description of a block partition (0-based atoms)."""

    def __init__(self, probs, members):
        self.probs = np.asarray(probs, dtype=float)
        self.members = [np.asarray(m, dtype=np.intp) for m in members]
        self.m = len(self.members)
        self.block_of = np.empty(self.probs.size, dtype=np.intp)
        for j, idx in enumerate(self.members):
            self.block_of[idx] = j
        self.mass = np.bincount(self.block_of, self.probs, self.m)
        self.wire_blocks = [(idx + 1).tolist() for idx in self.members]

    def mean(self, v):
        """E[v | block] by weighted bincount."""
        return np.bincount(self.block_of, self.probs * v, self.m) / self.mass

    def admissible(self, dens):
        """The dual y = -d / E[d | block] that admissible_dual must return."""
        return -dens / self.mean(dens)[self.block_of]

    def penalties(self, y):
        """Closed-form penalties of the four built-ins at y, from their definitions."""
        d = -y
        exact = np.full(self.m, True)
        np.logical_and.at(exact, self.block_of, np.abs(y + 1.0) <= 1e-10)
        admissible = np.abs(self.mean(d) - 1.0) <= 1e-10
        top = np.full(self.m, -np.inf)
        np.maximum.at(top, self.block_of, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = self.mean(np.where(d > 0, d * np.log(d), 0.0)) / GAMMA
        return {
            "neg_expectation": np.where(exact, 0.0, np.inf),
            "worst_case": np.where(admissible, 0.0, np.inf),
            "entropic": np.where(admissible, ent, np.inf),
            "avar": np.where(admissible & (top <= 1.0 / LAMBDA + 1e-10), 0.0, np.inf),
        }

    def entropic(self, x, j):
        q = self.probs[self.members[j]] / self.mass[j]
        a = -GAMMA * x[self.members[j]]
        top = a.max()
        return (top + math.log(float(np.sum(q * np.exp(a - top))))) / GAMMA

    def avar(self, x, j):
        """Rockafellar-Uryasev: min over thresholds t of t + E[(L - t)^+] / lambda."""
        q = self.probs[self.members[j]] / self.mass[j]
        losses = -x[self.members[j]]
        excess = np.maximum(losses[None, :] - losses[:, None], 0.0) @ q
        return float(np.min(losses + excess / LAMBDA))


# -- eval_large ----------------------------------------------------------------------


class EvalLarge:
    """Library-scale risk evaluation on 1e5 atoms in 1e3 uneven, shuffled blocks."""

    name = "eval_large"
    cycle = 1
    cycles = 50
    traced_cycles = 4
    setup_repeats = 1
    batch = 16

    def __init__(self, n_atoms: int = 100_000, n_blocks: int = 1000, sampled_blocks: int = 20):
        self.n_atoms = n_atoms
        self.n_blocks = n_blocks
        self.sampled_blocks = sampled_blocks

    def generate(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        weights = rng.uniform(0.0, 1.0, self.n_blocks) ** 1.5
        sizes = 1 + rng.multinomial(self.n_atoms - self.n_blocks, weights / weights.sum())
        order = rng.permutation(self.n_atoms)
        members = np.split(order, np.cumsum(sizes)[:-1])
        probs = rng.uniform(0.5, 2.0, self.n_atoms)
        probs /= probs.sum()
        return SimpleNamespace(seed=seed, ref=_Blocks(probs, members))

    def setup(self, inputs):
        ref = inputs.ref
        space = cr.FiniteProbSpace(ref.probs, ref.wire_blocks)
        return SimpleNamespace(
            seed=inputs.seed, ref=ref, space=space, measures=_builtins(space),
            batch_bytes_per_job=len(BUILTIN_KINDS) * self.batch * self.n_atoms * 8,
        )

    def counts(self, state) -> dict:
        return {}

    def prepare(self, state, job: int):
        rng = np.random.default_rng([state.seed, 2, job])
        return SimpleNamespace(
            xs=rng.normal(0.0, 2.0, (self.batch, self.n_atoms)),
            eta=rng.normal(0.0, 1.0, self.n_blocks),
            dens=rng.uniform(0.2, 1.8, self.n_atoms),
            sample=rng.choice(self.n_blocks, self.sampled_blocks, replace=False),
        )

    def run(self, state, inp, mark):
        space = state.space
        x0 = cr.RandomVariable(inp.xs[0])
        eta = cr.ConditionalValue(inp.eta)
        out = SimpleNamespace(single={}, batch={}, penalty={})
        for measure in state.measures:
            out.single[measure.label] = measure.evaluate(x0).values
            out.batch[measure.label] = measure.evaluate_batch(inp.xs)
        out.cond_expect = space.cond_expect(x0).values
        out.esssup = space.esssup_cond(x0).values
        out.essinf = space.essinf_cond(x0).values
        out.cdf = space.cond_cdf(x0, eta).values
        out.lift = space.lift(eta).values
        y = cr.admissible_dual(space, inp.dens)
        out.y = y.values
        for measure in state.measures:
            out.penalty[measure.label] = cr.penalty_of(measure, y).values
        return out

    def check(self, state, inp, out):
        ref = state.ref
        xs = inp.xs
        x0 = xs[0]
        bad = []
        for label in out.single:
            if not _close(out.single[label], out.batch[label][0]):
                bad.append(f"{label}: evaluate differs from row 0 of evaluate_batch")
        means = np.stack([ref.mean(row) for row in xs])
        if not _close(out.cond_expect, means[0]):
            bad.append("cond_expect differs from the bincount reference")
        if not _close(out.batch["neg_expectation"], -means):
            bad.append("neg_expectation differs from the bincount reference")
        worst = np.full((xs.shape[0], ref.m), -np.inf)
        for row, target in zip(xs, worst):
            np.maximum.at(target, ref.block_of, -row)
        if not np.array_equal(out.batch["worst_case"], worst):
            bad.append("worst_case differs from the maximum.at reference")
        top = np.full(ref.m, -np.inf)
        np.maximum.at(top, ref.block_of, x0)
        bottom = np.full(ref.m, np.inf)
        np.minimum.at(bottom, ref.block_of, x0)
        if not (np.array_equal(out.esssup, top) and np.array_equal(out.essinf, bottom)):
            bad.append("esssup_cond/essinf_cond differ from the maximum.at reference")
        if not _close(out.cdf, ref.mean((x0 <= inp.eta[ref.block_of]).astype(float))):
            bad.append("cond_cdf differs from the bincount reference")
        if not np.array_equal(out.lift, inp.eta[ref.block_of]):
            bad.append("lift differs from eta[block_of]")
        for j in inp.sample:
            for r, row in enumerate(xs):
                if not _close(out.batch["entropic"][r, j], ref.entropic(row, j)):
                    bad.append(f"entropic block {j} row {r} differs from logsumexp")
                if not _close(out.batch["avar"][r, j], ref.avar(row, j)):
                    bad.append(f"avar block {j} row {r} differs from the sorted-tail reference")
        y_ref = ref.admissible(inp.dens)
        if not _close(out.y, y_ref):
            bad.append("admissible_dual differs from the blockwise normalization")
        for label, expect in ref.penalties(y_ref).items():
            if not _close(out.penalty[label], expect):
                bad.append(f"penalty_of {label} differs from its closed form")
        return bad


# -- verify_mix --------------------------------------------------------------------------


def _user_entropic(ref: _Blocks, gamma: float):
    """Row-wise (1/gamma) log E[exp(-gamma x) | block], written with numpy only."""

    def rho(xs):
        xs = np.atleast_2d(xs)
        out = np.empty((xs.shape[0], ref.m))
        for j, idx in enumerate(ref.members):
            a = -gamma * xs[:, idx]
            top = a.max(axis=1)
            q = ref.probs[idx] / ref.mass[j]
            out[:, j] = (top + np.log(np.exp(a - top[:, None]) @ q)) / gamma
        return out

    return rho


class VerifyMix:
    """Acceptance-style traffic: one fixed rotation of CLI and library checks."""

    name = "verify_mix"
    cycles = 2
    traced_cycles = 1
    setup_repeats = 5
    axiom_trials = 200
    interp_samples = 20
    user_gamma = 1.0
    user_iters = 60
    # The point the user measure is represented at is the same for every seed:
    # over seeds 1 to 40 a drawn point fed the batch function 37k to 843k rows,
    # so which request sat at the median depended on the seed.  This point
    # feeds about 500k rows, the common case.
    user_x = (-1.0, 2.0, 0.5)

    def __init__(self):
        self.rotation = self._rotation()
        self.cycle = len(self.rotation)
        # the warm-up is the first pass: every request kind once, wide12 once
        self.warmup_jobs = self.cycle // 2

    @staticmethod
    def _rotation():
        """Two passes over the small requests, each closed by one wide12 request.

        The small requests come twice per rotation so that the median and the
        tail rest on more samples of them in a run of the same length.
        """
        small = []
        for kind in BUILTIN_KINDS:
            small.append(("axioms", "space8", kind["kind"]))
        for kind in BUILTIN_KINDS:
            small.append(("represent", "space8", kind["kind"]))
        for kind in BUILTIN_KINDS:
            small.append(("penalty", "space8", kind["kind"]))
        for space in ("s4", "space8"):
            for kind in BUILTIN_KINDS:
                small.append(("transfer", space, kind["kind"]))
        small.append(("fenchel", "s4", None))
        small.append(("fenchel", "five10", None))
        small.append(("user_dual", "user3", None))
        small.append(("young", "space8", None))
        small.append(("interp", "interp8", None))
        jobs = small + [("transfer", "wide12", "worst_case")] + small + [("transfer", "wide12", "avar")]
        return tuple(job + (None,) * (3 - len(job)) for job in jobs)

    def generate(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])

        def nonuniform(sizes):
            n = sum(sizes)
            probs = rng.uniform(0.5, 2.0, n)
            bounds = np.cumsum(sizes)[:-1]
            return _Blocks(probs / probs.sum(), np.split(np.arange(n), bounds))

        conftest = np.random.default_rng(2024).uniform(0.5, 2.0, 8)
        spaces = {
            "s4": _Blocks(np.full(4, 0.25), [[0, 1], [2, 3]]),
            "space8": _Blocks(conftest / conftest.sum(), [[0, 1, 2], [3, 4, 5], [6, 7]]),
            "wide12": nonuniform([3] * 12),
            "five10": nonuniform([5, 5]),
            "interp8": nonuniform([2] * 8),
            "user3": nonuniform([3]),
        }
        files = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for key in ("s4", "space8", "wide12"):
            ref = spaces[key]
            scenario = {
                "probs": ref.probs.tolist(),
                "blocks": ref.wire_blocks,
                "measures": list(BUILTIN_KINDS),
                "payoffs": [rng.normal(0.0, 2.0, ref.probs.size).tolist() for _ in range(3)],
            }
            files[key] = workdir / f"verify_mix-{key}-seed{seed}.json"
            files[key].write_text(json.dumps(scenario))

        def duals(ref):
            ys = [ref.admissible(rng.uniform(0.2, 1.8, ref.probs.size)) for _ in range(3)]
            shifted = ys[0].copy()
            shifted[ref.members[0]] *= 0.5  # E[-y | block 1] = 1/2: penalty +inf there
            return ys + [shifted]

        space8 = spaces["space8"]
        y8 = space8.admissible(rng.uniform(0.2, 1.8, 8))
        return SimpleNamespace(
            seed=seed,
            spaces=spaces,
            files=files,
            penalty_y=y8,
            penalty_expect=space8.penalties(y8),
            fenchel_duals={k: duals(spaces[k]) for k in ("s4", "five10")},
            user_x=np.array(self.user_x),
            young_xy=rng.normal(0.0, 2.0, (2, 8)),
            interp_seed=int(rng.integers(2**31)),
        )

    def setup(self, inputs):
        for path in inputs.files.values():
            condrisk.cli.ingest(str(path))
        lib = {}
        for key in ("s4", "five10", "space8", "interp8", "user3"):
            ref = inputs.spaces[key]
            lib[key] = cr.FiniteProbSpace(ref.probs, ref.wire_blocks)
        rows = [0]
        user_rho = _user_entropic(inputs.spaces["user3"], self.user_gamma)

        def user_batch(xs):
            rows[0] += xs.shape[0]
            return user_rho(xs)

        user = cr.CondRiskMeasure(
            lib["user3"],
            lambda x: cr.ConditionalValue(user_rho(x.values)[0]),
            "user_entropic",
            evaluate_batch_fn=user_batch,
        )
        return SimpleNamespace(
            inputs=inputs,
            lib=lib,
            fenchel_measures={k: _builtins(lib[k]) for k in ("s4", "five10")},
            fenchel_duals={
                k: [cr.DualVariable(y) for y in ys] for k, ys in inputs.fenchel_duals.items()
            },
            user=user,
            user_rho=user_rho,
            user_rows=rows,
        )

    def counts(self, state) -> dict:
        """Rows the user measure's batch function received (its own closure counts them)."""
        return {"duality.user_risk_rows": state.user_rows[0]}

    def prepare(self, state, job: int):
        return self.rotation[job % self.cycle]

    def run(self, state, inp, mark):
        kind, space, measure = inp
        inputs = state.inputs
        if kind in ("axioms", "represent", "penalty", "transfer"):
            scenario = str(inputs.files[space])
            argv = {
                "axioms": ["risk", "check-axioms", "--trials", str(self.axiom_trials)],
                "represent": ["dual", "represent"],
                "penalty": ["dual", "penalty", "--y", json.dumps(inputs.penalty_y.tolist())],
                "transfer": ["transfer", "verify"],
            }[kind]
            return _run_cli(argv + ["--scenario", scenario, "--measure", measure])
        if kind == "fenchel":
            duals = state.fenchel_duals[space]
            return [cr.fenchel_consistency(m, duals) for m in state.fenchel_measures[space]]
        if kind == "user_dual":
            x = cr.RandomVariable(inputs.user_x)
            return cr.dual_representation(
                state.user, x, cr.DualSearchConfig(max_iters=self.user_iters)
            )
        if kind == "young":
            phi = cr.young_power(2)
            pair = (cr.ModuleSpec.orlicz(phi), cr.ModuleSpec.orlicz(cr.young_conjugate(phi)))
            x, y = (cr.RandomVariable(v) for v in inputs.young_xy)
            return cr.inequality_check(x, y, pair, state.lib[space])
        return cr.verify_interp_props(
            state.lib[space], samples=self.interp_samples, seed=inputs.interp_seed
        )

    def check(self, state, inp, out):
        kind, space, measure = inp
        inputs = state.inputs
        ref = inputs.spaces[space]
        if kind in ("axioms", "represent", "penalty", "transfer"):
            code, payload = out
            if code != 0 or payload is None:
                return [f"{kind} {space} {measure}: exit code {code}"]
            if kind == "penalty":
                if not _close([float(v) for v in payload["penalty"]], inputs.penalty_expect[measure]):
                    return [f"dual penalty {measure} differs from its closed form"]
                return []
            if payload.get("passed") is not True:
                return [f"{kind} {space} {measure}: passed is not true"]
            if kind == "represent":
                for entry in payload["entries"]:
                    dual = np.array([float(v) for v in entry["dual"]])
                    direct = np.array([float(v) for v in entry["direct"]])
                    if np.any(dual > direct + 1e-6):
                        return [f"dual represent {measure}: weak duality violated"]
            return []
        if kind == "fenchel":
            duals = inputs.fenchel_duals[space]
            bad = []
            for report in out:
                if not (report.passed and report.infinities_agree):
                    bad.append(f"fenchel_consistency on {space} did not pass")
                if len(report.comparisons) != len(duals) * ref.m:
                    bad.append(f"fenchel_consistency on {space} skipped comparisons")
                shifted = [c for c in report.comparisons if c.dual_index == len(duals) - 1 and c.atom == 1]
                if not all(math.isinf(c.conditional) and math.isinf(c.classical) for c in shifted):
                    bad.append(f"fenchel_consistency on {space}: inadmissible dual got a finite penalty")
            return bad
        if kind == "user_dual":
            direct = state.user_rho(inputs.user_x)[0]
            y = out.maximizer.values
            if np.any(out.value.values > direct + 1e-6):
                return ["user measure: weak duality violated"]
            if np.any(y > 0) or not _close(ref.mean(-y), np.ones(ref.m), 1e-8):
                return ["user measure: maximizer is not an admissible density"]
            return []
        if kind == "young":
            x, y = inputs.young_xy
            if not out.holds:
                return ["Orlicz pairing inequality reported as failing"]
            if not _close(out.lhs, ref.mean(np.abs(x * y)), 1e-12):
                return ["inequality_check lhs differs from the bincount reference"]
            return []
        return [] if out.passed else ["verify_interp_props did not pass"]


# -- bvm_model -----------------------------------------------------------------------------


def _recipe(rng, m: int, rank: int, width: int):
    """A random name as nested (child, atoms) pairs; () is the empty name."""
    if rank == 0 or rng.random() < 0.25:
        return ()
    children = []
    for _ in range(int(rng.integers(1, width + 1))):
        atoms = tuple(int(a) + 1 for a in np.flatnonzero(rng.random(m) < 0.5))
        children.append((_recipe(rng, m, rank - 1, width), atoms))
    return tuple(children)


def _literal(recipe) -> str:
    if not recipe:
        return "empty"
    inner = ", ".join(
        f"{_literal(child)}: {{{','.join(map(str, atoms))}}}" for child, atoms in recipe
    )
    return "name{" + inner + "}"


def _collapse(recipe, atom: int) -> frozenset:
    """Two-valued reading of a recipe at one atom, straight from the definition."""
    return frozenset(_collapse(child, atom) for child, atoms in recipe if atom in atoms)


def _parse_literal(text: str):
    """Reads the ``empty`` / ``name{child: {atoms}, ...}`` text the CLI prints."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1

    def expect(s):
        nonlocal pos
        skip()
        if not text.startswith(s, pos):
            raise ValueError(f"expected {s!r} at {pos} in {text!r}")
        pos += len(s)

    def name():
        nonlocal pos
        skip()
        if text.startswith("empty", pos):
            pos += len("empty")
            return ()
        expect("name{")
        children = []
        skip()
        while not text.startswith("}", pos):
            child = name()
            expect(":")
            expect("{")
            end = text.index("}", pos)
            atoms = tuple(int(a) for a in text[pos:end].split(",") if a.strip())
            pos = end + 1
            children.append((child, atoms))
            skip()
            if text.startswith(",", pos):
                pos += 1
            skip()
        pos += 1
        return tuple(children)

    out = name()
    skip()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return out


def _rank(recipe) -> int:
    return 1 + max((_rank(c) for c, _ in recipe), default=-1)


def _formula(rng, n_names: int, depth: int, scope=()):
    """A bounded formula skeleton; terms are ('lit', name index) or ('var', v)."""

    def term():
        if scope and rng.random() < 0.5:
            return ("var", scope[int(rng.integers(len(scope)))])
        return ("lit", int(rng.integers(n_names)))

    if depth == 0:
        return ("=" if rng.random() < 0.5 else "in", term(), term())
    roll = rng.random()
    if roll < 0.15:
        return ("!", _formula(rng, n_names, depth - 1, scope))
    if roll < 0.45:
        op = ("&", "|", "->")[int(rng.integers(3))]
        return (op, _formula(rng, n_names, depth - 1, scope), _formula(rng, n_names, depth - 1, scope))
    var = f"v{len(scope)}"
    quant = "forall" if rng.random() < 0.5 else "exists"
    return (quant, var, term(), _formula(rng, n_names, depth - 1, scope + (var,)))


def _render(node, literals) -> str:
    def term(t):
        return literals[t[1]] if t[0] == "lit" else t[1]

    op = node[0]
    if op in ("=", "in"):
        return f"{term(node[1])} {op} {term(node[2])}"
    if op == "!":
        return f"!({_render(node[1], literals)})"
    if op in ("&", "|", "->"):
        return f"({_render(node[1], literals)} {op} {_render(node[2], literals)})"
    return f"({op} {node[1]} in {term(node[2])} . {_render(node[3], literals)})"


class BvmModel:
    """The Boolean-valued model path: names, truth values, mixing, formulas."""

    name = "bvm_model"
    setup_repeats = 5
    atom_counts = (8, 8, 16)
    cycle = len(atom_counts)
    cycles = 22
    traced_cycles = 2
    n_random = 32
    n_formulas = 50
    n_mixes = 6
    cli_atoms = 16
    # hereditarily finite sets for canonical_name: the ordinals 0..3 and four others
    hf_sets = ((), ((),), ((), ((),)), ((), ((),), ((), ((),))),
               ((), ((),)), (((),),), ((), (((),),)), (((), ((),)),))

    def generate(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"bvm_model-seed{seed}.json"
        n = self.cli_atoms
        path.write_text(json.dumps({"probs": [1.0 / n] * n, "blocks": [[a] for a in range(1, n + 1)]}))
        return SimpleNamespace(seed=seed, scenario=path)

    def setup(self, inputs):
        # the first steps of every CLI bvm command: ingest, then a Universe over the algebra
        scenario = condrisk.cli.ingest(str(inputs.scenario))
        return SimpleNamespace(
            inputs=inputs, universe=cr.Universe(scenario.space.algebra)
        )

    def counts(self, state) -> dict:
        return {}

    def prepare(self, state, job: int):
        m = self.atom_counts[job % len(self.atom_counts)]
        rng = np.random.default_rng([state.inputs.seed, 4, job])
        recipes = [_recipe(rng, m, 3, 3) for _ in range(self.n_random)]
        n_names = len(recipes) + len(self.hf_sets)
        partitions = []
        for _ in range(self.n_mixes):
            labels = rng.integers(0, int(rng.integers(2, 5)), m)
            parts = [tuple(int(a) + 1 for a in np.flatnonzero(labels == k)) for k in np.unique(labels)]
            partitions.append((parts, [int(i) for i in rng.integers(0, n_names, len(parts))]))
        formulas = [_formula(rng, n_names, 3) for _ in range(self.n_formulas)]
        wit = ("&", ("in", ("var", "x"), ("lit", int(rng.integers(n_names)))), _formula(rng, n_names, 1, ("x",)))
        wit_bound = tuple(int(i) for i in rng.choice(n_names, 2, replace=False))
        cli_x, cli_u = (_recipe(rng, self.cli_atoms, 2, 3) for _ in range(2))
        cli_names = [_recipe(rng, self.cli_atoms, 2, 2) for _ in range(2)]
        cut = int(rng.integers(1, self.cli_atoms))
        cli_parts = [tuple(range(1, cut + 1)), tuple(range(cut + 1, self.cli_atoms + 1))]
        scenario = str(state.inputs.scenario)
        return SimpleNamespace(
            m=m, recipes=recipes, partitions=partitions,
            formulas=formulas, wit=wit, wit_bound=wit_bound,
            cli_eval=(cli_x, cli_u, [
                "bvm", "eval", "(x in u) | (u = x)", "--scenario", scenario,
                "--bind", f"x={_literal(cli_x)}", "--bind", f"u={_literal(cli_u)}",
            ]),
            cli_mix=(cli_parts, cli_names, [
                "bvm", "mix", "--scenario", scenario,
                "--parts", ";".join("{" + ",".join(map(str, p)) + "}" for p in cli_parts),
                "--names", ";".join(_literal(r) for r in cli_names),
            ]),
        )

    def run(self, state, inp, mark):
        m = inp.m
        uni = cr.Universe(cr.BooleanAlgebra(m))
        alg = uni.algebra
        out = SimpleNamespace()

        def build(recipe):
            entries = {}
            for child_recipe, atoms in recipe:
                child = build(child_recipe)
                value = alg.element(atoms)
                entries[child] = entries[child] | value if child in entries else value
            return uni.make_name(entries)

        with mark("names"):
            names = [build(r) for r in inp.recipes]
            names += [cr.canonical_name(uni, hf) for hf in self.hf_sets]
            literals = [cr.name_to_literal(u) for u in names]
            out.roundtrip_ok = all(
                cr.parse_name_literal(text, uni) is u for text, u in zip(literals, names)
            )
        with mark("truth_pairs"):
            eq = [[uni.truth_eq(u, v) for v in names] for u in names]
            mem = [[uni.truth_in(u, v) for v in names] for u in names]
        with mark("collapse_check"):
            coll = [[cr.atom_collapse(u, a) for a in range(1, m + 1)] for u in names]
            mismatches = 0
            for i, ci in enumerate(coll):
                for j, cj in enumerate(coll):
                    eq_atoms, in_atoms = eq[i][j].atoms, mem[i][j].atoms
                    for a in range(m):
                        mismatches += ((a + 1) in eq_atoms) != (ci[a] == cj[a])
                        mismatches += ((a + 1) in in_atoms) != (ci[a] in cj[a])
            out.truth_mismatches = mismatches
        with mark("mix"):
            out.mix_bad = 0
            for parts, picks in inp.partitions:
                elems = [alg.element(p) for p in parts]
                chosen = [names[i] for i in picks]
                mixed = uni.mix(cr.PartitionOfUnity(elems), chosen)
                for elem, part, u in zip(elems, parts, chosen):
                    out.mix_bad += not (elem <= uni.truth_eq(mixed, u))
                    out.mix_bad += sum(
                        cr.atom_collapse(mixed, a) != cr.atom_collapse(u, a) for a in part
                    )
        with mark("formulas"):
            out.formula_mismatches = 0
            for skeleton in inp.formulas:
                formula = cr.parse(_render(skeleton, literals), uni)
                truth = cr.evaluate(formula)
                for a in range(1, m + 1):
                    out.formula_mismatches += (a in truth.atoms) != cr.collapse_eval(formula, a)
        with mark("witness"):
            one = alg.one
            bound = uni.make_name({names[i]: one for i in inp.wit_bound})
            formula = cr.parse(_render(inp.wit, literals), uni, free_names=["x"])
            out.witness = (formula, bound, cr.witness(formula, "x", bound))
        with mark("cli"):
            out.cli_eval = _run_cli(inp.cli_eval[2])
            out.cli_mix = _run_cli(inp.cli_mix[2])
        return out

    def check(self, state, inp, out):
        bad = []
        if not out.roundtrip_ok:
            bad.append("parse_name_literal(name_to_literal(u)) is not u")
        if out.truth_mismatches:
            bad.append(f"{out.truth_mismatches} truth values disagree with atom_collapse")
        if out.mix_bad:
            bad.append(f"{out.mix_bad} mix results break the defining bound")
        if out.formula_mismatches:
            bad.append(f"{out.formula_mismatches} formula values disagree with collapse_eval")
        formula, bound, w = out.witness
        for a in range(1, inp.m + 1):
            holds = cr.collapse_eval(formula, a, {"x": w})
            exists = any(
                cr.collapse_eval(formula, a, {"x": c}) for c, val in bound.entries if a in val.atoms
            )
            if holds != exists:
                bad.append(f"witness fails the maximum principle at atom {a}")
        x, u, _ = inp.cli_eval
        code, payload = out.cli_eval
        expect = [
            a for a in range(1, self.cli_atoms + 1)
            if _collapse(x, a) in _collapse(u, a) or _collapse(x, a) == _collapse(u, a)
        ]
        if code != 0 or payload != {"truth": expect}:
            bad.append(f"bvm eval printed {payload} (exit {code}), expected {expect}")
        parts, picks, _ = inp.cli_mix
        code, payload = out.cli_mix
        if code != 0 or payload is None:
            bad.append(f"bvm mix exit code {code}")
        else:
            mixed = _parse_literal(payload["name"])
            if payload["rank"] != _rank(mixed) or any(
                _collapse(mixed, a) != _collapse(r, a) for part, r in zip(parts, picks) for a in part
            ):
                bad.append("bvm mix output breaks the defining bound")
        return bad


WORKLOADS = {w.name: w for w in (EvalLarge, VerifyMix, BvmModel)}
