"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import dataclasses
import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import condrisk as cr
from _helpers import random_formula, random_name, user_entropic
from condrisk import duality

LOG2 = math.log(2.0)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _builtins(space):
    return (
        cr.cond_entropic(space, 1.0),
        cr.cond_worst_case(space),
        cr.neg_cond_expectation(space),
        cr.cond_avar(space, 0.5),
    )


def test_criterion_1_duality_closure(s4, space8):
    with criterion(1, "duality closure"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for space in (s4, space8):
            payoffs = [
                cr.RandomVariable(rng.normal(0.0, 2.0, space.n_atoms)) for _ in range(20)
            ]
            for measure in _builtins(space):
                report = cr.verify_representation(measure, payoffs, tol=1e-6)
                assert report.attained_all, measure.label
                for entry in report.entries:
                    assert np.all(np.abs(entry.gap) <= 1e-6)
                    assert entry.maximizer.is_admissible(space)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"duality closure took {elapsed:.2f}s"


def test_criterion_2_fenchel_consistency(s4):
    with criterion(2, "fenchel consistency"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        duals = [cr.admissible_dual(s4, rng.uniform(0.05, 2.5, 4)) for _ in range(46)]
        # mean shifted off -1 on one block and a cap-breaking density
        duals.append(cr.DualVariable([-0.5, -0.5, -1.0, -1.0]))
        duals.append(cr.DualVariable([-3.0, -1.0, -1.0, -1.0]))
        duals.append(cr.DualVariable([-2.0, 0.0, -1.0, -1.0]))
        duals.append(cr.DualVariable([-4.0, 0.0, -2.0, 0.0]))
        for measure in _builtins(s4):
            report = cr.fenchel_consistency(measure, duals, tol=1e-6)
            assert report.infinities_agree, measure.label
            assert report.passed, (measure.label, report.max_deviation)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"fenchel consistency took {elapsed:.2f}s"


def test_criterion_3_factorization_oracle():
    with criterion(3, "factorization oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        universes = [cr.Universe(cr.BooleanAlgebra(m)) for m in (1, 2, 3)]
        mismatches = 0
        for i in range(50):
            uni = universes[i % 3]
            u = random_name(uni, rng, 3)
            v = random_name(uni, rng, 3)
            eq = cr.truth_atomic(u, v, "eq")
            member = cr.truth_atomic(u, v, "elem")
            for atom in range(1, uni.algebra.atom_count + 1):
                cu, cv = cr.atom_collapse(u, atom), cr.atom_collapse(v, atom)
                if (atom in eq.atoms) != (cu == cv):
                    mismatches += 1
                if (atom in member.atoms) != (cu in cv):
                    mismatches += 1
        assert mismatches == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"factorization oracle took {elapsed:.2f}s"


def test_criterion_4_mixing_principle():
    with criterion(4, "mixing principle"):
        rng = np.random.default_rng(104)
        for m in (2, 3):
            alg = cr.BooleanAlgebra(m)
            uni = cr.Universe(alg)
            partitions = list(cr.iter_partitions(alg))
            for _ in range(10):
                partition = partitions[rng.integers(0, len(partitions))]
                names = [random_name(uni, rng, 3) for _ in partition]
                mixed = uni.mix(partition, names)
                for part, name in zip(partition, names):
                    assert part <= uni.truth_eq(mixed, name)
                remixed = uni.mix(partition, [mixed] * len(partition))
                assert remixed.canonical_id == mixed.canonical_id
                assert remixed is mixed


def test_criterion_5_interpretation_maps(s4):
    with criterion(5, "interpretation maps"):
        report = cr.verify_interp_props(s4, samples=100, seed=105)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert [c.name for c in report.checks] == ["real_truth_joins", "mixing", "l1_truth_joins"]


def test_criterion_6_axiom_suite(s4):
    with criterion(6, "axiom suite"):
        start = time.perf_counter()
        for measure in _builtins(s4):
            for axiom in cr.AXIOMS:
                report = cr.check_axiom(measure, axiom, trials=1000, seed=106)
                assert report.passed, (measure.label, axiom, report.counterexample)

        def broken_ev(x):
            mu = s4.cond_expect(x)
            return cr.ConditionalValue(-mu.values - 0.1 * np.sign(mu.values))

        broken = cr.CondRiskMeasure(s4, broken_ev, "broken_sign")
        report = cr.check_axiom(broken, "convexity", trials=1000, seed=106)
        assert not report.passed
        ce = report.counterexample
        assert ce is not None
        assert ce["lhs"] > ce["rhs"] + 1e-9  # a concrete violated inequality
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"axiom suite took {elapsed:.2f}s"


def test_avar_batch_budget_on_a_large_space():
    # runtime gate in the style of criterion 6: 1e5 atoms in 1e3 uneven,
    # shuffled blocks, 16 rows in one evaluate_batch call
    rng = np.random.default_rng(108)
    weights = rng.uniform(0.0, 1.0, 1000) ** 1.5
    sizes = 1 + rng.multinomial(100_000 - 1000, weights / weights.sum())
    blocks = np.split(rng.permutation(100_000) + 1, np.cumsum(sizes)[:-1])
    probs = rng.uniform(0.5, 2.0, 100_000)
    space = cr.FiniteProbSpace(probs / probs.sum(), [b.tolist() for b in blocks])
    xs = rng.normal(0.0, 2.0, (16, 100_000))
    start = time.perf_counter()
    risks = cr.cond_avar(space, 0.3).evaluate_batch(xs)
    elapsed = time.perf_counter() - start
    assert risks.shape == (16, 1000) and np.all(np.isfinite(risks))
    assert elapsed < 1.0, f"avar batch took {elapsed:.2f}s"


def test_space_build_budget_on_a_large_space():
    # runtime gate in the style of criterion 6: 1e5 atoms in 1e3 uneven,
    # shuffled blocks given as lists of Python ints, as the benchmark's
    # eval_large set-up passes them; the best of three builds
    rng = np.random.default_rng(113)
    weights = rng.uniform(0.0, 1.0, 1000) ** 1.5
    sizes = 1 + rng.multinomial(100_000 - 1000, weights / weights.sum())
    blocks = [b.tolist() for b in np.split(rng.permutation(100_000) + 1, np.cumsum(sizes)[:-1])]
    probs = rng.uniform(0.5, 2.0, 100_000)
    probs /= probs.sum()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        space = cr.FiniteProbSpace(probs, blocks)
        times.append(time.perf_counter() - start)
    assert space.n_blocks == 1000 and np.array_equal(np.sort(space.order), np.arange(100_000))
    assert min(times) < 0.02, f"building the space took {min(times):.4f}s"


def test_sublevel_check_budget_at_its_cap():
    # runtime gate in the style of criterion 6: 12 shuffled blocks of 3 atoms
    # and 5 members, so the mixing walk passes its cap and takes a covering
    # array (100 of 5^12 choices), with the penalty map of a built-in as f
    rng = np.random.default_rng(109)
    blocks = np.split(rng.permutation(36) + 1, 12)
    probs = rng.uniform(0.5, 2.0, 36)
    space = cr.FiniteProbSpace(probs / probs.sum(), [b.tolist() for b in blocks])
    probes = [cr.RandomVariable(-np.ones(36))] + [
        cr.RandomVariable(cr.admissible_dual(space, rng.uniform(0.2, 1.8, 36)).values)
        for _ in range(4)
    ]
    for measure in (cr.cond_worst_case(space), cr.cond_avar(space, 0.3), cr.cond_entropic(space, 1.0)):
        f = cr.penalty_map(measure)
        eta = cr.ConditionalValue(np.max([f(p).values for p in probes], axis=0) + 1.0)
        start = time.perf_counter()
        report = cr.stable_sublevel_check(space, f, eta, probes)
        elapsed = time.perf_counter() - start
        assert report.members == 5 and report.mixing_closure_passed, measure.label
        assert all(report.inf_compact_per_block), measure.label
        assert any("covering array of 100 of the 5^12 choices" in note for note in report.notes)
        assert elapsed < 0.15, f"sublevel check of {measure.label} took {elapsed:.2f}s"


def test_transfer_suite_budget_on_1000_blocks():
    # runtime gate in the style of criterion 6: 1,000 shuffled blocks of 3
    # atoms, three payoffs, items 1, 3-5 and 7; the classical side is one
    # stacked run for the one block size: the built-in's dense kernel, and
    # for a user copy of it the copy padded into the whole space
    rng = np.random.default_rng(112)
    blocks = np.split(rng.permutation(3000) + 1, 1000)
    probs = rng.uniform(0.5, 2.0, 3000)
    space = cr.FiniteProbSpace(probs / probs.sum(), [b.tolist() for b in blocks])
    payoffs = [cr.RandomVariable(rng.normal(0.0, 2.0, 3000)) for _ in range(3)]
    builtins = _builtins(space)
    for measure in builtins + tuple(dataclasses.replace(m) for m in builtins):
        start = time.perf_counter()
        report = cr.transfer_verify(measure, [1, 3, 4, 5, 7], payoffs)
        elapsed = time.perf_counter() - start
        assert report.all_equivalences_hold, measure.label
        for item in report.items.values():
            assert item.conditional and all(item.per_atom), (measure.label, item.name)
        assert elapsed < 1.0, f"transfer_verify of {measure.label} on 1,000 blocks took {elapsed:.2f}s"


def test_exact_dual_budget_on_many_blocks():
    # runtime gate in the style of criterion 6: 1,000 shuffled blocks of 3
    # atoms, one payoff, every block solved by the built-in's dual oracle
    rng = np.random.default_rng(110)
    blocks = np.split(rng.permutation(3000) + 1, 1000)
    probs = rng.uniform(0.5, 2.0, 3000)
    space = cr.FiniteProbSpace(probs / probs.sum(), [b.tolist() for b in blocks])
    x = cr.RandomVariable(rng.normal(0.0, 2.0, 3000))
    for measure in _builtins(space):
        start = time.perf_counter()
        result = cr.dual_representation(measure, x)
        elapsed = time.perf_counter() - start
        assert all(result.converged), measure.label
        assert elapsed < 0.1, f"dual representation of {measure.label} took {elapsed:.3f}s"


def _shuffled_blocks(seed: int, blocks: int, k: int):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.5, 2.0, blocks * k)
    order = np.split(rng.permutation(blocks * k) + 1, blocks)
    return rng, cr.FiniteProbSpace(probs / probs.sum(), [b.tolist() for b in order])


def test_fenchel_consistency_budget_on_1000_blocks():
    # runtime gate in the style of criterion 6: 1,000 shuffled blocks of 3
    # atoms, three admissible duals; the classical column is one grid search
    # on the stack of the one block size, its 3,000 pairs in lockstep
    rng, space = _shuffled_blocks(113, 1000, 3)
    duals = [cr.admissible_dual(space, rng.uniform(0.2, 1.8, 3000)) for _ in range(3)]
    start = time.perf_counter()
    report = cr.fenchel_consistency(cr.cond_entropic(space, 1.3), duals)
    elapsed = time.perf_counter() - start
    assert report.passed and len(report.comparisons) == 3000
    assert elapsed < 2.0, f"fenchel_consistency on 1,000 blocks took {elapsed:.2f}s"


def test_fenchel_consistency_memory_on_1000_five_atom_blocks():
    # the stacked search maps the unit grid onto the blocks a chunk of points
    # at a time and polishes a chunk of dual rows at a time, so the 625-point
    # grid on 1,000 blocks of 5 atoms (25 MB at once) is never held whole
    rng, space = _shuffled_blocks(114, 1000, 5)
    duals = [cr.admissible_dual(space, rng.uniform(0.2, 1.8, 5000)) for _ in range(3)]
    measure = cr.cond_entropic(space, 1.3)
    tracemalloc.start()
    try:
        report = cr.fenchel_consistency(measure, duals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16e6, f"fenchel_consistency on 1,000 blocks of 5 atoms peaked at {peak / 1e6:.1f} MB"


def test_user_dual_budget_on_300_blocks():
    # runtime gate in the style of criterion 6: a copy of the entropic
    # measure without its closed form on 300 shuffled blocks of 3 atoms; each
    # candidate dual is graded by one grid search on the stack of the blocks
    # still short
    rng, space = _shuffled_blocks(115, 300, 3)
    copy = dataclasses.replace(cr.cond_entropic(space, 1.3), closed_form_penalty=None)
    x = cr.RandomVariable(rng.normal(0.0, 2.0, 900))
    start = time.perf_counter()
    result = cr.dual_representation(copy, x)
    elapsed = time.perf_counter() - start
    assert all(result.converged) and result.warnings == []
    assert elapsed < 1.0, f"user dual representation on 300 blocks took {elapsed:.2f}s"


def test_user_dual_budget_on_two_five_atom_blocks():
    # runtime gate in the style of criterion 6: a user measure's dual comes
    # from one batch of differences and one grid conjugate per block
    rng = np.random.default_rng(111)
    probs = rng.uniform(0.5, 2.0, 10)
    space = cr.FiniteProbSpace(probs / probs.sum(), [[1, 3, 5, 7, 9], [2, 4, 6, 8, 10]])
    user = user_entropic(space, 1.0)
    for _ in range(5):
        x = cr.RandomVariable(rng.normal(0.0, 2.0, 10))
        start = time.perf_counter()
        result = cr.dual_representation(user, x)
        elapsed = time.perf_counter() - start
        assert all(result.converged) and result.warnings == []
        assert np.all(np.abs(user.evaluate(x).values - result.value.values) <= duality.ASCENT_GAP_TOL)
        assert elapsed < 0.1, f"user dual representation took {elapsed:.3f}s"


def test_user_dual_at_the_benchmark_point_never_climbs():
    # the shape of the benchmark's user request: entropic, gamma 1, one
    # nonuniform 3-atom block, x = (-1, 2, 0.5), with the search configuration
    # it passes; the first candidate, the differences at x, is accepted
    space = cr.FiniteProbSpace([0.2, 0.5, 0.3], [[1, 2, 3]])
    user = user_entropic(space, 1.0)
    x = cr.RandomVariable([-1.0, 2.0, 0.5])
    differences = mock.Mock(wraps=duality._difference_duals)
    with mock.patch.object(duality, "_difference_duals", differences), mock.patch.object(
        duality, "_fallback_duals", side_effect=AssertionError("fallback")
    ):
        result = cr.dual_representation(user, x, cr.DualSearchConfig(max_iters=60))
    assert differences.call_count == 1
    assert result.converged == [True] and result.warnings == []
    assert result.maximizer.is_admissible(space)
    assert abs(user.evaluate(x).values[0] - result.value.values[0]) <= duality.ASCENT_GAP_TOL


def test_criterion_7_young_holder(s4):
    with criterion(7, "young and holder"):
        phi = cr.young_power(2)
        psi = cr.young_conjugate(phi)
        phi2 = cr.young_conjugate(psi, r_grid=np.geomspace(1e-3, 12.0, 48))
        worst = max(abs(phi2(t) - phi(t)) for t in np.linspace(0.0, 10.0, 101))
        assert worst <= 2e-6, worst

        rng = np.random.default_rng(107)
        for p in (1.0, 2.0, 4.0):
            q = cr.holder_conjugate(p)
            sp, sq = cr.ModuleSpec.lp(p), cr.ModuleSpec.lp(q)
            for _ in range(34):
                x = cr.RandomVariable(rng.normal(0.0, 2.0, 4))
                y = cr.RandomVariable(rng.normal(0.0, 2.0, 4))
                lhs = s4.cond_expect(abs(x * y)).values
                rhs = (
                    cr.module_gauge(sp, x, s4).values
                    * cr.module_gauge(sq, y, s4).values
                )
                assert np.all(lhs <= rhs + 1e-9)


def test_criterion_8_transfer_equivalences(s4):
    with criterion(8, "transfer equivalences"):
        rng = np.random.default_rng(108)
        payoffs = [cr.RandomVariable(rng.normal(0.0, 2.0, 4)) for _ in range(8)]
        for measure in _builtins(s4):
            report = cr.transfer_verify(measure, [1, 3, 4, 5, 7], payoffs)
            assert report.all_equivalences_hold, measure.label
            for item in report.items.values():
                assert item.conditional and all(item.per_atom), (measure.label, item.name)

        base = cr.cond_entropic(s4, 1.0)

        def tilt_ev(x):
            vals = base.evaluate(x).values.copy()
            vals[0] += 0.1 * (x.values[0] - x.values[1])
            return cr.ConditionalValue(vals)

        tilted = cr.CondRiskMeasure(s4, tilt_ev, "tilted")
        item = cr.transfer_verify(tilted, [5], payoffs).items[5]
        assert not item.conditional
        assert item.per_atom == [False, True]  # exactly the tilted atom fails
        assert item.equivalence


def test_criterion_9_formula_evaluator(u2):
    with criterion(9, "formula evaluator"):
        rng = np.random.default_rng(109)
        mismatches = 0
        for _ in range(100):
            formula = random_formula(u2, rng, 2)
            truth = cr.evaluate(formula)
            for atom in (1, 2):
                if (atom in truth.atoms) != cr.collapse_eval(formula, atom):
                    mismatches += 1
        assert mismatches == 0

        corpus = [random_formula(u2, rng, 2) for _ in range(20)]
        for formula in corpus:
            text = cr.print_formula(formula)
            again = cr.parse(text, u2, free_names=cr.free_variables(formula))
            assert again == formula


def test_cold_truth_budget_on_all_pairs():
    # runtime gate in the style of criterion 6: every ordered pair of 120
    # rank-4 names on 16 atoms (328 names registered), on a cold universe
    uni = cr.Universe(cr.BooleanAlgebra(16))
    rng = np.random.default_rng(7)
    names = [random_name(uni, rng, 4) for _ in range(120)]
    start = time.perf_counter()
    for u in names:
        for v in names:
            uni.truth_eq(u, v)
            uni.truth_in(u, v)
    elapsed = time.perf_counter() - start
    assert repr(uni) == "Universe(atoms=16, names=328)"
    assert elapsed < 0.1, f"cold truth values of all pairs took {elapsed:.3f}s"


def test_formula_parse_budget_on_long_literals():
    # runtime gate in the style of criterion 6: two rank-3 literals on 16 atoms
    # (666 and 579 characters), each spelled 200 times in 100 conjuncts
    algebra = cr.BooleanAlgebra(16)
    source = cr.Universe(algebra)
    big, small = (random_name(source, np.random.default_rng(seed), 3, 4) for seed in (360, 143))
    lit_big, lit_small = cr.name_to_literal(big), cr.name_to_literal(small)
    assert big.rank == small.rank == 3 and (len(lit_big), len(lit_small)) == (666, 579)
    text = " & ".join(
        [f"({lit_big} = {lit_small} | {lit_small} in {lit_big})"] * 100
    )
    uni = cr.Universe(algebra)
    start = time.perf_counter()
    formula = cr.parse(text, uni)
    elapsed = time.perf_counter() - start
    last = formula.right.left
    assert last.left.name.collapses == big.collapses
    assert last.right.name.collapses == small.collapses
    assert elapsed < 0.12, f"parsing {len(text)} characters took {elapsed:.3f}s"


def test_cold_literal_round_trip_budget():
    # runtime gate in the style of criterion 6: the names of a bvm_model job,
    # 40 names of rank <= 3 on 16 atoms (4,024 characters of literals), read
    # back into a fresh universe, the best of three; 1.9-2.2 ms each on the
    # 2-vCPU host the benchmark runs on, against a budget of 10 ms
    algebra = cr.BooleanAlgebra(16)
    source = cr.Universe(algebra)
    rng = np.random.default_rng(45)
    names = [random_name(source, rng, 3, 3) for _ in range(40)]
    literals = [cr.name_to_literal(u) for u in names]
    assert max(u.rank for u in names) == 3 and sum(map(len, literals)) == 4024
    times = []
    for _ in range(3):
        uni = cr.Universe(algebra)
        start = time.perf_counter()
        read = [cr.parse_name_literal(text, uni) for text in literals]
        times.append(time.perf_counter() - start)
        assert [u.collapses for u in read] == [u.collapses for u in names]
    assert min(times) < 0.01, f"reading 40 literals into a fresh universe took {min(times):.4f}s"


def test_criterion_10_cli(tmp_path, capsys, monkeypatch):
    with criterion(10, "cli"):
        from condrisk.cli import main

        path = tmp_path / "s4.json"
        path.write_text(
            json.dumps(
                {
                    "probs": [0.25, 0.25, 0.25, 0.25],
                    "blocks": [[1, 2], [3, 4]],
                    "measures": [
                        {"kind": "entropic", "gamma": [1.0, 1.0]},
                        {"kind": "worst_case"},
                    ],
                    "payoffs": [[-LOG2, -LOG2, 0.0, 0.0], [1, 3, 2, 6]],
                }
            )
        )
        scenario = str(path)

        def run(argv):
            code = main(argv)
            return code, json.loads(capsys.readouterr().out.strip())

        code, out = run(["space", "validate", "--scenario", scenario])
        assert (code, out) == (0, {"atoms": 4, "blocks": 2})

        code, out = run(
            ["risk", "eval", "--scenario", scenario, "--measure", "entropic", "--payoff", "0"]
        )
        assert code == 0 and out == [0.69314718056, 0.0]

        code, out = run(
            ["dual", "penalty", "--scenario", scenario, "--measure", "worst_case",
             "--y", "[-0.5,-0.5,-1,-1]"]
        )
        assert code == 0 and out["penalty"] == ["inf", 0.0]

        code, out = run(
            ["dual", "represent", "--scenario", scenario, "--measure", "entropic"]
        )
        assert code == 0 and out["passed"] is True
        assert set(out["entries"][0]) == {
            "payoff", "direct", "dual", "gap", "maximizer", "attained",
        }

        code, out = run(
            ["bvm", "eval", "forall x in u . x = empty", "--scenario", scenario,
             "--bind", "u=name{empty:{1}}"]
        )
        assert code == 0 and out == {"truth": [1, 2]}

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"probs": [0.5, 0.4], "blocks": [[1], [2]]}))
        code, out = run(["space", "validate", "--scenario", str(bad)])
        assert code == 2 and out["error"] == "probs sum 0.9"

        # a built-in's exact dual attains rho(x) to rounding; the user
        # route's candidates, with the oracle route off, fall short of an
        # absurd tolerance
        monkeypatch.setattr(cr.duality, "_exact_duals", lambda *args: None)
        code, out = run(
            ["dual", "represent", "--scenario", scenario, "--measure", "entropic",
             "--payoff", "1", "--tol", "1e-18"]
        )
        assert code == 1 and out["passed"] is False
