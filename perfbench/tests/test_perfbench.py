"""Tests of the benchmark's own code: generators, tracing, failure counting.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import importlib
import inspect
import sys

import numpy as np
import pytest

import condrisk
import harness
import tracing
import workloads


def _small_eval():
    return workloads.EvalLarge(n_atoms=3000, n_blocks=30, sampled_blocks=5)


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dict__") and not inspect.isroutine(a):
        return _same(vars(a), vars(b))
    return a == b


# -- generators ----------------------------------------------------------------------


def test_eval_large_inputs_repeat_for_a_seed(tmp_path):
    wl = _small_eval()
    a, b = wl.generate(5, tmp_path), wl.generate(5, tmp_path)
    assert _same(a.ref.probs, b.ref.probs) and _same(a.ref.members, b.ref.members)
    state = wl.setup(a)
    assert _same(wl.prepare(state, 3), wl.prepare(state, 3))
    assert not _same(wl.prepare(state, 3).xs, wl.prepare(state, 4).xs)
    assert not _same(wl.generate(6, tmp_path).ref.probs, a.ref.probs)
    sizes = [m.size for m in a.ref.members]
    assert min(sizes) >= 1 and sum(sizes) == wl.n_atoms
    # atoms are shuffled across blocks, so block index arrays are not ranges
    assert any(np.any(np.diff(np.sort(m)) != 1) for m in a.ref.members if m.size > 1)


def test_verify_mix_inputs_repeat_for_a_seed(tmp_path):
    wl = workloads.VerifyMix()
    a = wl.generate(5, tmp_path / "a")
    b = wl.generate(5, tmp_path / "b")
    for key in a.files:
        assert a.files[key].read_text() == b.files[key].read_text()
    assert _same(a.penalty_y, b.penalty_y) and _same(a.user_x, b.user_x)
    assert _same(a.fenchel_duals, b.fenchel_duals)
    assert a.interp_seed == b.interp_seed
    assert not _same(wl.generate(6, tmp_path / "c").penalty_y, a.penalty_y)


def test_bvm_model_inputs_repeat_for_a_seed(tmp_path):
    wl = workloads.BvmModel()
    state = wl.setup(wl.generate(5, tmp_path))
    for job in range(3):
        a, b = wl.prepare(state, job), wl.prepare(state, job)
        assert (a.recipes, a.formulas, a.partitions, a.wit) == (b.recipes, b.formulas, b.partitions, b.wit)
        assert a.cli_eval[2] == b.cli_eval[2] and a.cli_mix[2] == b.cli_mix[2]
    assert [wl.prepare(state, j).m for j in range(3)] == [8, 8, 16]


def test_literal_reader_inverts_the_writer():
    rng = np.random.default_rng(0)
    for _ in range(50):
        recipe = workloads._recipe(rng, 6, 3, 3)
        text = workloads._literal(recipe)
        back = workloads._parse_literal(text)
        assert all(
            workloads._collapse(back, a) == workloads._collapse(recipe, a) for a in range(1, 7)
        )


# -- self time ----------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # root [0,10] has children a [1,4] and b [5,9]; a has child c [2,3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert np.allclose(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_layer_values_sum_self_time_per_job(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 9.0, 10.0, 11.0, 12.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tr = tracing.Tracer()
    outer = tr.intern("transfer.transfer_verify")
    inner = tr.intern("riskcore.check_axiom")
    with tr.scope(0):
        i = tr.open(outer)    # [0, 10]
        j = tr.open(inner)    # [1, 3]
        tr.close(j)
        k = tr.open(inner)    # [4, 9]
        tr.close(k)
        tr.close(i)
    with tr.scope(1):
        m = tr.open(inner)    # [11, 12]
        tr.close(m)
    out = tracing.layer_values("verify_mix", tr, 2, overhead_ms=0.5)
    assert out["transfer.transfer_verify_ms"] == (pytest.approx(1e3 * 3.0 / 2), "ms")
    assert out["riskcore.check_axiom_ms"] == (pytest.approx(1e3 * 8.0 / 2), "ms")
    assert out["trace_overhead_ms.verify_mix"] == (0.5, "ms")


# -- failures are counted -------------------------------------------------------------


def _measure(wl, tmp_path, cycles=1):
    state = wl.setup(wl.generate(2, tmp_path))
    return harness.measure(wl, state, cycles)


def test_clean_jobs_pass(tmp_path):
    res = _measure(_small_eval(), tmp_path, cycles=3)
    assert (res.attempted, res.failed, len(res.latencies)) == (3, 0, 3)


def test_scaling_to_the_reference_speed():
    ref = harness.CAL_REF_S
    assert harness.scaled(0.3, ref, ref) == pytest.approx(0.3)
    assert harness.scaled(0.3, 2 * ref, 2 * ref) == pytest.approx(0.15)  # host at half speed
    assert harness.scaled(0.3, ref, 3 * ref) == pytest.approx(0.15)  # the mean of both sides
    assert harness.calibrate() > 0


def test_clean_jobs_are_scaled(tmp_path):
    res = _measure(_small_eval(), tmp_path, cycles=2)
    assert len(res.latencies) == len(res.raw_latencies) == len(res.scale) == 2
    assert res.latencies == [t * f for t, f in zip(res.raw_latencies, res.scale)]
    assert all(s > 0 for s in res.latencies)


def test_tail_needs_ten_jobs_beyond_it():
    with pytest.raises(ValueError):
        harness.tail([0.1] * harness.TAIL_BEYOND)
    lat = [float(i) for i in range(40, 0, -1)]
    assert harness.tail(lat) == (30.0, 75.0)  # 31..40 lie beyond it


def test_corrupted_output_counts_as_failed_job(tmp_path):
    class Corrupt(workloads.EvalLarge):
        def run(self, state, inp, mark):
            out = super().run(state, inp, mark)
            out.batch["avar"][3, 7] += 1e-6
            return out

    res = _measure(Corrupt(n_atoms=3000, n_blocks=30, sampled_blocks=30), tmp_path)
    assert (res.attempted, res.failed, res.latencies) == (1, 1, [])
    assert "avar" in res.problems[0]


def test_raising_job_counts_as_failed_job(tmp_path):
    class Raises(workloads.EvalLarge):
        def run(self, state, inp, mark):
            raise condrisk.CondriskError("boom")

    res = _measure(Raises(n_atoms=3000, n_blocks=30), tmp_path)
    assert (res.attempted, res.failed) == (1, 1)


def test_wrong_cli_exit_code_counts_as_failed_job(tmp_path):
    wl = workloads.VerifyMix()
    state = wl.setup(wl.generate(2, tmp_path))
    job = ("represent", "space8", "entropic")
    assert wl.check(state, job, wl.run(state, job, harness._no_mark)) == []
    assert wl.check(state, job, (1, {"passed": False})) != []
    bad = ("penalty", "space8", "avar")
    code, payload = wl.run(state, bad, harness._no_mark)
    payload["penalty"][0] = 0.0 if payload["penalty"][0] == "inf" else "inf"
    assert wl.check(state, bad, (code, payload)) != []


# -- tracing is removed again -----------------------------------------------------------


def _snapshot():
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "condrisk" or name.startswith("condrisk."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_wrappers_restore_the_original_functions():
    for t in tracing.TARGETS:
        importlib.import_module(f"condrisk.{t.module}")
    before = _snapshot()
    tr = tracing.Tracer()
    with tracing.traced(tr):
        during = _snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("condrisk.cli", "transfer_verify") in changed
        assert ("condrisk", "penalty_of") in changed
        assert ("condrisk.boolalg", "BoolElem", "__and__") in changed
        assert ("condrisk.probspace", "FiniteProbSpace", "cond_expect") in changed
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_spans_and_counts_only_inside_a_job(tmp_path):
    wl = _small_eval()
    inputs = wl.generate(2, tmp_path)
    tr = tracing.Tracer()
    with tracing.traced(tr):
        state = wl.setup(inputs)
        assert len(tr.start) == 0
        res = harness.measure(wl, state, 1, tr)
        assert res.failed == 0
        wl.run(state, wl.prepare(state, 9), harness._no_mark)  # outside any job
    spans = len(tr.start)
    assert spans > 0 and set(tr.job) == {0}
    assert tr.counts == {"riskcore.evaluate_calls": 4}
    wl.run(state, wl.prepare(state, 9), harness._no_mark)
    assert len(tr.start) == spans
