"""Closed-loop measurement: set-up timing, the job loop, statistics, traced run."""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import condrisk
from tracing import SETUP_JOB, Tracer, layer_values, traced
from workloads import WORKLOADS

TAIL_BEYOND = 10

# The host is a few vCPUs of a shared machine whose speed swings by up to 1.8x
# for stretches of seconds to minutes, in CPU time as well as wall time.  Every
# timed interval is therefore scaled to a reference speed: a fixed kernel that
# runs no condrisk code is timed just before and just after the interval, and
# the interval is multiplied by CAL_REF_S over the mean of those two times.
# CAL_REF_S is the kernel's time in the host's fast state (2-vCPU Xeon, quiet).
CAL_REF_S = 0.007
_CAL_ARRAY = np.arange(1_000_000.0)


def calibrate() -> float:
    """Wall time of the calibration kernel: interpreter work, small numpy calls, one 8 MB pass."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(18_000):
        table[i & 63] = acc
        acc += len(str(i)) + table.get(i & 31, 0) % 7
    a = b = np.arange(8.0)
    for _ in range(1200):
        b = np.maximum(a, b[::-1]) + 1.0
    float(np.sum(np.sqrt(_CAL_ARRAY)))
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the kernel's times around it."""
    return seconds * CAL_REF_S / (0.5 * (before + after))


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # scaled to the reference speed
    raw_latencies: list = field(default_factory=list)  # as measured
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)  # scaled
    scale: list = field(default_factory=list)  # the factor applied to each job's latency
    wall_s: float = 0.0

    def fail(self, job: int, problems) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"job {job}: " + "; ".join(problems[:3]))


def _no_mark(name):
    return contextlib.nullcontext()


def time_setup(workload, inputs, repeats: int, tracer: Tracer | None = None):
    """Scaled wall times of ``repeats`` set-ups, and the state of the last one."""
    times = []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        scope = tracer.scope(SETUP_JOB) if tracer else contextlib.nullcontext()
        before = calibrate()
        t0 = time.perf_counter()
        with scope:
            state = workload.setup(inputs)
        dt = time.perf_counter() - t0
        times.append(scaled(dt, before, calibrate()))
    return times, state


def measure(
    workload,
    state,
    cycles: int,
    tracer: Tracer | None = None,
    *,
    warmup: bool = False,
    setup_inputs=None,
) -> LoopResult:
    """Run ``cycles`` whole cycles of jobs back to back.

    The job count is fixed by the workload, not by a deadline, so the rank
    that ``tail`` reads is the same on every commit.  Only ``run`` is timed.
    Each latency is scaled by the calibration kernel as timed after the
    previous job (or before the first) and after this job's check and
    ``gc.collect``.  A job fails when it raises or when ``check`` reports a
    mismatch, and a failed job adds no latency.

    With ``warmup`` the first ``warmup_jobs`` jobs of a cycle (all of it by
    default) run untimed, and timing starts at the next cycle, so that the
    interpreter's specialization of hot code and the allocator's pools are
    settled before timing.  With ``setup_inputs``, ``workload.setup_repeats``
    extra set-ups are timed after every cycle (their states are dropped), so
    that the set-up samples are spread over the run like the jobs are, not
    bunched where a burst of load from other processes could cover all of them.
    """
    mark = tracer.mark if tracer else _no_mark
    first = 0
    if warmup:
        for job in range(getattr(workload, "warmup_jobs", workload.cycle)):
            with contextlib.suppress(Exception):  # the timed jobs report failures
                workload.run(state, workload.prepare(state, job), mark)
        first = workload.cycle
        gc.collect()
    res = LoopResult()
    start = time.perf_counter()
    before = calibrate()
    for job in range(first, first + cycles * workload.cycle):
        inp = workload.prepare(state, job)
        res.attempted += 1
        scope = tracer.scope(job) if tracer else contextlib.nullcontext()
        try:
            t0 = time.perf_counter()
            with scope:
                out = workload.run(state, inp, mark)
            dt = time.perf_counter() - t0
            problems = workload.check(state, inp, out)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        out = None
        gc.collect()
        after = calibrate()
        res.scale.append(scaled(1.0, before, after))
        if problems:
            res.fail(job, problems)
        else:
            res.raw_latencies.append(dt)
            res.latencies.append(dt * res.scale[-1])
        before = after
        if setup_inputs is not None and (job + 1) % workload.cycle == 0:
            res.setup_times += time_setup(workload, setup_inputs, workload.setup_repeats)[0]
    res.wall_s = time.perf_counter() - start
    return res


def tail(latencies) -> tuple:
    """Latency at the highest percentile with at least TAIL_BEYOND jobs beyond it."""
    lat = sorted(latencies)
    if len(lat) <= TAIL_BEYOND:
        raise ValueError(f"{len(lat)} jobs leave no percentile with {TAIL_BEYOND} beyond it")
    k = len(lat) - TAIL_BEYOND - 1
    return lat[k], 100.0 * (k + 1) / len(lat)


def end_to_end(name: str, seed: int, workdir: Path) -> dict:
    workload = WORKLOADS[name]()
    inputs = workload.generate(seed, workdir)
    first, state = time_setup(workload, inputs, 1)
    res = measure(workload, state, workload.cycles, warmup=True, setup_inputs=inputs)
    setup_s = statistics.median(first + res.setup_times)
    report = {
        "workload": name,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "wall_s": res.wall_s,
        "setup_samples": 1 + len(res.setup_times),
        "scale_median": statistics.median(res.scale),
        "raw_p50_ms": 1e3 * statistics.median(res.raw_latencies) if res.raw_latencies else None,
        "metrics": {},
    }
    if len(res.latencies) <= TAIL_BEYOND:
        report["problems"].append(f"only {len(res.latencies)} jobs completed; job_tail_ms needs {TAIL_BEYOND + 1}")
        return report
    tail_ms, tail_pct = tail(res.latencies)
    report["tail_percentile"] = tail_pct
    report["metrics"] = {
        "jobs_per_s": (len(res.latencies) / sum(res.latencies), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(res.latencies), "ms"),
        "job_tail_ms": (1e3 * tail_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return report


def traced_run(seed: int, workdir: Path) -> dict:
    """Per-layer figures of all three workloads from one traced process.

    Each workload runs ``traced_cycles`` untraced cycles, then a traced set-up
    and as many traced cycles.  The per-layer table assigns every metric to one
    workload, so the report has the same metrics whatever workload is named.
    Per-layer times are scaled by the median factor of the traced jobs.
    """
    report = {"attempted": 0, "failed": 0, "problems": [], "metrics": {}, "jobs": {}}
    for name, cls in WORKLOADS.items():
        workload = cls()
        inputs = workload.generate(seed, workdir)
        _, state = time_setup(workload, inputs, 1)
        plain = measure(workload, state, workload.traced_cycles, warmup=True)
        state = None
        tracer = Tracer()
        with traced(tracer):
            _, state = time_setup(workload, inputs, 1, tracer)
            spans = measure(workload, state, workload.traced_cycles, tracer)
        tracer.dump(workdir / f"spans-{name}-seed{seed}.npz")
        for res in (plain, spans):
            report["attempted"] += res.attempted
            report["failed"] += res.failed
            report["problems"] += [f"{name} {p}" for p in res.problems]
        report["jobs"][name] = {"untraced": plain.attempted, "traced": spans.attempted}
        if not (plain.latencies and spans.latencies):
            continue
        overhead = 1e3 * (statistics.median(spans.latencies) - statistics.median(plain.latencies))
        report["metrics"].update(
            layer_values(
                name, tracer, spans.attempted,
                overhead_ms=overhead,
                batch_bytes_per_job=getattr(state, "batch_bytes_per_job", 0),
                extra_counts=workload.counts(state),
                scale=statistics.median(spans.scale),
            )
        )
    return report


def machine_info(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "condrisk": condrisk.__version__,
        "commit": commit,
    }
