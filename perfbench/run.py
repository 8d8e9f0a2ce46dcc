"""condrisk benchmark: three closed-loop workloads, one client, one thread.

    python3 perfbench/run.py                          # all workloads, one process each
    python3 perfbench/run.py --workload eval_large --seed 3 --trace 0
    python3 perfbench/run.py --trace 1                # per-layer figures

Each workload runs a fixed number of job cycles, sized for about RUN_SECONDS
seconds of measurement on a 2-vCPU Xeon, so that every commit is measured on
the same jobs.  ``--seconds`` is part of the benchmark's command line; it
must equal RUN_SECONDS and changes nothing.  Times are reported at a
reference host speed: ``harness.calibrate`` explains how.

The program is imported from ``src/`` of the checkout this file sits in.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scenario files, span dumps and result files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("eval_large", "verify_mix", "bvm_model")
RUN_SECONDS = 25
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        p.error(f"--seconds must be {RUN_SECONDS}: the run length is fixed by the workloads' cycle counts")
    return args


def _import_program():
    """Import condrisk from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "condrisk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no condrisk sources under {src}")
    sys.path.insert(0, str(src))
    import condrisk

    if Path(condrisk.__file__).resolve().parent != (src / "condrisk").resolve():
        raise SystemExit(f"perfbench: imported condrisk from {condrisk.__file__}, not {src}")


def _result_line(attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _save(report: dict, stem: str) -> None:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    (WORKDIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=list))


def _run_one(args) -> int:
    import harness

    WORKDIR.mkdir(parents=True, exist_ok=True)
    machine = harness.machine_info(ROOT)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    if args.trace:
        report = harness.traced_run(args.seed, WORKDIR)
        for name, jobs in report["jobs"].items():
            print(f"  {name}: {jobs['untraced']} untraced jobs, {jobs['traced']} traced jobs")
        for key, (value, unit) in report["metrics"].items():
            print(f"  {key:34s} {value:14.6g} {unit}")
    else:
        report = harness.end_to_end(args.workload, args.seed, WORKDIR)
        n = report["attempted"] - report["failed"]
        notes = {
            "jobs_per_s": f"{n} jobs",
            "job_p50_ms": f"n={n}, {report['raw_p50_ms'] or 0:.6g} ms as measured",
            "job_tail_ms": f"p{report.get('tail_percentile', 0):.1f}, n={n}, {harness.TAIL_BEYOND} beyond",
            "setup_s": f"median of {report['setup_samples']} set-ups",
            "peak_rss_mb": "this process",
        }
        for key, (value, unit) in report["metrics"].items():
            print(f"  {key:12s} {value:14.6g} {unit:4s} ({notes[key]})")
        print(f"  failed_ratio {report['failed'] / report['attempted']:14.6g}      "
              f"({report['failed']}/{report['attempted']})")
        print(f"  time scale   {report['scale_median']:14.6g}      "
              f"(median factor from measured to reference-speed times)")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    report["machine"] = machine
    _save(report, f"result-{args.workload}-seed{args.seed}-trace{args.trace}")
    if not report["metrics"]:
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    print(_result_line(report["attempted"], report["failed"], report["metrics"]))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb belongs to it."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    print(_result_line(attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    if args.workload == "all" and not args.trace:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
