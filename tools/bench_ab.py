"""Paired A/B runs of the benchmark: a parent revision against a change.

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD --workload verify_mix --out ab.json
    python3 tools/bench_ab.py --parent P --change C --workload eval_large \\
        --workload bvm_model --pairs 10 --seed 1 --out ab.json

Each revision is built with ``git archive <rev> | tar -x`` into its own
directory (the repository's ``.git`` is only read), and
``perfbench/run.py --workload W --seed S`` of each side runs in a fresh
process, one run at a time.  Pair i runs the parent first when i is even
and the change first when i is odd (ABBA), so a drift of the host's speed
falls on both sides alike.  The last line of each run's standard output is
the benchmark's JSON summary.

For each end-to-end metric of ``BENCHMARK.json`` (read from the change's
tree, with its ``better`` direction) the output holds both medians and
interquartile ranges, the change's wins (pairs where it reads better; ties
count for neither), and the median of the paired ratios change / parent
with a bootstrap 95% interval (pairs resampled BOOTSTRAP_RESAMPLES times
from a generator seeded with BOOTSTRAP_SEED).  Each metric also reads the
claim rule and the bound (``paired_stats``): ``claim_met`` and
``within_bound``.  The output file gains one
entry per workload; entries of other workloads already in it are kept.
Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def paired_stats(parent, change, better: str, bound: float, failed=(0.0, 0.0)) -> dict:
    """Medians, interquartile ranges, the change's wins and the paired ratio
    of one metric, from the values of the runs of each side in pair order,
    and the two rules a change is read by.

    ``claim_met``: the change wins at least 9 of each 10 pairs (ties count
    for neither), its median gain in the ``better`` direction exceeds the
    parent's interquartile range, and the share of jobs it fails is no
    larger than the parent's (``failed`` holds the two shares, parent first).
    ``within_bound``: the change's median is worse than the parent's by no
    more than ``bound``, a fraction of the parent's median (the metric's
    ``bound`` in BENCHMARK.json)."""
    a, b = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired_stats needs one value per side for each pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    wins = b > a if better == "higher" else b < a
    ratio = b / a
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    resampled = np.median(ratio[rng.integers(0, ratio.size, (BOOTSTRAP_RESAMPLES, ratio.size))], axis=1)
    lo, hi = np.percentile(resampled, [2.5, 97.5])
    q = {side: np.percentile(v, [25, 75]) for side, v in (("parent", a), ("change", b))}
    parent_median, change_median = float(np.median(a)), float(np.median(b))
    parent_iqr = float(q["parent"][1] - q["parent"][0])
    gain = change_median - parent_median if better == "higher" else parent_median - change_median
    return {
        "better": better,
        "parent_median": parent_median,
        "parent_iqr": parent_iqr,
        "change_median": change_median,
        "change_iqr": float(q["change"][1] - q["change"][0]),
        "change_wins": int(wins.sum()),
        "ties": int((a == b).sum()),
        "pairs": int(a.size),
        "ratio_median": float(np.median(ratio)),
        "ratio_ci95": [float(lo), float(hi)],
        "gain": gain,
        "claim_met": bool(10 * int(wins.sum()) >= 9 * a.size and gain > parent_iqr and failed[1] <= failed[0]),
        "within_bound": bool(-gain <= bound * abs(parent_median)),
    }


def _build(repo: Path, rev: str, into: Path) -> str:
    """Extract ``rev`` into ``into``; return its full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_ab: git archive {rev} failed")
    return sha


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in a fresh process; its JSON summary."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_ab: run in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="revision measured as the parent")
    p.add_argument("--change", required=True, help="revision measured as the change")
    p.add_argument("--workload", action="append", required=True, help="a workload of perfbench/run.py; repeatable")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    p.add_argument("--workdir", type=Path, help="where the two trees are built (a new temporary directory by default)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    repo = Path(__file__).resolve().parent.parent
    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench_ab-"))
    trees = {side: work / side for side in ("parent", "change")}
    shas = {side: _build(repo, getattr(args, side), tree) for side, tree in trees.items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.update(parent=shas["parent"], change=shas["change"])
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        order = []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append("".join(s[0].upper() for s in sides))
            for side in sides:
                runs[side].append(_run(trees[side], workload, args.seed))
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      f"{runs[side][-1]['metrics']['jobs_per_s']['value']:.2f} jobs/s", flush=True)
        failed = [sum(r["failed"] for r in runs[side]) / sum(r["attempted"] for r in runs[side]) for side in runs]
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs] for side, rs in runs.items()}
            stats = paired_stats(values["parent"], values["change"], m["better"], m["bound"], failed)
            metrics[m["name"]] = {"unit": m["unit"], **stats}
            metrics[m["name"]].update(parent_values=values["parent"], change_values=values["change"])
        report.setdefault("workloads", {})[workload] = {
            "seed": args.seed,
            "order": order,
            "failed": {side: [f"{r['failed']}/{r['attempted']}" for r in rs] for side, rs in runs.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "metrics": metrics,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
