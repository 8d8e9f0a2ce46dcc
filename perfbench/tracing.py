"""Span tracing for the traced benchmark run, kept outside the package.

The traced run wraps the functions in ``TARGETS`` (public functions of the
nine ``condrisk`` modules, and the private grid conjugate) by patching the
module attribute, every other ``condrisk`` module attribute that
holds the same function (the names imported with ``from .x import y``), and
every alias of a method inside its class.  Each call becomes a span with its
name, start, end, parent span, job id and benchmark phase.  Spans stay in
flat arrays in memory and are written out once, at the end of the run.

Self time is a span's duration minus the time its child spans cover.  The
benchmark is single-threaded and every wrapper closes its span in
``finally``, so the children of one span never overlap and the covered time
is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SETUP_JOB = -1


class Tracer:
    """In-memory span store; spans are recorded only inside a job or set-up."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.current_job: Optional[int] = None
        self.current_phase = self.intern("")
        self.counts: dict = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self.current_job is not None and self.current_job >= 0:
            self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def scope(self, job: int):
        """Record spans and counts under ``job`` (SETUP_JOB for set-up)."""
        self.current_job = job
        try:
            yield
        finally:
            self.current_job = None

    @contextmanager
    def mark(self, phase: str):
        """Tag the spans opened inside with a benchmark phase name."""
        prior = self.current_phase
        self.current_phase = self.intern(phase)
        try:
            yield
        finally:
            self.current_phase = prior

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - covered


# -- what gets wrapped ------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public function or method, addressed as ``module`` + ``attr``.

    ``labelled`` appends the measure label of the bound instance to the span
    name; ``counter`` counts calls (or yielded items for generators);
    ``unconverged`` counts the False entries of a returned DualResult.
    """

    module: str
    attr: str
    generator: bool = False
    labelled: bool = False
    counter: Optional[str] = None
    unconverged: bool = False

    @property
    def span(self) -> str:
        return f"{self.module}.{self.attr}"


_BOOLALG = tuple(
    Target("boolalg", a)
    for a in (
        "BooleanAlgebra.__init__",
        "BooleanAlgebra.element",
        "BooleanAlgebra.atom",
        "BooleanAlgebra.atom_elements",
        "BoolElem.meet",
        "BoolElem.join",
        "BoolElem.complement",
        "BoolElem.implies",
        "BoolElem.__le__",
        "BoolElem.__ge__",
        "PartitionOfUnity.__init__",
        "lattice_ops",
        "partition_validate",
    )
) + (
    Target("boolalg", "BooleanAlgebra.elements", generator=True, counter="boolalg.elements_listed"),
    Target("boolalg", "iter_partitions", generator=True, counter="boolalg.partitions_listed"),
)

TARGETS = _BOOLALG + (
    Target("probspace", "FiniteProbSpace.__init__"),
    Target("probspace", "FiniteProbSpace.cond_expect"),
    Target("probspace", "FiniteProbSpace.esssup_cond"),
    Target("probspace", "FiniteProbSpace.essinf_cond"),
    Target("probspace", "FiniteProbSpace.cond_cdf"),
    Target("probspace", "FiniteProbSpace.lift"),
    Target("riskcore", "CondRiskMeasure.evaluate", labelled=True, counter="riskcore.evaluate_calls"),
    Target("riskcore", "CondRiskMeasure.evaluate_batch", labelled=True),
    Target("riskcore", "check_axiom"),
    Target("duality", "admissible_dual"),
    Target("duality", "fenchel"),
    Target("duality", "penalty_of"),
    Target("duality", "dual_representation", unconverged=True),
    Target("duality", "verify_representation"),
    Target("duality", "_block_conjugate_grid"),
    Target("duality", "stable_sublevel_check"),
    Target("transfer", "transfer_verify"),
    Target("transfer", "scalarize"),
    Target("transfer", "fenchel_consistency"),
    Target("modelspaces", "young_conjugate"),
    Target("modelspaces", "inequality_check"),
    Target("modelspaces", "module_gauge"),
    Target("bvm", "Universe.make_name"),
    Target("bvm", "Universe.canonical_name"),
    Target("bvm", "canonical_name"),
    Target("bvm", "Universe.truth_eq"),
    Target("bvm", "Universe.truth_in"),
    Target("bvm", "Universe.mix"),
    Target("bvm", "Universe.maximum_witness"),
    Target("bvm", "maximum_witness"),
    Target("bvm", "atom_collapse"),
    Target("bvm", "tokenize_literal"),
    Target("bvm", "parse_name_tokens"),
    Target("bvm", "parse_name_literal"),
    Target("bvm", "name_to_literal"),
    Target("bvm", "verify_interp_props"),
    Target("formulalang", "parse"),
    Target("formulalang", "evaluate"),
    Target("formulalang", "collapse_eval"),
    Target("formulalang", "witness"),
    Target("cli", "main"),
    Target("cli", "ingest"),
)


def _make_wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    base = target.span
    nid = tracer.intern(base)
    counter = target.counter

    if target.generator:

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if tracer.current_job is None:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            while True:
                i = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                tracer.count(counter)
                yield item

        return gen_wrapper

    labelled = target.labelled
    unconverged = target.unconverged

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current_job is None:
            return fn(*args, **kwargs)
        span = tracer.intern(f"{base}[{args[0].label}]") if labelled else nid
        if counter is not None:
            tracer.count(counter)
        i = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if unconverged:
            tracer.count("duality.ascent_unconverged", result.converged.count(False))
        return result

    return wrapper


def _condrisk_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "condrisk" or name.startswith("condrisk.")
    ]


def install(tracer: Tracer, targets=TARGETS) -> list:
    """Wrap every target; returns the (owner, attribute, original) patch list."""
    patched: list = []
    try:
        for target in targets:
            owner = importlib.import_module(f"condrisk.{target.module}")
            attr = target.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                sites = [(owner, a) for a, v in list(vars(owner).items()) if v is original]
            else:
                original = getattr(owner, attr)
                sites = [
                    (mod, a)
                    for mod in _condrisk_modules()
                    for a, v in list(vars(mod).items())
                    if v is original
                ]
            wrapper = _make_wrapper(tracer, target, original)
            for obj, a in sites:
                setattr(obj, a, wrapper)
                patched.append((obj, a, original))
    except BaseException:
        uninstall(patched)
        raise
    return patched


def uninstall(patched: list) -> None:
    for obj, attr, original in reversed(patched):
        setattr(obj, attr, original)
    patched.clear()


@contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    patched = install(tracer, targets)
    try:
        yield tracer
    finally:
        uninstall(patched)


# -- per-layer metrics ---------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer figure and the workload whose traced jobs it is read from.

    kind ``self``: summed self time of ``spans`` per job, in ms (optionally only
    inside benchmark ``phase``); ``setup``: the same over the traced set-up;
    ``count``: a counter per job; ``gbps``: batch input bytes over the
    inclusive time of ``spans``; ``overhead``: traced minus untraced job p50.
    """

    name: str
    workload: str
    kind: str
    unit: str
    spans: tuple = ()
    phase: Optional[str] = None


_BUILTINS = ("neg_expectation", "worst_case", "entropic", "avar")
_BOOLALG_SPANS = tuple(t.span for t in _BOOLALG)
_TRUTH = ("bvm.Universe.truth_eq", "bvm.Universe.truth_in")

LAYER_METRICS = (
    LayerMetric(
        "probspace.cond_ops_ms", "eval_large", "self", "ms",
        tuple(f"probspace.FiniteProbSpace.{f}"
              for f in ("cond_expect", "esssup_cond", "essinf_cond", "cond_cdf", "lift")),
    ),
    LayerMetric("probspace.space_build_ms", "eval_large", "setup", "ms",
                ("probspace.FiniteProbSpace.__init__",)),
    *(
        LayerMetric(f"riskcore.evaluate_ms.{b}", "eval_large", "self", "ms",
                    (f"riskcore.CondRiskMeasure.evaluate[{b}]",))
        for b in _BUILTINS
    ),
    *(
        LayerMetric(f"riskcore.evaluate_batch_ms.{b}", "eval_large", "self", "ms",
                    (f"riskcore.CondRiskMeasure.evaluate_batch[{b}]",))
        for b in _BUILTINS
    ),
    LayerMetric("riskcore.batch_gbps_computed", "eval_large", "gbps", "GB/s",
                tuple(f"riskcore.CondRiskMeasure.evaluate_batch[{b}]" for b in _BUILTINS)),
    LayerMetric("duality.penalty_ms", "eval_large", "self", "ms",
                ("duality.penalty_of", "duality.fenchel")),
    LayerMetric("duality.admissible_dual_ms", "eval_large", "self", "ms",
                ("duality.admissible_dual",)),
    LayerMetric("trace_overhead_ms.eval_large", "eval_large", "overhead", "ms"),
    LayerMetric("riskcore.check_axiom_ms", "verify_mix", "self", "ms", ("riskcore.check_axiom",)),
    LayerMetric("riskcore.evaluate_calls", "verify_mix", "count", "count"),
    LayerMetric("duality.dual_representation_ms", "verify_mix", "self", "ms",
                ("duality.dual_representation", "duality.verify_representation")),
    LayerMetric("duality.grid_conjugate_ms", "verify_mix", "self", "ms",
                ("duality._block_conjugate_grid",)),
    LayerMetric("duality.sublevel_check_ms", "verify_mix", "self", "ms",
                ("duality.stable_sublevel_check",)),
    LayerMetric("duality.user_risk_rows", "verify_mix", "count", "count"),
    LayerMetric("duality.ascent_unconverged", "verify_mix", "count", "count"),
    LayerMetric("transfer.transfer_verify_ms", "verify_mix", "self", "ms",
                ("transfer.transfer_verify", "transfer.scalarize")),
    LayerMetric("transfer.fenchel_consistency_ms", "verify_mix", "self", "ms",
                ("transfer.fenchel_consistency",)),
    LayerMetric("modelspaces.young_conjugate_ms", "verify_mix", "self", "ms",
                ("modelspaces.young_conjugate",)),
    LayerMetric("modelspaces.inequality_check_ms", "verify_mix", "self", "ms",
                ("modelspaces.inequality_check", "modelspaces.module_gauge")),
    LayerMetric("boolalg.elements_listed", "verify_mix", "count", "count"),
    LayerMetric("boolalg.partitions_listed", "verify_mix", "count", "count"),
    LayerMetric("boolalg.self_ms.verify_mix", "verify_mix", "self", "ms", _BOOLALG_SPANS),
    LayerMetric("bvm.interp_props_ms", "verify_mix", "self", "ms", ("bvm.verify_interp_props",)),
    LayerMetric("cli.ingest_ms.verify_mix", "verify_mix", "self", "ms", ("cli.ingest",)),
    LayerMetric("cli.self_ms.verify_mix", "verify_mix", "self", "ms", ("cli.main",)),
    LayerMetric("trace_overhead_ms.verify_mix", "verify_mix", "overhead", "ms"),
    LayerMetric("boolalg.self_ms.bvm_model", "bvm_model", "self", "ms", _BOOLALG_SPANS),
    LayerMetric("bvm.make_name_ms", "bvm_model", "self", "ms",
                ("bvm.Universe.make_name", "bvm.Universe.canonical_name", "bvm.canonical_name")),
    LayerMetric("bvm.truth_cold_ms", "bvm_model", "self", "ms", _TRUTH, phase="truth_pairs"),
    LayerMetric("bvm.truth_warm_ms", "bvm_model", "self", "ms", _TRUTH, phase="formulas"),
    LayerMetric("bvm.mix_ms", "bvm_model", "self", "ms", ("bvm.Universe.mix",)),
    LayerMetric("bvm.witness_ms", "bvm_model", "self", "ms",
                ("bvm.Universe.maximum_witness", "bvm.maximum_witness", "formulalang.witness")),
    LayerMetric("bvm.parse_literal_ms", "bvm_model", "self", "ms",
                ("bvm.tokenize_literal", "bvm.parse_name_tokens", "bvm.parse_name_literal",
                 "bvm.name_to_literal")),
    LayerMetric("bvm.collapse_oracle_ms", "bvm_model", "self", "ms", ("bvm.atom_collapse",)),
    LayerMetric("formulalang.parse_ms", "bvm_model", "self", "ms", ("formulalang.parse",)),
    LayerMetric("formulalang.evaluate_ms", "bvm_model", "self", "ms", ("formulalang.evaluate",)),
    LayerMetric("formulalang.collapse_eval_ms", "bvm_model", "self", "ms",
                ("formulalang.collapse_eval",)),
    LayerMetric("cli.ingest_ms.bvm_model", "bvm_model", "self", "ms", ("cli.ingest",)),
    LayerMetric("cli.self_ms.bvm_model", "bvm_model", "self", "ms", ("cli.main",)),
    LayerMetric("trace_overhead_ms.bvm_model", "bvm_model", "overhead", "ms"),
)


def layer_values(
    workload: str,
    tracer: Tracer,
    jobs: int,
    *,
    overhead_ms: float,
    batch_bytes_per_job: int = 0,
    extra_counts: Optional[dict] = None,
    scale: float = 1.0,
) -> dict:
    """Per-layer metrics of one workload's traced phase, as {name: (value, unit)}.

    Span times are multiplied by ``scale``, the factor to the reference speed.
    """
    arr = tracer.arrays()
    selfs = scale * self_times(arr["start"], arr["end"], arr["parent"])
    ids = {name: i for i, name in enumerate(tracer.names)}
    counts = {**tracer.counts, **(extra_counts or {})}
    out = {}
    for metric in LAYER_METRICS:
        if metric.workload != workload:
            continue
        if metric.kind == "overhead":
            out[metric.name] = (overhead_ms, metric.unit)
            continue
        if metric.kind == "count":
            out[metric.name] = (counts.get(metric.name, 0) / jobs, metric.unit)
            continue
        mask = np.isin(arr["name"], [ids[s] for s in metric.spans if s in ids])
        if metric.phase is not None:
            mask &= arr["phase"] == ids.get(metric.phase, -1)
        if metric.kind == "setup":
            out[metric.name] = (1e3 * float(selfs[mask & (arr["job"] == SETUP_JOB)].sum()), metric.unit)
        elif metric.kind == "gbps":
            busy = scale * float((arr["end"] - arr["start"])[mask & (arr["job"] >= 0)].sum())
            out[metric.name] = (batch_bytes_per_job * jobs / busy / 1e9, metric.unit)
        else:
            out[metric.name] = (1e3 * float(selfs[mask & (arr["job"] >= 0)].sum()) / jobs, metric.unit)
    return out
