"""Measurement of one workload: set-up, the untraced and traced runs, the gate.

* :func:`build_designs` generates a run's designs from their seeded
  specs and times it (``setup_s``).
* Every time is taken on a :class:`refclock.ReferenceClock`: wall time
  scaled by a fixed reference workload run just before and just after,
  so the host's changes of speed cancel out.
* :func:`measure_untraced` times whole ``repro.legalize`` calls and
  scores their output with the independent ``repro.checker``; it yields
  the end-to-end metrics.
* :func:`measure_traced` runs the same designs once untraced and once
  through the flow's public stage entry points, in ``Legalizer.run``
  order, with the :mod:`probes` timers installed; it yields the
  per-layer metrics.

Both runs make whole passes over their designs until the next pass
would end past ``seconds`` (at least one pass); the traced run covers
the first half of the designs, since it legalizes each one twice.
Each design's time is its median over passes.  End to end, times and
quality metrics are means over designs: the designs fall into two modes
(easy ones, and hard ones with many window expansions), which makes a
median across designs jump from seed to seed.  Counts come from the first pass, which later
passes must reproduce hash for hash.

Every legalization attempt goes through :func:`gate`: the call must
return, place every movable cell, pass ``check_legal``, and produce the
same placement hash as every other run of the same design.  A failing
attempt is recorded by name and the run goes on.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy
import scipy

import repro
from repro import legalize
from repro.benchgen import generate_design
from repro.checker import check_legal, contest_score
from repro.core.flowopt import optimize_fixed_row_order
from repro.core.matching import optimize_max_displacement
from repro.core.mgl import MGLegalizer
from repro.core.refine import RoutabilityGuard
from repro.model import Design, Placement
from repro.obs import SpanTracer
from repro.obs.manifest import placement_digest
from repro.obs.profile import fold_spans

from probes import Probes
from refclock import ReferenceClock
from workloads import Workload

#: Sampling stride of the traced run's span tracer: structural spans
#: (``shard_mgl``, ``shard``, ``reconcile``, scheduler batches) are
#: always recorded, per-cell spans only for the first cell, so the
#: tracer costs next to nothing.
TRACE_SAMPLE_EVERY = 1 << 30

#: Units of every metric the benchmark reports.
END_TO_END_UNITS = {
    "setup_s": "s",
    "legalize_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "avg_disp": "rows",
    "max_disp": "rows",
    "score": "score",
}
PER_LAYER_UNITS = {
    "benchgen.generate_s": "s",
    "mgl.seconds": "s",
    "mgl.share": "ratio",
    "mgl.insertions_evaluated": "count",
    "mgl.insertions_per_cell": "count/cell",
    "mgl.window_expansions": "count",
    "mgl.expansions_per_cell": "count/cell",
    "mgl.cell_ms.p50": "ms",
    "mgl.cell_ms.p99": "ms",
    "eval.seconds": "s",
    "eval.share_of_mgl": "ratio",
    "eval.per_s": "1/s",
    "guard.seconds": "s",
    "guard.calls": "count",
    "scheduler.batches": "count",
    "scheduler.reevaluations": "count",
    "scheduler.reeval_ratio": "ratio",
    "parallel.tasks": "count",
    "parallel.delta_ops": "count",
    "parallel.delta_bytes": "bytes",
    "parallel.bytes_per_task": "bytes/task",
    "parallel.workers_spawned": "count",
    "gap_cache.lookups": "count",
    "gap_cache.hit_rate": "ratio",
    "shard.count": "count",
    "shard.halo_cells": "count",
    "shard.reconciled": "count",
    "shard.reconcile_fraction": "ratio",
    "shard.workers_spawned": "count",
    "shard.interior_s": "s",
    "shard.reconcile_s": "s",
    "matching.seconds": "s",
    "matching.groups": "count",
    "matching.max_group": "count",
    "matching.cells_moved": "count",
    "matching.max_disp_cut": "rows",
    "flow_opt.seconds": "s",
    "flow_opt.cells": "count",
    "flow_opt.moved": "count",
    "flow_opt.objective_cut": "count",
    "checker.seconds": "s",
    "legalize.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "quality.routability_violations": "count",
    "gate.failed_share": "ratio",
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class Setup:
    """The designs of one run, what generating them cost, and the clock.

    Besides the timed first generation of every design, each
    legalization attempt is followed by a timed regeneration of its
    design, whose result is dropped.  The set-up samples are thus spread
    over the whole run, so their median does not hinge on the first
    fraction of a second.
    """

    seeds: List[int]
    specs: List[Any]
    designs: List[Design]
    clock: ReferenceClock = field(default_factory=ReferenceClock)
    #: Generate + ``Design.validate()`` seconds, scaled.
    setup_samples: List[float] = field(default_factory=list)
    #: ``generate_design`` seconds alone, same samples, scaled.
    generate_samples: List[float] = field(default_factory=list)

    def generate(self, index: int, before: float) -> Tuple[Design, float]:
        """Generate and validate design ``index``, timing it.

        ``before`` is the reference probe taken just before; returns the
        design and the probe taken just after.
        """
        started = perf_counter()
        design = generate_design(self.specs[index])
        generated = perf_counter()
        design.validate()
        elapsed = perf_counter() - started
        after = self.clock.probe()
        factor = self.clock.factor(before, after)
        self.setup_samples.append(elapsed * factor)
        self.generate_samples.append((generated - started) * factor)
        return design, after


def build_designs(workload: Workload, seed: int, tiny: bool = False) -> Setup:
    """Generate every design of one run, timing each generation."""
    pairs = workload.specs(seed, tiny)
    setup = Setup([s for s, _ in pairs], [spec for _, spec in pairs], [])
    setup.clock.probe()  # the first run of the reference workload warms it up
    probe = setup.clock.probe()
    for index in range(len(pairs)):
        design, probe = setup.generate(index, probe)
        setup.designs.append(design)
    return setup


def warm_up(workload: Workload, params: Any) -> None:
    """Legalize one tiny design so imports and lazy set-up finish untimed."""
    (_seed, spec), = workload.specs(0, tiny=True)
    legalize(generate_design(spec), params)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------


def gate(placement: Placement, cells_placed: Optional[int]) -> List[str]:
    """Why ``placement`` fails the correctness gate (empty when it passes).

    ``cells_placed`` is the legalizer's own count of placed cells; every
    movable cell must be among them, and the independent checker must
    find the placement legal.
    """
    reasons = []
    movable = len(placement.design.movable_cells())
    if cells_placed != movable:
        reasons.append(f"{cells_placed} of {movable} movable cells placed")
    report = check_legal(placement)
    if not report.is_legal:
        reasons.append(f"check_legal: {report.summary()}")
    return reasons


@dataclass
class Ledger:
    """Attempts, failures and the reference hash of each design."""

    seeds: Sequence[int]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    hashes: Dict[int, str] = field(default_factory=dict)

    def record(
        self, index: int, label: str, placement: Optional[Placement],
        cells_placed: Optional[int], error: Optional[BaseException] = None,
    ) -> bool:
        """Gate one attempt on design ``index``; True when it passes."""
        self.attempted += 1
        if error is not None or placement is None:
            reasons = [f"raised {type(error).__name__}: {error}"]
        else:
            reasons = gate(placement, cells_placed)
            digest = placement_digest(placement)
            expected = self.hashes.setdefault(index, digest)
            if digest != expected:
                reasons.append(f"placement hash {digest} != {expected}")
        if reasons:
            self.failures.append(
                f"design {index} (seed {self.seeds[index]}) {label}: "
                + "; ".join(reasons)
            )
        return not reasons

    @property
    def failed(self) -> int:
        return len(self.failures)


def _keep_going(started: float, passes: int, seconds: float) -> bool:
    """Whether another whole pass fits in the measuring time."""
    elapsed = perf_counter() - started
    return elapsed + elapsed / passes <= seconds


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped workers, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure_untraced(
    setup: Setup, params: Any, seconds: float, ledger: Ledger
) -> Dict[str, Any]:
    """Time whole ``legalize()`` calls; return the end-to-end metrics."""
    designs = setup.designs
    clock = setup.clock
    times: List[List[float]] = [[] for _ in designs]
    wall_times: List[float] = []
    quality: List[Tuple[float, float, float, int]] = []
    started = perf_counter()
    passes = 0
    while True:
        for index, design in enumerate(designs):
            before = clock.probe()
            call_started = perf_counter()
            try:
                result = legalize(design, params)
            except Exception as error:  # noqa: BLE001 - gated, run goes on
                ledger.record(index, "legalize", None, None, error)
                continue
            elapsed = perf_counter() - call_started
            after = clock.probe()
            setup.generate(index, after)
            placement = result.placement
            if ledger.record(
                index, "legalize", placement,
                result.mgl_stats.get("cells_placed"),
            ):
                times[index].append(elapsed * clock.factor(before, after))
                wall_times.append(elapsed)
            if passes == 0:
                score = contest_score(placement)
                quality.append((
                    score.avg_displacement,
                    score.max_displacement,
                    score.score,
                    score.pin_violations + score.edge_violations,
                ))
        passes += 1
        if not _keep_going(started, passes, seconds):
            break

    per_design = [_median(samples) for samples in times]
    timed = [
        (len(design.movable_cells()), seconds)
        for design, seconds, samples in zip(designs, per_design, times)
        if samples
    ]
    return {
        "setup_s": _median(setup.setup_samples),
        "legalize_s": _mean([seconds for _cells, seconds in timed]),
        "cells_per_s": _ratio(
            sum(cells for cells, _s in timed), sum(s for _c, s in timed)
        ),
        "peak_rss_mb": peak_rss_mb(),
        "avg_disp": _mean([q[0] for q in quality]),
        "max_disp": _mean([q[1] for q in quality]),
        "score": _mean([q[2] for q in quality]),
        # Not an end-to-end metric (it reads 0 on dense_2row); kept for
        # the provenance record.
        "routability_violations": float(sum(q[3] for q in quality)),
        "passes": float(passes),
        "wall_legalize_s": _mean(wall_times),
        "reference_ms": clock.median_ms(),
        "design_legalize_s": per_design,
        "design_quality": quality,
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------


@dataclass
class TracedDesign:
    """Times and counts of one traced legalization."""

    times: Dict[str, float]
    counts: Dict[str, float]
    cell_seconds: List[float]

    def scaled(self, factor: float) -> "TracedDesign":
        """The same record with every time multiplied by ``factor``."""
        return TracedDesign(
            {key: value * factor for key, value in self.times.items()},
            self.counts,
            [value * factor for value in self.cell_seconds],
        )


def run_traced_stages(design: Design, params: Any) -> Tuple[Placement, TracedDesign]:
    """The flow's stages through their public entry points, timed.

    Mirrors ``Legalizer.run``: validate, build the routability guard,
    MGL (§3.1/§3.5), matching (§3.2), fixed-row-fixed-order flow
    (§3.3).  The global-move extension is off in every workload.  Times
    are wall seconds; :meth:`TracedDesign.scaled` puts them on the
    reference clock.
    """
    tracer = SpanTracer(sample_every=TRACE_SAMPLE_EVERY)
    with Probes() as probes:
        started = perf_counter()
        design.validate()
        params.validate()
        guard = RoutabilityGuard(design, params) if params.routability else None
        mgl_started = perf_counter()
        mgl = MGLegalizer(design, params, guard=guard, tracer=tracer)
        placement = mgl.run()
        mgl_done = perf_counter()
        matching = (
            optimize_max_displacement(placement, params)
            if params.use_matching else None
        )
        matching_done = perf_counter()
        flow = (
            optimize_fixed_row_order(placement, params, guard=guard)
            if params.use_flow_opt else None
        )
        done = perf_counter()

    spans = fold_spans(tracer.roots).kinds
    stats = mgl.stats
    times = {
        "mgl": mgl_done - mgl_started,
        "matching": matching_done - mgl_done,
        "flow_opt": done - matching_done,
        "wall": done - started,
        "eval": probes.evaluator.seconds,
        "guard": probes.guard.seconds,
        # The per-shard ``shard`` spans are zero-length markers opened
        # after the pool returns, so interior time is the self time of
        # the enclosing ``shard_mgl`` span (pool plus stitch).
        "shard_interior": (
            spans["shard_mgl"].self_seconds if "shard_mgl" in spans else 0.0
        ),
        "shard_reconcile": (
            spans["reconcile"].total_seconds if "reconcile" in spans else 0.0
        ),
    }
    counts = {
        "cells_placed": stats.get("cells_placed", 0),
        "insertions_evaluated": stats.get("insertions_evaluated", 0),
        "window_expansions": stats.get("window_expansions", 0),
        "eval_calls": probes.evaluator.calls,
        "guard_calls": probes.guard.calls,
        "scheduler_batches": stats.get("scheduler_batches", 0),
        "scheduler_reevaluations": stats.get("scheduler_reevaluations", 0),
        "parallel_tasks": stats.get("parallel_tasks", 0),
        "parallel_delta_ops": stats.get("parallel_delta_ops", 0),
        "parallel_delta_bytes": stats.get("parallel_delta_bytes", 0),
        "parallel_workers_spawned": stats.get("scheduler_workers_spawned", 0),
        "gap_cache_hits": stats.get("gap_cache_hits", 0),
        "gap_cache_lookups": (
            stats.get("gap_cache_hits", 0) + stats.get("gap_cache_misses", 0)
        ),
        "shard_count": stats.get("shard_count", 0),
        "shard_halo_cells": stats.get("shard_halo_cells", 0),
        "shard_reconciled": stats.get("shard_reconciled", 0),
        "shard_workers_spawned": stats.get("shard_workers_spawned", 0),
        "matching_groups": matching.groups if matching else 0,
        "matching_max_group": max(matching.group_sizes, default=0) if matching else 0,
        "matching_cells_moved": matching.cells_moved if matching else 0,
        "matching_max_disp_cut": (
            matching.max_disp_before - matching.max_disp_after if matching else 0.0
        ),
        "flow_cells": flow.cells if flow else 0,
        "flow_moved": flow.moved if flow else 0,
        "flow_objective_cut": (
            flow.objective_before - flow.objective_after if flow else 0
        ),
    }
    return placement, TracedDesign(times, counts, probes.cell.samples)


def measure_traced(
    setup: Setup, params: Any, seconds: float, ledger: Ledger
) -> Dict[str, float]:
    """Untraced then traced legalization of the first half of the designs.

    Returns the per-layer metrics.
    """
    designs = setup.designs[: (len(setup.designs) + 1) // 2]
    clock = setup.clock
    pass_times: List[Dict[str, float]] = []
    first_counts: Dict[str, float] = {}
    matching_cuts: List[float] = []
    violations = 0
    cell_seconds: List[float] = []
    started = perf_counter()
    while True:
        totals: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0.0) + value

        for index, design in enumerate(designs):
            before = clock.probe()
            call_started = perf_counter()
            try:
                result = legalize(design, params)
            except Exception as error:  # noqa: BLE001 - gated, run goes on
                ledger.record(index, "legalize", None, None, error)
                continue
            elapsed = perf_counter() - call_started
            after = clock.probe()
            add("untraced_wall", elapsed * clock.factor(before, after))
            _, before = setup.generate(index, after)
            ledger.record(
                index, "legalize", result.placement,
                result.mgl_stats.get("cells_placed"),
            )
            try:
                placement, traced = run_traced_stages(design, params)
            except Exception as error:  # noqa: BLE001 - gated, run goes on
                ledger.record(index, "traced stages", None, None, error)
                continue
            after = clock.probe()
            traced = traced.scaled(clock.factor(before, after))
            check_started = perf_counter()
            ledger.record(
                index, "traced stages", placement,
                int(traced.counts["cells_placed"]),
            )
            score = contest_score(placement)
            # The checker runs right after the ``after`` probe.
            checked = perf_counter() - check_started
            add("checker", checked * clock.factor(after, after))
            for key, value in traced.times.items():
                add(key, value)
            cell_seconds.extend(traced.cell_seconds)
            if not pass_times:
                for key, value in traced.counts.items():
                    if key == "matching_max_disp_cut":
                        matching_cuts.append(value)
                    elif key == "matching_max_group":
                        first_counts[key] = max(first_counts.get(key, 0), value)
                    else:
                        first_counts[key] = first_counts.get(key, 0) + value
                violations += score.pin_violations + score.edge_violations
        pass_times.append(totals)
        if not _keep_going(started, len(pass_times), seconds):
            break

    def time_of(key: str) -> float:
        return _median([totals.get(key, 0.0) for totals in pass_times])

    counts = first_counts
    mgl_s, matching_s, flow_s = time_of("mgl"), time_of("matching"), time_of("flow_opt")
    stages = mgl_s + matching_s + flow_s
    wall = time_of("wall")
    eval_s = time_of("eval")
    placed = counts.get("cells_placed", 0)
    tasks = counts.get("parallel_tasks", 0)
    lookups = counts.get("gap_cache_lookups", 0)
    cell_ms = sorted(1000.0 * value for value in cell_seconds)
    return {
        "benchgen.generate_s": _median(setup.generate_samples),
        "mgl.seconds": mgl_s,
        "mgl.share": _ratio(mgl_s, stages),
        "mgl.insertions_evaluated": counts.get("insertions_evaluated", 0),
        "mgl.insertions_per_cell": _ratio(counts.get("insertions_evaluated", 0), placed),
        "mgl.window_expansions": counts.get("window_expansions", 0),
        "mgl.expansions_per_cell": _ratio(counts.get("window_expansions", 0), placed),
        "mgl.cell_ms.p50": _percentile(cell_ms, 0.50),
        "mgl.cell_ms.p99": _percentile(cell_ms, 0.99),
        "eval.seconds": eval_s,
        "eval.share_of_mgl": _ratio(eval_s, mgl_s),
        "eval.per_s": _ratio(counts.get("eval_calls", 0), eval_s),
        "guard.seconds": time_of("guard"),
        "guard.calls": counts.get("guard_calls", 0),
        "scheduler.batches": counts.get("scheduler_batches", 0),
        "scheduler.reevaluations": counts.get("scheduler_reevaluations", 0),
        "scheduler.reeval_ratio": _ratio(counts.get("scheduler_reevaluations", 0), tasks),
        "parallel.tasks": tasks,
        "parallel.delta_ops": counts.get("parallel_delta_ops", 0),
        "parallel.delta_bytes": counts.get("parallel_delta_bytes", 0),
        "parallel.bytes_per_task": _ratio(counts.get("parallel_delta_bytes", 0), tasks),
        "parallel.workers_spawned": counts.get("parallel_workers_spawned", 0),
        "gap_cache.lookups": lookups,
        "gap_cache.hit_rate": _ratio(counts.get("gap_cache_hits", 0), lookups),
        "shard.count": counts.get("shard_count", 0),
        "shard.halo_cells": counts.get("shard_halo_cells", 0),
        "shard.reconciled": counts.get("shard_reconciled", 0),
        "shard.reconcile_fraction": _ratio(counts.get("shard_reconciled", 0), placed),
        "shard.workers_spawned": counts.get("shard_workers_spawned", 0),
        "shard.interior_s": time_of("shard_interior"),
        "shard.reconcile_s": time_of("shard_reconcile"),
        "matching.seconds": matching_s,
        "matching.groups": counts.get("matching_groups", 0),
        "matching.max_group": counts.get("matching_max_group", 0),
        "matching.cells_moved": counts.get("matching_cells_moved", 0),
        "matching.max_disp_cut": _median(matching_cuts),
        "flow_opt.seconds": flow_s,
        "flow_opt.cells": counts.get("flow_cells", 0),
        "flow_opt.moved": counts.get("flow_moved", 0),
        "flow_opt.objective_cut": counts.get("flow_objective_cut", 0),
        "checker.seconds": time_of("checker"),
        "legalize.other_s": wall - stages,
        "trace.wall_s": wall,
        "trace.overhead": _ratio(wall, time_of("untraced_wall")) - 1.0,
        "quality.routability_violations": violations,
        "gate.failed_share": _ratio(ledger.failed, ledger.attempted),
    }


def _percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def provenance(
    workload: Workload, seed: int, setup: Setup, params: Any, ledger: Ledger
) -> Dict[str, Any]:
    """Host and input record of one run."""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "host": {
            "cpu_count": os.cpu_count(),
            "sched_getaffinity": affinity,
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "repro": repro.__version__,
        },
        "suite_row": f"{workload.suite}:{workload.row}@{workload.scale}",
        "designs": [
            {
                "seed": design_seed,
                "cells": design.num_cells,
                "cells_per_height": {
                    str(height): len(cells)
                    for height, cells in sorted(design.cells_by_height().items())
                },
                "placement_hash": ledger.hashes.get(index),
            }
            for index, (design_seed, design) in enumerate(zip(setup.seeds, setup.designs))
        ],
        "params": asdict(params),
        "failures": ledger.failures,
    }
