"""The MGL incumbent cutoff is exact: it only ever drops losing candidates.

:meth:`InsertionContext._drain_heap` passes the incumbent's cost down the
evaluation path as ``cutoff``; a candidate that provably cannot beat it
returns None before curve assembly (the :func:`cost_floor` test), before
the guard walk (the minimized cost test), and pinless targets skip the
guard walk altogether.  These tests pin the contract:

* on tiny stand-ins of the benchmark's ``fenced_mixed`` designs (fences,
  rails, pins, IO pins, edge rules) and ``dense_2row`` designs, with the
  evaluator's guard walk on either ``adjust_x`` ("scalar") or
  ``adjust_x_vector`` ("vector"), every candidate the cutoff pruned is
  re-evaluated without a cutoff and its ``(cost, y, x, ordinal)`` key
  must lose to the incumbent, and every other result must equal its
  cutoff-free evaluation;
* a run with the cutoff matches a run whose evaluations ignore it on
  placement hash and ``insertions_evaluated``, and ``candidate_order=
  "linear"`` (which passes no cutoff) matches both on placement hash;
* on the pinless ``dense_2row`` stand-in, skipping the guard walk
  places exactly like sending every candidate through either walk;
* Hypothesis properties: the floor never exceeds the minimized cost of
  the curve set it bounds, and for a pinless cell type the full
  ``adjust_x``/``adjust_x_vector`` walks return ``(x_opt, 0.0)`` with
  ``x_opt`` from :meth:`CurveSet.minimize` — the proof obligation
  behind skipping them.
"""

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import generate_design, iccad2017_suite, ispd2015_suite
from repro.core.curves import CurveSet, DisplacementCurve, cost_floor
from repro.core.insertion import EvaluatedInsertion, InsertionContext
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.core.refine import RoutabilityGuard
from repro.model.design import Design
from repro.model.technology import CellType
from repro.obs.manifest import placement_digest

SCALE = 0.001


def stand_in(kind: str, seed: int) -> Design:
    """A tiny design generated from the benchmark workload's suite row."""
    if kind == "fenced_mixed":
        spec = iccad2017_suite(SCALE, names=["des_perf_b_md2"])[0].spec
    else:
        spec = ispd2015_suite(SCALE, names=["fft_1"])[0].spec
    return generate_design(dataclasses.replace(spec, seed=seed))


def legalize(design: Design, **overrides: Any) -> Tuple[str, Dict[str, int]]:
    legalizer = MGLegalizer(design, LegalizerParams(**overrides))
    placement = legalizer.run()
    return placement_digest(placement), dict(legalizer.stats)


Key = Tuple[float, int, int, int]

GUARD_WALKS = ["vector", "scalar"]


def route_guard_walk(monkeypatch: pytest.MonkeyPatch, walk: str) -> None:
    """Send the evaluator's guard walk through ``adjust_x`` for "scalar".

    :meth:`InsertionContext.finish_with_compiled` calls the batched
    :meth:`RoutabilityGuard.adjust_x_vector` ("vector", left as is); the
    per-site :meth:`RoutabilityGuard.adjust_x` is its bit-identical twin,
    and the cutoff must stay exact on either.
    """
    if walk == "scalar":
        monkeypatch.setattr(
            RoutabilityGuard,
            "adjust_x_vector",
            lambda guard, cell_type, row, x_opt, lo, hi, cost_at, costs_at: (
                guard.adjust_x(cell_type, row, x_opt, lo, hi, cost_at)
            ),
        )


class CutoffAudit:
    """Replays every best-first drain and re-checks each pruned candidate."""

    def __init__(self) -> None:
        self.evaluate = InsertionContext.evaluate
        self.best_first = InsertionContext.evaluate_best_first
        self.log: List[
            Tuple[int, Tuple[Any, ...], Optional[float], Optional[EvaluatedInsertion]]
        ] = []
        self.pruned = 0
        self.checked = 0

    def install(self, monkeypatch: pytest.MonkeyPatch) -> None:
        audit = self

        def logged_evaluate(
            context: InsertionContext,
            bottom_row: int,
            gaps: Tuple[Any, ...],
            cutoff: Optional[float] = None,
        ) -> Optional[EvaluatedInsertion]:
            result = audit.evaluate(context, bottom_row, gaps, cutoff)
            audit.log.append((bottom_row, tuple(gaps), cutoff, result))
            return result

        def audited_best_first(
            context: InsertionContext, max_points: int, margin: float
        ) -> Tuple[Optional[EvaluatedInsertion], int]:
            audit.log.clear()
            best, evaluated = audit.best_first(context, max_points, margin)
            audit.replay(context, max_points, best, evaluated)
            return best, evaluated

        monkeypatch.setattr(InsertionContext, "evaluate", logged_evaluate)
        monkeypatch.setattr(
            InsertionContext, "evaluate_best_first", audited_best_first
        )

    def replay(
        self,
        context: InsertionContext,
        max_points: int,
        best: Optional[EvaluatedInsertion],
        evaluated: int,
    ) -> None:
        # Heap ordinals are enumeration indices: rows are enumerated in
        # candidate_rows order, each row's combinations in order.
        ordinal = {
            (row, tuple(id(gap) for gap in gaps)): index
            for index, (row, gaps) in enumerate(
                context.enumerate_insertion_points(max_points)
            )
        }
        assert len(self.log) == evaluated
        best_key: Optional[Key] = None
        winner: Optional[EvaluatedInsertion] = None
        for bottom_row, gaps, cutoff, result in self.log:
            order = ordinal[(bottom_row, tuple(id(gap) for gap in gaps))]
            assert cutoff == (None if best_key is None else best_key[0])
            full = self.evaluate(context, bottom_row, gaps)
            self.checked += 1
            if result is None:
                if full is not None:
                    self.pruned += 1
                    assert best_key is not None
                    assert (full.cost, full.y, full.x, order) > best_key
                continue
            assert full is not None
            assert (result.x, result.y, result.cost, result.moves) == (
                full.x, full.y, full.cost, full.moves
            )
            key = (result.cost, result.y, result.x, order)
            if best_key is None or key < best_key:
                best_key = key
                winner = result
        assert winner is best


@pytest.mark.parametrize("walk", GUARD_WALKS)
@pytest.mark.parametrize(
    "kind, seed",
    [("fenced_mixed", 11), ("fenced_mixed", 12), ("dense_2row", 11), ("dense_2row", 12)],
)
def test_pruned_candidates_lose_to_the_incumbent(monkeypatch, kind, seed, walk):
    route_guard_walk(monkeypatch, walk)
    design = stand_in(kind, seed)
    audit = CutoffAudit()
    with monkeypatch.context() as patch:
        audit.install(patch)
        audited_hash, audited_stats = legalize(design)
    assert audit.pruned > 0
    assert audit.checked == audited_stats["insertions_evaluated"]

    cutoff_hash, cutoff_stats = legalize(design)
    assert cutoff_hash == audited_hash

    # Evaluations that ignore the cutoff: the pre-cutoff drain.
    evaluate = InsertionContext.evaluate
    with monkeypatch.context() as patch:
        patch.setattr(
            InsertionContext,
            "evaluate",
            lambda context, bottom_row, gaps, cutoff=None: evaluate(
                context, bottom_row, gaps
            ),
        )
        plain_hash, plain_stats = legalize(design)
    assert cutoff_hash == plain_hash
    for counter in ("insertions_evaluated", "window_expansions", "cells_placed"):
        assert cutoff_stats[counter] == plain_stats[counter], counter

    linear_hash, linear_stats = legalize(design, candidate_order="linear")
    assert linear_hash == cutoff_hash
    assert linear_stats["window_expansions"] == cutoff_stats["window_expansions"]
    assert linear_stats["insertions_evaluated"] >= cutoff_stats["insertions_evaluated"]


class PinsThatWalk(tuple):
    """An empty pin tuple that still reads as "has pins"."""

    def __bool__(self) -> bool:
        return True


@pytest.mark.parametrize("walk", GUARD_WALKS)
def test_pinless_shortcut_matches_the_full_walk(monkeypatch, walk):
    """``dense_2row`` has no pins: skipping the guard walk changes nothing.

    The shortcut run must never enter the walk; the oracle run makes
    every cell type read as pinned (with no pin shapes), which sends
    every candidate through the full ``walk``, and must place identically.
    """
    design = stand_in("dense_2row", 11)
    cell_types = design.technology.cell_types
    assert not any(cell_type.pins for cell_type in cell_types)
    walks = []
    for name in ("adjust_x", "adjust_x_vector"):
        original = getattr(RoutabilityGuard, name)
        monkeypatch.setattr(
            RoutabilityGuard,
            name,
            lambda *args, _name=name, _original=original: (
                walks.append(_name) or _original(*args)
            ),
        )
    # Routed after the counters: a "scalar" run never enters the
    # batched walk.
    route_guard_walk(monkeypatch, walk)
    shortcut = legalize(design)
    assert walks == []
    try:
        for cell_type in cell_types:
            object.__setattr__(cell_type, "pins", PinsThatWalk())
        walked = legalize(design)
    finally:
        for cell_type in cell_types:
            object.__setattr__(cell_type, "pins", ())
    if walk == "scalar":
        assert set(walks) == {"adjust_x"}
    else:
        assert "adjust_x_vector" in walks
    assert walked == shortcut


# ----------------------------------------------------------------------
# Properties of the floor and of the pinless guard walk
# ----------------------------------------------------------------------

pushed_cells = st.lists(
    st.tuples(
        st.integers(0, 60),  # current x (sites)
        st.one_of(  # anchor: a GP x, or exactly the current x
            st.floats(-5.0, 65.0, allow_nan=False),
            st.just(None),
            # Turns within EPSILON of integer breakpoints get coalesced.
            st.integers(0, 60).map(lambda site: site + 4e-10),
        ),
        st.integers(1, 12),  # chain offset
        st.sampled_from([1.0, 0.5, 0.1, 1.0 / 300.0]),  # weight per row
    ),
    max_size=8,
)

curve_inputs = st.tuples(
    st.floats(0.0, 60.0, allow_nan=False),  # target GP x
    st.sampled_from([1.0, 0.5, 1.0 / 300.0]),  # target weight
    st.integers(0, 4),  # rows away from the GP row
    st.sampled_from([0.1, 0.2, 1.0]),  # x unit (rows per site)
    pushed_cells,
    pushed_cells,
    st.integers(-5, 60),  # lo site
    st.integers(0, 30),  # range length
)


def assemble(
    inputs: Tuple[Any, ...],
) -> Tuple[CurveSet, float, Tuple[int, int]]:
    """The finish_evaluation curve set of the inputs, and its floor."""
    gp_x, target_weight, dy, x_unit, right_raw, left_raw, lo, length = inputs
    right = [
        (cur, cur if anchor is None else anchor, offset, weight * x_unit)
        for cur, anchor, offset, weight in right_raw
    ]
    left = [
        (cur, cur if anchor is None else anchor, offset, weight * x_unit)
        for cur, anchor, offset, weight in left_raw
    ]
    wt_x = target_weight * x_unit
    constant = target_weight * abs(dy)
    curves = [
        DisplacementCurve.target(gp_x, wt_x),
        DisplacementCurve.constant(constant),
    ]
    curves += [DisplacementCurve.pushed_right(*cell) for cell in right]
    curves += [DisplacementCurve.pushed_left(*cell) for cell in left]
    baseline = sum(w * abs(cur - anchor) for cur, anchor, _, w in right + left)
    if baseline:
        curves.append(DisplacementCurve.constant(-baseline))
    hi = lo + length
    floor = cost_floor(gp_x, wt_x, constant, right, left, lo, hi)
    return CurveSet(curves), floor, (lo, hi)


@settings(max_examples=300, deadline=None)
@given(curve_inputs)
def test_floor_never_exceeds_the_minimized_cost(inputs):
    compiled, floor, (lo, hi) = assemble(inputs)
    best = compiled.minimize(lo, hi)
    assert best is not None
    assert floor <= best[1]


@pytest.fixture(scope="module")
def railed_guard() -> RoutabilityGuard:
    """A guard over a design with vertical rails and IO pins."""
    return RoutabilityGuard(stand_in("fenced_mixed", 11))


@settings(max_examples=200, deadline=None)
@given(curve_inputs, st.integers(0, 3))
def test_pinless_guard_walk_keeps_the_optimum(railed_guard, inputs, row):
    compiled, _, (lo, hi) = assemble(inputs)
    best = compiled.minimize(lo, hi)
    assert best is not None
    x_opt = best[0]
    pinless = CellType("PINLESS", 2, 1)
    assert railed_guard.adjust_x(
        pinless, row, x_opt, lo, hi, compiled.value
    ) == (x_opt, 0.0)
    assert railed_guard.adjust_x_vector(
        pinless, row, x_opt, lo, hi, compiled.value, compiled.values
    ) == (x_opt, 0.0)
