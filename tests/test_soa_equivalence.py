"""Bit-equality of the vectorized (SoA) backend against the scalar oracle.

``eval_backend=vector`` routes gap enumeration, curve assembly, the
candidate lower bound, and the guard walk through
:mod:`repro.core.soa`'s structure-of-arrays fast paths.  The scalar
backend stays in the tree as the oracle, and the whole optimization is
only legitimate while the two are *bit-identical* — same placements,
same ``insertions_evaluated`` counts, candidate for candidate.  Push
analysis is outside this comparison: both backends call the same
memoized kernel (:meth:`InsertionContext.push_sides`), so a push bug
would show on both sides alike; tests/test_push_kernel.py checks that
kernel against the per-candidate reference walk instead.  These tests
pin the contract:

* an end-to-end Hypothesis property over random mixed-height designs
  with fences and placement blockages, with routability on and off;
* per-candidate equality of :meth:`InsertionContext.evaluate` (vector)
  against :meth:`InsertionContext.evaluate_scalar` on live mid-run
  occupancies;
* gap-enumeration equality of :meth:`VectorEvaluator.gaps_in_segment`
  against the scalar ``_gaps_in_segment`` walk;
* the batch-computed candidate lower bound against its scalar form;
* :meth:`CurveSet.from_total` (the flat-assembly entry point) against
  the summing constructor, and 2-D ``values`` batches against scalar
  ``value`` calls.
"""

import random

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.curves import CurveSet, sum_curves
from repro.core.insertion import InsertionContext
from repro.core.mgl import LegalizationError, MGLegalizer, mgl_cell_order
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.core.soa import SoAState
from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology

from tests.test_perf_equivalence import random_curves


def build_design(
    seed: int, density: float, with_fence: bool, with_blockage: bool
) -> Design:
    """A random mixed-height design with optional fence and blockage."""
    rng = random.Random(seed)
    tech = Technology(
        cell_types=[
            CellType("S2", 2, 1),
            CellType("S3", 3, 1),
            CellType("D2", 2, 2),
            CellType("T3", 3, 3),
        ]
    )
    rows = rng.choice([8, 12])
    sites = rng.choice([40, 60])
    design = Design(tech, num_rows=rows, num_sites=sites, name=f"soa{seed}")
    fence_id = 0
    if with_fence:
        design.add_fence(
            FenceRegion(
                fence_id=1,
                name="f1",
                rects=[Rect(4, 0, sites // 2, rows // 2 * 2)],
            )
        )
        fence_id = 1
    if with_blockage:
        design.add_blockage(
            Rect(sites - 12, rows // 2, sites - 6, rows // 2 + 2)
        )
    target = density * rows * sites
    area = 0
    index = 0
    while area < target:
        cell_type = rng.choice(tech.cell_types)
        in_fence = with_fence and rng.random() < 0.3
        design.add_cell(
            f"c{index}",
            cell_type,
            rng.uniform(0, sites - cell_type.width),
            rng.uniform(0, rows - cell_type.height),
            fence_id=fence_id if in_fence else 0,
        )
        area += cell_type.width * cell_type.height
        index += 1
    return design


def run_once(
    design: Design, backend: str, routability: bool
) -> "tuple[list, dict]":
    params = LegalizerParams(routability=routability, eval_backend=backend)
    legalizer = MGLegalizer(design, params)
    placement = legalizer.run()
    return list(zip(placement.x, placement.y)), dict(legalizer.stats)


class TestBackendEquivalence:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.5),
           with_fence=st.booleans(), with_blockage=st.booleans(),
           routability=st.booleans())
    def test_vector_matches_scalar(self, seed, density, with_fence,
                                   with_blockage, routability):
        design = build_design(seed, density, with_fence, with_blockage)
        try:
            scalar_pos, scalar_stats = run_once(design, "scalar", routability)
        except LegalizationError:
            assume(False)  # Over-full fence/blockage draw; not this contract.
            return
        vector_pos, vector_stats = run_once(design, "vector", routability)
        assert vector_pos == scalar_pos
        assert (
            vector_stats["insertions_evaluated"]
            == scalar_stats["insertions_evaluated"]
        )
        assert (
            vector_stats["window_expansions"]
            == scalar_stats["window_expansions"]
        )


def _mid_run_states(
    seed: int, fraction: float = 0.6
) -> "tuple[Design, Occupancy, list[int]] | None":
    """A design with the first ``fraction`` of its cells legalized.

    Mid-run occupancies are where the backends actually disagree when
    they disagree — partially filled rows, pushed neighbors, snapped
    positions — so the per-candidate tests run against one instead of a
    synthetic hand-laid grid.  Returns the remaining (unplaced) cells,
    or None when the random draw turns out infeasible.
    """
    design = build_design(seed, 0.4, with_fence=True, with_blockage=True)
    legalizer = MGLegalizer(design, LegalizerParams(routability=False))
    placement = Placement(design)
    occupancy = Occupancy(design, placement)
    for cell in range(design.num_cells):
        if design.cells[cell].fixed:
            placement.move(
                cell, int(design.gp_x[cell]), int(design.gp_y[cell])
            )
            occupancy.add(cell)
    order = list(mgl_cell_order(design, legalizer.params))
    split = max(1, int(len(order) * fraction))
    try:
        for cell in order[:split]:
            legalizer.legalize_cell(occupancy, cell)
    except LegalizationError:
        return None
    return design, occupancy, order[split:]


def _context_pair(
    design: Design, occupancy: Occupancy, target: int
) -> "tuple[InsertionContext, InsertionContext]":
    """(scalar context, vector context) over the same frozen occupancy."""
    window = design.chip_rect
    scalar = InsertionContext(design, occupancy, target, window)
    vector = InsertionContext(
        design, occupancy, target, window,
        soa=SoAState(design, occupancy),
    )
    assert vector._vector is not None
    return scalar, vector


def _gap_fields(gap) -> tuple:
    return (
        gap.row, gap.segment.x_lo, gap.segment.x_hi, gap.left_cell,
        gap.right_cell, gap.left_bound, gap.right_bound,
        gap.left_wall_cell, gap.right_wall_cell, gap.lo_rough, gap.hi_rough,
    )


class TestPerCandidateEquality:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_gap_enumeration_matches_scalar(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        scalar, vector = _context_pair(design, occupancy, remaining[0])
        evaluator = vector._vector
        for row in range(design.num_rows):
            for segment in design.segments_in_row(row):
                expected = scalar._gaps_in_segment(row, segment)
                got = evaluator.gaps_in_segment(row, segment)
                assert [_gap_fields(g) for g in got] == [
                    _gap_fields(g) for g in expected
                ], (row, segment)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_evaluate_matches_scalar_per_candidate(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        checked = 0
        for target in remaining[:3]:
            scalar, vector = _context_pair(design, occupancy, target)
            for bottom_row, gaps in vector.enumerate_insertion_points():
                expected = vector.evaluate_scalar(bottom_row, gaps)
                got = vector.evaluate(bottom_row, gaps)
                if expected is None:
                    assert got is None, (target, bottom_row)
                else:
                    assert got is not None, (target, bottom_row)
                    assert got.x == expected.x
                    assert got.y == expected.y
                    assert got.cost == expected.cost  # bit-equal, no tolerance
                    assert got.moves == expected.moves
                checked += 1
            # The scalar context enumerates the identical candidate set.
            assert [
                (row, tuple(_gap_fields(g) for g in gaps))
                for row, gaps in scalar.enumerate_insertion_points()
            ] == [
                (row, tuple(_gap_fields(g) for g in gaps))
                for row, gaps in vector.enumerate_insertion_points()
            ]
        assume(checked)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_lower_bound_matches_scalar(self, seed):
        state = _mid_run_states(seed)
        assume(state is not None)
        design, occupancy, remaining = state
        assume(remaining)
        _, vector = _context_pair(design, occupancy, remaining[0])
        evaluator = vector._vector
        checked = 0
        for bottom_row, gaps in vector.enumerate_insertion_points():
            assert evaluator.lower_bound(bottom_row, gaps) == (
                vector.lower_bound_scalar(bottom_row, gaps)
            )
            checked += 1
        assume(checked)


class TestCurveBatching:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), count=st.integers(0, 8))
    def test_from_total_matches_constructor(self, seed, count):
        rng = random.Random(seed)
        curves = random_curves(rng, count)
        summed = CurveSet.from_total(sum_curves(curves))
        reference = CurveSet(curves)
        probes = [rng.uniform(-10, 50) for _ in range(25)]
        for x in probes:
            assert summed.value(x) == reference.value(x), x
        assert summed.minimize(-5.0, 45.0) == reference.minimize(-5.0, 45.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000), count=st.integers(0, 8))
    def test_values_2d_batch_matches_scalar(self, seed, count):
        rng = random.Random(seed)
        compiled = CurveSet(random_curves(rng, count))
        # 6 x 8 = 48 points: above the scalar-path cutoff, exercising the
        # flattened searchsorted pass on a candidates-x-probes batch.
        grid = [
            [rng.uniform(-10, 50) for _ in range(8)] for _ in range(6)
        ]
        batch = compiled.values(grid)
        assert batch.shape == (6, 8)
        for i in range(6):
            for j in range(8):
                assert float(batch[i, j]) == compiled.value(grid[i][j])
