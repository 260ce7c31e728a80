"""The single insertion evaluator equals its test oracles.

MGL's insertion evaluation (:class:`repro.core.insertion.InsertionContext`)
has one implementation.  Two of its stages replaced slower reference
walks that now live under ``tests/`` as oracles:

* gap enumeration — the window-clipped scan with linear run bounds
  (``_gaps_in_segment``) against the full-segment walk that re-walks
  each run per gap (tests/gap_oracle.py);
* curve assembly — the summed curve built straight from the push
  offsets (``finish_evaluation``) against per-cell curve objects summed
  by ``CurveSet(curves)`` (tests/curve_oracle.py).

The optimization is only legitimate while both are *bit-identical* to
their oracles.  These tests pin the contract:

* per-row gap lists, field for field and in order, for every row and
  segment of live mid-run occupancies (fences with edge rules across
  their boundaries, fixed macros, blockages), under windows of several
  sizes and offsets — most segments are much wider than the window;
* per-candidate ``x``, ``y``, ``cost`` (bit-equal) and ``moves``
  against the oracle finish, with routability on and off, with
  ``reference="current"``, and under an incumbent cutoff;
* an end-to-end Hypothesis property: legalizing with both oracles
  monkeypatched in and without them gives identical placements,
  ``insertions_evaluated`` and ``window_expansions``;
* :meth:`CurveSet.from_total` (the flat-assembly entry point) against
  the summing constructor, and 2-D ``values`` batches against scalar
  ``value`` calls.

Push analysis has its own oracle (tests/test_push_kernel.py), which
imports :func:`build_design` from here.
"""

import dataclasses
import random
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.benchgen import generate_design, iccad2017_suite
from repro.core.curves import CurveSet, sum_curves
from repro.core.insertion import Gap, InsertionContext
from repro.core.mgl import LegalizationError, MGLegalizer, mgl_cell_order
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology

from tests import curve_oracle, gap_oracle
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


def fenced_stand_in(seed: int) -> Design:
    """A tiny design from the benchmark's ``fenced_mixed`` suite row.

    1-4-row cells, two fences, edge-spacing rules, P/G rails with pins,
    IO pins, two blockages and two fixed macros.
    """
    spec = iccad2017_suite(0.001, names=["des_perf_b_md2"])[0].spec
    return generate_design(dataclasses.replace(spec, seed=seed))


def legalize(
    design: Design, routability: bool
) -> Tuple[List[Tuple[int, int]], Dict[str, int]]:
    legalizer = MGLegalizer(design, LegalizerParams(routability=routability))
    placement = legalizer.run()
    return list(zip(placement.x, placement.y)), dict(legalizer.stats)


def install_oracles(patch: pytest.MonkeyPatch) -> None:
    """Route gap enumeration and curve assembly through the oracles."""
    patch.setattr(
        InsertionContext, "_gaps_in_segment", gap_oracle.gaps_in_segment
    )
    patch.setattr(
        InsertionContext, "finish_evaluation", curve_oracle.finish_evaluation
    )


class TestOracleEquivalence:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.5),
           with_fence=st.booleans(), with_blockage=st.booleans(),
           routability=st.booleans())
    def test_single_path_matches_oracles(self, seed, density, with_fence,
                                         with_blockage, routability):
        design = build_design(seed, density, with_fence, with_blockage)
        try:
            with pytest.MonkeyPatch.context() as patch:
                install_oracles(patch)
                oracle_pos, oracle_stats = legalize(design, routability)
        except LegalizationError:
            assume(False)  # Over-full fence/blockage draw; not this contract.
            return
        got_pos, got_stats = legalize(design, routability)
        assert got_pos == oracle_pos
        for counter in ("insertions_evaluated", "window_expansions"):
            assert got_stats[counter] == oracle_stats[counter], counter

    @pytest.mark.parametrize("seed", [11, 12])
    def test_fenced_stand_in_matches_oracles(self, seed):
        """Edge rules, rails with pins, macros: the benchmark's features."""
        design = fenced_stand_in(seed)
        with pytest.MonkeyPatch.context() as patch:
            install_oracles(patch)
            oracle_pos, oracle_stats = legalize(design, True)
        got_pos, got_stats = legalize(design, True)
        assert got_pos == oracle_pos
        for counter in ("insertions_evaluated", "window_expansions"):
            assert got_stats[counter] == oracle_stats[counter], counter


def _mid_run_state(
    design: Design, fraction: float = 0.6, per_height: int = 2
) -> "Optional[Tuple[MGLegalizer, Occupancy, List[int]]]":
    """A live occupancy with held-out targets of every height.

    Mid-run occupancies are where a fast path disagrees with its oracle
    when it does — partially filled rows, pushed neighbors, snapped
    positions — so the per-candidate tests run against one instead of a
    synthetic hand-laid grid.  Up to ``per_height`` targets of each
    height are held out, then the first ``fraction`` of the other cells
    are legalized in MGL order.  None when the draw is infeasible.
    """
    legalizer = MGLegalizer(design, LegalizerParams(routability=True))
    placement = Placement(design)
    occupancy = Occupancy(design, placement)
    for cell in range(design.num_cells):
        if design.cells[cell].fixed:
            placement.move(
                cell, int(design.gp_x[cell]), int(design.gp_y[cell])
            )
            occupancy.add(cell)
    order = list(mgl_cell_order(design, legalizer.params))
    picked: Dict[int, List[int]] = {}
    for cell in order:
        group = picked.setdefault(design.cell_heights[cell], [])
        if len(group) < per_height:
            group.append(cell)
    targets = [cell for height in sorted(picked) for cell in picked[height]]
    held = set(targets)
    rest = [cell for cell in order if cell not in held]
    try:
        for cell in rest[: max(1, int(len(rest) * fraction))]:
            legalizer.legalize_cell(occupancy, cell)
    except LegalizationError:
        return None
    return legalizer, occupancy, targets


def _windows(
    legalizer: MGLegalizer, cell: int, rng: random.Random
) -> Iterator[Rect]:
    """The legalizer's own windows, random boxes, and the chip.

    The random boxes are 1 to 30 sites wide at integer and fractional
    offsets, some hanging off the chip edge, so that the clipped scan
    meets walls on both sides, on one side, and on neither.
    """
    design = legalizer.design
    yield legalizer.initial_window(cell)
    yield legalizer.initial_window(cell, legalizer.params.window_expand)
    for width in (1.0, 3.0, 7.5, 12.0, 30.0):
        for _ in range(3):
            xlo = rng.uniform(-4.0, design.num_sites)
            if rng.random() < 0.5:
                xlo = float(int(xlo))
            ylo = float(rng.randrange(0, design.num_rows))
            yield Rect(xlo, ylo, xlo + width, ylo + rng.choice([1, 3, 6]))
    yield design.chip_rect


def _gap_fields(gap: Gap) -> tuple:
    return (
        gap.row, gap.segment.x_lo, gap.segment.x_hi, gap.left_cell,
        gap.right_cell, gap.left_bound, gap.right_bound,
        gap.left_wall_cell, gap.right_wall_cell, gap.lo_rough, gap.hi_rough,
    )


def _designs(seed: int) -> Iterator[Design]:
    yield fenced_stand_in(seed)
    yield build_design(seed, 0.45, with_fence=True, with_blockage=True)


class TestPerCandidateEquality:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_gap_enumeration_matches_scalar(self, seed):
        """Every segment's gaps equal the full-segment walk's, in order."""
        rng = random.Random(seed)
        compared = 0
        for design in _designs(seed):
            state = _mid_run_state(design)
            if state is None:
                continue
            legalizer, occupancy, targets = state
            for target in targets:
                for window in _windows(legalizer, target, rng):
                    context = InsertionContext(
                        design, occupancy, target, window
                    )
                    for row in range(design.num_rows):
                        for segment in design.segments_in_row(row):
                            expected = gap_oracle.gaps_in_segment(
                                context, row, segment
                            )
                            got = context._gaps_in_segment(row, segment)
                            assert [_gap_fields(g) for g in got] == [
                                _gap_fields(g) for g in expected
                            ], (target, window, row, segment)
                            compared += len(expected)
        assume(compared)

    @pytest.mark.parametrize("seed", range(4))
    def test_gap_enumeration_on_illegal_occupancies(self, seed):
        """Cells straddling fence and blockage edges, edge-rule violations.

        Legal states never have a cell overhanging a segment's left end,
        which the scan must still count as the segment's first cell.
        """
        # Imported here: tests/test_push_kernel.py imports this module.
        from tests.test_push_kernel import random_occupancy

        rng = random.Random(seed)
        design = fenced_stand_in(seed)
        occupancy, targets = random_occupancy(design, seed, per_height=2)
        legalizer = MGLegalizer(design, LegalizerParams(routability=False))
        overhangs = 0
        for row in range(design.num_rows):
            for segment in design.segments_in_row(row):
                cells = occupancy.cells_in_range(row, segment.x_lo, segment.x_hi)
                overhangs += any(
                    occupancy.placement.x[cell] < segment.x_lo for cell in cells
                )
        assert overhangs
        for target in targets:
            for window in _windows(legalizer, target, rng):
                context = InsertionContext(design, occupancy, target, window)
                for row in range(design.num_rows):
                    for segment in design.segments_in_row(row):
                        expected = gap_oracle.gaps_in_segment(
                            context, row, segment
                        )
                        got = context._gaps_in_segment(row, segment)
                        assert [_gap_fields(g) for g in got] == [
                            _gap_fields(g) for g in expected
                        ], (target, window, row, segment)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_evaluate_matches_scalar_per_candidate(self, seed):
        """The direct curve assembly equals the per-cell curve objects."""
        checked = 0
        for design in _designs(seed):
            state = _mid_run_state(design)
            if state is None:
                continue
            legalizer, occupancy, targets = state
            for target in targets:
                for guard in (None, legalizer.guard):
                    for reference in ("gp", "current"):
                        checked += self._compare_candidates(
                            design, occupancy, target, guard, reference
                        )
        assume(checked)

    @staticmethod
    def _compare_candidates(design, occupancy, target, guard, reference):
        context = InsertionContext(
            design, occupancy, target, design.chip_rect,
            guard=guard, reference=reference,
        )
        checked = 0
        incumbent: Optional[float] = None
        for bottom_row, gaps in context.enumerate_insertion_points():
            sides = context.push_sides(gaps)
            if sides is None:
                assert context.evaluate(bottom_row, gaps) is None
                continue
            # With no cutoff, then under a live incumbent's cost.
            for cutoff in (None, incumbent):
                expected = curve_oracle.finish_evaluation(
                    context, bottom_row, gaps, *sides, cutoff=cutoff
                )
                got = context.finish_evaluation(
                    bottom_row, gaps, *sides, cutoff=cutoff
                )
                if expected is None:
                    assert got is None, (target, bottom_row, cutoff)
                    continue
                assert got is not None, (target, bottom_row, cutoff)
                assert got.x == expected.x
                assert got.y == expected.y
                assert got.cost == expected.cost  # bit-equal, no tolerance
                assert got.moves == expected.moves
                checked += 1
                if incumbent is None or expected.cost < incumbent:
                    incumbent = expected.cost
        return checked


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
