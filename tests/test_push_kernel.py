"""The memoized push kernel equals the per-candidate reference walk.

:meth:`InsertionContext.push_sides` memoizes, per context and per
``(cell, side)``, each cell's successor edges and extreme position.
``tests/push_oracle.py`` keeps
the per-candidate walk it replaced (BFS, sort, offsets pass, extremes
pass).  These tests pin kernel == oracle on every candidate:

* live mid-run occupancies of tiny stand-ins of the benchmark's
  ``fenced_mixed`` (1-4-row cells, fences, rails, edge rules) and
  ``dense_2row`` designs, at the legalizer's own windows and at the
  chip window, for 1- to 4-row targets on both sides: ``None``-ness,
  the limit, and ``list(offsets.items())`` including order (the order
  the float curve sums downstream depend on);
* :meth:`InsertionContext.push_sides` against the oracle's two sides
  plus the both-ways and empty-range rejections;
* a Hypothesis property over random designs with fences and blockages;
* random overlap-free but illegal occupancies (cells across blockages
  and fence edges, edge-rule violations), which reach the infeasible
  branches legal states almost never do;
* a single-row window with thousands of local cells, where a recursive
  walk would exceed the interpreter's recursion limit.
"""

import dataclasses
import random
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.benchgen import generate_design, iccad2017_suite, ispd2015_suite
from repro.core.insertion import Gap, InsertionContext
from repro.core.mgl import LegalizationError, MGLegalizer, mgl_cell_order
from repro.core.occupancy import Occupancy
from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology

from tests import push_oracle
from tests.test_soa_equivalence import build_design

SCALE = 0.001


def stand_in(kind: str, seed: int) -> Design:
    """A tiny design generated from the benchmark workload's suite row."""
    if kind == "fenced_mixed":
        spec = iccad2017_suite(SCALE, names=["des_perf_b_md2"])[0].spec
    else:
        spec = ispd2015_suite(SCALE, names=["fft_1"])[0].spec
    return generate_design(dataclasses.replace(spec, seed=seed))


def mid_run(
    design: Design, per_height: int, fraction: float = 0.6
) -> Optional[Tuple[MGLegalizer, Occupancy, List[int]]]:
    """A live occupancy with held-out targets of every height.

    Up to ``per_height`` targets of each cell height are held out, then
    the first ``fraction`` of the other cells are legalized in MGL
    order (which places tall cells first, so holding out is how tall
    targets stay unplaced).  None when the draw is infeasible.
    """
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


def windows(legalizer: MGLegalizer, cell: int) -> Iterator[Rect]:
    """The legalizer's first two windows for ``cell``, then the chip."""
    yield legalizer.initial_window(cell)
    yield legalizer.initial_window(cell, legalizer.params.window_expand)
    yield legalizer.design.chip_rect


def kernel_side(
    context: InsertionContext, gaps: Tuple[Gap, ...], side: int
) -> Optional[Tuple[Dict[int, int], int]]:
    """One side of :meth:`InsertionContext.push_sides`, as the oracle's."""
    entry = context._side_limit(gaps, side)
    if entry is None:
        return None
    limit, seeds = entry
    return context._walk(seeds, side), limit


def assert_side_matches(
    context: InsertionContext, gaps: Tuple[Gap, ...], side: int
) -> bool:
    """Kernel vs oracle on one side; returns whether the push fits."""
    expected = push_oracle.push_side(context, gaps, side)
    got = kernel_side(context, gaps, side)
    if expected is None:
        assert got is None, (side, gaps)
        return False
    assert got is not None, (side, gaps)
    assert got[1] == expected[1], (side, gaps)
    assert list(got[0].items()) == list(expected[0].items()), (side, gaps)
    return True


def assert_sides_match(
    context: InsertionContext, gaps: Tuple[Gap, ...]
) -> None:
    """``push_sides`` vs the oracle's sides plus both rejections."""
    expected = push_oracle.push_sides(context, gaps)
    got = context.push_sides(gaps)
    if expected is None or expected[3] > expected[1]:
        # The kernel also rejects an empty x-range, which the shared
        # evaluation tail would reject first thing anyway.
        assert got is None, gaps
        return
    assert got is not None, gaps
    assert got[1] == expected[1] and got[3] == expected[3]
    assert list(got[0].items()) == list(expected[0].items())
    assert list(got[2].items()) == list(expected[2].items())


def check_context(context: InsertionContext, reverse: bool = False) -> int:
    """Compare every enumerated candidate of one context; count them."""
    candidates = list(context.enumerate_insertion_points())
    if reverse:
        candidates.reverse()  # Fill the memo in a different order.
    for _bottom_row, gaps in candidates:
        assert_side_matches(context, gaps, +1)
        assert_side_matches(context, gaps, -1)
        assert_sides_match(context, gaps)
    return len(candidates)


def check_mid_run(design: Design, per_height: int) -> Dict[int, int]:
    """Candidates checked per target height on one mid-run occupancy."""
    state = mid_run(design, per_height)
    assert state is not None
    legalizer, occupancy, targets = state
    checked: Dict[int, int] = {}
    for target in targets:
        for window in windows(legalizer, target):
            for reverse in (False, True):
                context = InsertionContext(
                    design, occupancy, target, window,
                    weight_of=legalizer.weight_of,
                )
                height = design.cell_heights[target]
                checked[height] = checked.get(height, 0) + check_context(
                    context, reverse
                )
    return checked


class TestKernelMatchesOracle:
    def test_fenced_mixed_stand_in(self):
        checked = check_mid_run(stand_in("fenced_mixed", 3), per_height=3)
        assert sorted(checked) == [1, 2, 3, 4]
        assert all(count > 0 for count in checked.values()), checked

    def test_dense_2row_stand_in(self):
        checked = check_mid_run(stand_in("dense_2row", 3), per_height=4)
        assert sorted(checked) == [1, 2]
        assert all(count > 0 for count in checked.values()), checked

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.3, 0.6),
           with_fence=st.booleans(), with_blockage=st.booleans())
    def test_random_designs(self, seed, density, with_fence, with_blockage):
        design = build_design(seed, density, with_fence, with_blockage)
        state = mid_run(design, per_height=2)
        assume(state is not None)
        legalizer, occupancy, targets = state
        checked = 0
        for target in targets:
            for window in windows(legalizer, target):
                context = InsertionContext(design, occupancy, target, window)
                checked += check_context(context)
        assume(checked)


def random_occupancy(
    design: Design, seed: int, per_height: int
) -> Tuple[Occupancy, List[int]]:
    """An overlap-free but otherwise *illegal* occupancy, plus targets.

    Cells land at random sites, ignoring fences, blockages, row parity
    and edge rules, and half of them abut a random placed cell.  Such
    states reach the kernel's infeasible branches — a spanned row with
    no segment, a cell already past its extreme — that legal mid-run
    occupancies almost never do.
    """
    rng = random.Random(seed)
    placement = Placement(design)
    occupancy = Occupancy(design, placement)
    spans: List[List[Tuple[int, int]]] = [[] for _ in range(design.num_rows)]
    targets: Dict[int, List[int]] = {}
    cells = list(range(design.num_cells))
    rng.shuffle(cells)
    for cell in cells:
        width = design.cell_widths[cell]
        height = design.cell_heights[cell]
        group = targets.setdefault(height, [])
        if len(group) < per_height and not design.cells[cell].fixed:
            group.append(cell)
            continue
        for _attempt in range(8):
            row = rng.randrange(design.num_rows - height + 1)
            if spans[row] and rng.random() < 0.5:
                x = rng.choice(spans[row])[1]
            else:
                x = rng.randrange(design.num_sites - width + 1)
            if x + width > design.num_sites:
                continue
            if all(
                end <= x or start >= x + width
                for r in range(row, row + height)
                for start, end in spans[r]
            ):
                placement.move(cell, x, row)
                occupancy.add(cell)
                for r in range(row, row + height):
                    spans[r].append((x, x + width))
                break
    return occupancy, [cell for h in sorted(targets) for cell in targets[h]]


class TestIllegalOccupancies:
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_matches_oracle(self, seed):
        design = stand_in("fenced_mixed", seed)
        occupancy, targets = random_occupancy(design, seed, per_height=2)
        legalizer = MGLegalizer(design, LegalizerParams(routability=False))
        infeasible = 0
        checked = 0
        for target in targets:
            for window in (legalizer.initial_window(target), design.chip_rect):
                context = InsertionContext(design, occupancy, target, window)
                for _bottom_row, gaps in context.enumerate_insertion_points():
                    for side in (+1, -1):
                        if not assert_side_matches(context, gaps, side):
                            infeasible += 1
                    assert_sides_match(context, gaps)
                    checked += 1
        assert checked > 0
        assert infeasible > 0


class TestDeepChain:
    def test_long_single_row_chain_is_walked_iteratively(self):
        """A 2,400-cell run in one row: one push closure spans it all."""
        count = 2400
        tech = Technology(cell_types=[CellType("S2", 2, 1)])
        design = Design(tech, num_rows=1, num_sites=2 * count + 40, name="chain")
        for index in range(count + 1):
            design.add_cell(f"c{index}", tech.cell_types[0], 0.0, 0.0)
        target = count
        placement = Placement(design)
        occupancy = Occupancy(design, placement)
        for cell in range(count):
            placement.move(cell, 20 + 2 * cell, 0)
            occupancy.add(cell)
        context = InsertionContext(
            design, occupancy, target, design.chip_rect
        )
        # The gap left of the run pushes every cell right; the gap right
        # of it pushes every cell left.
        first = next(
            gaps for _row, gaps in context.enumerate_insertion_points()
            if gaps[0].left_cell is None and gaps[0].right_cell == 0
        )
        last_gap = Gap(
            row=0, segment=first[0].segment,
            left_cell=count - 1, right_cell=None,
            left_bound=first[0].left_bound, right_bound=first[0].right_bound,
            left_wall_cell=None, right_wall_cell=None,
            lo_rough=0.0, hi_rough=0.0,
        )
        # Well below the chain length, so a recursive walk would fail.
        limit = sys.getrecursionlimit()
        assert count > limit
        for gaps, side in (((first[0],), +1), ((last_gap,), -1)):
            got = kernel_side(context, gaps, side)
            assert got is not None
            assert len(got[0]) == count
            assert assert_side_matches(context, gaps, side)
        assert len(context._push_extremes) == 2 * count
