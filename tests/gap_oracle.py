"""Test-only reference for the per-row gap enumeration of §3.1.

This is the walk the legalizer used before window clipping and linear
run bounds (:meth:`repro.core.insertion.InsertionContext._gaps_in_segment`):
it scans *every* cell of the segment, splits it into wall-separated runs
of local cells, and rebuilds each gap's rough bounds by re-walking its
run, which costs O(run length) per gap.  It shares no code with the
production scan it checks (tests/test_soa_equivalence.py), and its
signature matches the method, so tests can monkeypatch it in.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.insertion import Gap, InsertionContext
from repro.model.row import Segment


def gaps_in_segment(
    context: InsertionContext, row: int, segment: Segment
) -> List[Gap]:
    """Gaps of every wall-separated run of local cells in the segment.

    Non-local cells (fixed, or poking out of the window) split the
    segment into independent runs; each run contributes its own gap
    list, bounded by the adjacent walls (or segment ends).
    """
    self = context
    occupancy = self.occupancy
    placement = occupancy.placement
    cells = occupancy.cells_in_range(row, segment.x_lo, segment.x_hi)

    runs: List[Tuple[int, Optional[int], List[int], int, Optional[int]]] = []
    # Edge rules also apply across segment (fence) boundaries, where
    # sites are contiguous: a cell just beyond the boundary pushes the
    # usable bound inward by its required gap.
    left_bound = segment.x_lo
    outside_left = occupancy.left_neighbor(row, segment.x_lo)
    if outside_left is not None:
        outside_end = (
            placement.x[outside_left] + self.cell_width(outside_left)
        )
        # Unconditional: the rule reaches across the boundary even
        # when the outside cell stops short of it (no-op when it is
        # further away than the required gap).
        left_bound = max(
            left_bound, outside_end + self.edge_gap(outside_left, -1)
        )
    right_cap = segment.x_hi
    outside_right = occupancy.right_neighbor(row, segment.x_hi)
    if outside_right is not None:
        outside_x = placement.x[outside_right]
        right_cap = min(
            right_cap, outside_x - self.edge_gap(-1, outside_right)
        )
    left_wall_cell: Optional[int] = None
    local_run: List[int] = []
    for cell in cells:
        if self.is_local(cell):
            local_run.append(cell)
            continue
        runs.append(
            (left_bound, left_wall_cell, local_run, placement.x[cell], cell)
        )
        left_bound = placement.x[cell] + self.cell_width(cell)
        left_wall_cell = cell
        local_run = []
    runs.append((left_bound, left_wall_cell, local_run, right_cap, None))

    gaps: List[Gap] = []
    for run in runs:
        run_lo, lwall, run_cells, run_hi, rwall = run
        if run_hi - run_lo < self.target_type.width:
            continue
        # Skip runs that cannot intersect the window horizontally (the
        # target is searched inside the window; pushes may still exit).
        if run_hi <= self.window.xlo or run_lo >= self.window.xhi:
            continue
        entities: List[Optional[int]] = [None] + run_cells + [None]
        for index in range(len(entities) - 1):
            gap = make_gap(
                self,
                row,
                segment,
                entities[index],
                entities[index + 1],
                run_lo,
                run_hi,
                lwall,
                rwall,
                run_cells,
                index,
            )
            if gap is not None:
                gaps.append(gap)
    return gaps


def make_gap(
    context: InsertionContext,
    row: int,
    segment: Segment,
    left_cell: Optional[int],
    right_cell: Optional[int],
    left_bound: int,
    right_bound: int,
    left_wall_cell: Optional[int],
    right_wall_cell: Optional[int],
    local_run: List[int],
    gap_index: int,
) -> Optional[Gap]:
    """Build one gap with rough per-row compression bounds."""
    self = context
    width = self.target_type.width

    # Leftmost achievable target x: compress everything left of the gap.
    position = float(left_bound)
    previous: Optional[int] = left_wall_cell
    for cell in local_run[:gap_index]:
        if previous is not None:
            position += self.edge_gap(previous, cell)
        position += self.cell_width(cell)
        previous = cell
    lo_rough = position + (self.edge_gap(previous, -1) if previous is not None else 0)

    # Rightmost achievable: compress everything right of the gap.
    position = float(right_bound)
    previous = right_wall_cell
    for cell in reversed(local_run[gap_index:]):
        if previous is not None:
            position -= self.edge_gap(cell, previous)
        position -= self.cell_width(cell)
        previous = cell
    hi_rough = position - width - (
        self.edge_gap(-1, previous) if previous is not None else 0
    )

    if lo_rough > hi_rough:
        return None
    return Gap(
        row=row,
        segment=segment,
        left_cell=left_cell,
        right_cell=right_cell,
        left_bound=left_bound,
        right_bound=right_bound,
        left_wall_cell=left_wall_cell,
        right_wall_cell=right_wall_cell,
        lo_rough=lo_rough,
        hi_rough=hi_rough,
    )
