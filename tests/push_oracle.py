"""Test-only reference for the transitive push analysis of §3.1.

This is the per-candidate walk the legalizer used before the memoized
kernel (:meth:`repro.core.insertion.InsertionContext.push_side`): for
every candidate it collects the push set by BFS through local,
same-segment neighbors, sorts it, assigns longest-path chain offsets
outward from the target, and computes each pushed cell's extreme
position inward from the walls.  It recomputes everything per call, so
it shares no memo with the kernel it checks (tests/test_push_kernel.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.insertion import Gap, InsertionContext
from repro.model.row import Segment


def push_side(
    context: InsertionContext, gaps: Sequence[Gap], side: int
) -> Optional[Tuple[Dict[int, int], float]]:
    """Transitive push analysis on one side of the insertion point.

    Args:
        context: the insertion context (its occupancy is frozen).
        gaps: per-row gap choices.
        side: +1 for the right side, -1 for the left side.

    Returns:
        ``(offsets, limit)`` where ``offsets[cell]`` is the chain
        offset from the target and ``limit`` bounds the target's x
        (upper bound for ``side=+1``, lower bound for ``side=-1``),
        or None when some push cannot fit.
    """
    self = context
    placement = self.occupancy.placement
    width_t = self.target_type.width

    neighbor_cache: Dict[
        int, List[Tuple[int, Optional[int], Optional[Segment]]]
    ] = {}

    def info(cell: int) -> List[Tuple[int, Optional[int], Optional[Segment]]]:
        cached = neighbor_cache.get(cell)
        if cached is None:
            cached = self._segment_neighbors(cell, side)
            neighbor_cache[cell] = cached
        return cached

    # 1. Collect the push set by BFS through local, same-segment
    # neighbors.  A neighbor beyond a segment (fence/blockage) boundary
    # can never be touched by this cell, so pushes must not propagate
    # across it — the segment end is the wall instead.
    seeds = [
        (gap.right_cell if side > 0 else gap.left_cell) for gap in gaps
    ]
    push_set: Set[int] = set(c for c in seeds if c is not None)
    frontier = list(push_set)
    while frontier:
        cell = frontier.pop()
        for _row, neighbor, _segment in info(cell):
            if neighbor is None or neighbor in push_set:
                continue
            if not self.is_local(neighbor):
                continue
            push_set.add(neighbor)
            frontier.append(neighbor)

    ordered = sorted(push_set, key=lambda c: (placement.x[c], c))
    if side < 0:
        ordered.reverse()  # Process outward from the target.

    # 2. Chain offsets (longest paths from the target).
    offsets: Dict[int, int] = {}
    for gap in gaps:
        seed = gap.right_cell if side > 0 else gap.left_cell
        if seed is None:
            continue
        if side > 0:
            off = width_t + self.edge_gap(-1, seed)
        else:
            off = self.cell_width(seed) + self.edge_gap(seed, -1)
        offsets[seed] = max(offsets.get(seed, 0), off)
    for cell in ordered:
        if cell not in offsets:
            # Reachable by BFS but only via cells processed later; give
            # it a zero base so chains through it still accumulate.
            offsets[cell] = 0
        base = offsets[cell]
        for _row, neighbor, _segment in info(cell):
            if neighbor is None or neighbor not in push_set:
                continue
            if side > 0:
                step = self.cell_width(cell) + self.edge_gap(cell, neighbor)
            else:
                step = self.cell_width(neighbor) + self.edge_gap(neighbor, cell)
            offsets[neighbor] = max(offsets.get(neighbor, 0), base + step)

    # 3. Extreme positions against walls (processed inward).
    extreme: Dict[int, float] = {}
    for cell in reversed(ordered):
        bounds: List[float] = []
        width_c = self.cell_width(cell)
        for row, neighbor, segment in info(cell):
            if segment is None:
                return None
            if side > 0:
                if neighbor is not None and neighbor in push_set:
                    bounds.append(
                        extreme[neighbor] - self.edge_gap(cell, neighbor) - width_c
                    )
                elif neighbor is not None:
                    bounds.append(
                        placement.x[neighbor]
                        - self.edge_gap(cell, neighbor)
                        - width_c
                    )
                else:
                    limit = segment.x_hi
                    outside = self.occupancy.right_neighbor(row, segment.x_hi)
                    if outside is not None:
                        # Edge rules reach across the segment boundary
                        # (no-op when the outside cell is far enough).
                        limit = min(
                            limit,
                            placement.x[outside]
                            - self.edge_gap(cell, outside),
                        )
                    bounds.append(limit - width_c)
            else:
                if neighbor is not None and neighbor in push_set:
                    bounds.append(
                        extreme[neighbor]
                        + self.cell_width(neighbor)
                        + self.edge_gap(neighbor, cell)
                    )
                elif neighbor is not None:
                    bounds.append(
                        placement.x[neighbor]
                        + self.cell_width(neighbor)
                        + self.edge_gap(neighbor, cell)
                    )
                else:
                    limit = segment.x_lo
                    outside = self.occupancy.left_neighbor(row, segment.x_lo)
                    if outside is not None:
                        outside_end = (
                            placement.x[outside] + self.cell_width(outside)
                        )
                        # Unconditional, matching the gap bounds above.
                        limit = max(
                            limit,
                            outside_end + self.edge_gap(outside, cell),
                        )
                    bounds.append(limit)
        extreme[cell] = min(bounds) if side > 0 else max(bounds)
        if side > 0 and extreme[cell] < placement.x[cell] - 1e-9:
            return None  # Already violates: cannot even stay put.
        if side < 0 and extreme[cell] > placement.x[cell] + 1e-9:
            return None

    # 4. The target's limit.
    limits: List[float] = []
    for gap in gaps:
        if side > 0:
            if gap.right_cell is not None:
                limits.append(
                    extreme[gap.right_cell]
                    - self.edge_gap(-1, gap.right_cell)
                    - width_t
                )
            else:
                wall_gap = (
                    self.edge_gap(-1, gap.right_wall_cell)
                    if gap.right_wall_cell is not None
                    else 0
                )
                limits.append(gap.right_bound - wall_gap - width_t)
        else:
            if gap.left_cell is not None:
                limits.append(
                    extreme[gap.left_cell]
                    + self.cell_width(gap.left_cell)
                    + self.edge_gap(gap.left_cell, -1)
                )
            else:
                wall_gap = (
                    self.edge_gap(gap.left_wall_cell, -1)
                    if gap.left_wall_cell is not None
                    else 0
                )
                limits.append(gap.left_bound + wall_gap)
    limit = min(limits) if side > 0 else max(limits)
    return offsets, limit


def push_sides(
    context: InsertionContext, gaps: Sequence[Gap]
) -> Optional[Tuple[Dict[int, int], float, Dict[int, int], float]]:
    """Both sides plus the pushed-both-ways check, as the evaluators ran them."""
    right_info = push_side(context, gaps, +1)
    if right_info is None:
        return None
    left_info = push_side(context, gaps, -1)
    if left_info is None:
        return None
    right_offsets, right_limit = right_info
    left_offsets, left_limit = left_info
    if set(right_offsets) & set(left_offsets):
        return None  # A cell would be pushed both left and right.
    return right_offsets, right_limit, left_offsets, left_limit
