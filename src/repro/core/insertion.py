"""Insertion-point enumeration and evaluation inside a window (§3.1).

Placing a target cell of height ``h`` means choosing, in ``h`` consecutive
rows, a *gap* between already-placed cells in each row — an *insertion
point* — plus an x position.  Local cells (those lying completely inside
the window) may be pushed aside; everything else is a wall.

The evaluation is exact for multi-row local cells: pushes propagate
through a neighbor DAG across **all** rows a pushed cell spans, with
longest-path offsets, so a combination is only deemed feasible when every
transitive push fits, and the displacement curves (types A-D) receive the
exact chain offsets.  Edge-spacing rules enter the offsets as mandatory
gaps ("fillers", §3.4).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.curves import (
    SLACK,
    CurveSet,
    DisplacementCurve,
    PushedCurve,
    cost_floor,
)
from repro.core.occupancy import Occupancy
from repro.core.refine import RoutabilityGuard
from repro.model.approx import approx_eq
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.row import Segment


#: Memoized successor edges of one (cell, side): ``(local neighbor,
#: step)`` pairs in row order, deduplicated.
PushEdges = Tuple[Tuple[int, int], ...]
#: Push analysis of one candidate: (right offsets, right limit, left
#: offsets, left limit).  The offsets dicts are in push order (right
#: side outward-ascending, left side outward-descending), which the
#: float curve summation downstream depends on.
PushSides = Tuple[Dict[int, int], int, Dict[int, int], int]


@dataclass(frozen=True)
class Gap:
    """A candidate gap in one row of an insertion point.

    ``left_cell``/``right_cell`` are the *local* cells bounding the gap
    (None at a wall).  ``left_bound``/``right_bound`` are the wall x
    coordinates when there is no local cell on that side: either a segment
    boundary or the edge of a non-local cell (whose id is kept in
    ``left_wall_cell``/``right_wall_cell`` for edge-spacing rules).
    ``lo_rough``/``hi_rough`` bound the achievable target x using per-row
    compression only; the exact bound is computed during evaluation.
    """

    row: int
    segment: Segment
    left_cell: Optional[int]
    right_cell: Optional[int]
    left_bound: int
    right_bound: int
    left_wall_cell: Optional[int]
    right_wall_cell: Optional[int]
    lo_rough: float
    hi_rough: float


@dataclass
class EvaluatedInsertion:
    """A feasible, costed placement choice for the target cell."""

    x: int
    y: int
    cost: float
    moves: List[Tuple[int, int]]  # (local cell, new x) spread moves
    gaps: Tuple[Gap, ...] = ()

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.cost, self.y, self.x)


class GapCache:
    """Memoized per-row gap enumeration, invalidated by occupancy versions.

    Entries are keyed ``(row, profile)`` where the *profile* captures every
    target-side input of :meth:`InsertionContext.gaps_in_row` — cell type,
    fence, GP x, window rectangle, and the per-row gap cap — while the
    occupancy side is covered by :meth:`Occupancy.row_version`: the
    occupancy bumps a row's version whenever ``add``/``update_x``/``remove``
    touches a cell spanning that row, which is exactly the set of mutations
    that can change the row's gap list.  A cached entry is served only
    while its recorded version is still current, so cached and uncached
    enumeration are indistinguishable (tests/test_perf_equivalence.py).

    The main reuse is the h-fold bottom-row overlap of multi-row targets
    (row ``r`` is re-enumerated for bottom rows ``r-h+1 .. r``) and the
    §3.5 scheduler's re-evaluation of unchanged windows.  The cache is
    bound to one occupancy at a time; a lookup against a different
    occupancy object clears and rebinds it.  Returned lists are shared —
    callers must treat them as immutable.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._occupancy: Optional[Occupancy] = None
        self._entries: Dict[
            Tuple[int, Tuple[object, ...]], Tuple[int, List[Gap]]
        ] = {}

    def gaps_in_row(self, context: "InsertionContext", row: int) -> List[Gap]:
        """Cached equivalent of ``context._compute_gaps_in_row(row)``."""
        occupancy = context.occupancy
        if occupancy is not self._occupancy:
            self._entries.clear()
            self._occupancy = occupancy
        version = occupancy.row_version(row)
        key = (row, context.profile)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == version:
            self.hits += 1
            return entry[1]
        self.misses += 1
        gaps = context._compute_gaps_in_row(row)
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = (version, gaps)
        return gaps

    def clear(self) -> None:
        self._entries.clear()
        self._occupancy = None


class InsertionContext:
    """Shared state for enumerating/evaluating insertions of one target.

    Args:
        design: the design.
        occupancy: current occupancy (target not yet registered).
        target: target cell index.
        window: window rectangle in site/row units.
        weight_of: displacement weight per cell (row-height units); the
            default weighs every cell equally.
        guard: optional routability guard (see
            :class:`repro.core.refine.RoutabilityGuard`); filters rows with
            horizontal-rail conflicts and steers x away from vertical
            rails / IO pins.
        reference: ``"gp"`` measures local-cell displacement from GP
            positions (MGL, the paper's method); ``"current"`` measures
            from the cells' current positions (MLL [12], reproduced as a
            baseline) — this collapses curve types C/D back into A/B.
        gap_cache: optional shared :class:`GapCache`; per-row gap lists
            are looked up there instead of recomputed.  Must only be
            shared between contexts querying the same occupancy from a
            single thread (the scheduler's thread-pool path passes None).
    """

    def __init__(
        self,
        design: Design,
        occupancy: Occupancy,
        target: int,
        window: Rect,
        weight_of: Optional[Callable[[int], float]] = None,
        guard: Optional[RoutabilityGuard] = None,
        reference: str = "gp",
        max_gaps_per_row: int = 12,
        gap_cache: Optional[GapCache] = None,
    ):
        if reference not in ("gp", "current"):
            raise ValueError(f"unknown displacement reference {reference!r}")
        self.design = design
        self.occupancy = occupancy
        self.target = target
        self.window = window
        self.weight_of: Callable[[int], float] = weight_of or (lambda _cell: 1.0)
        self.guard = guard
        self.reference = reference
        self.max_gaps_per_row = max_gaps_per_row
        self.gap_cache = gap_cache

        self.target_type = design.cell_type_of(target)
        self.fence = design.fence_of(target)
        self.gp_x = design.gp_x[target]
        self.gp_y = design.gp_y[target]
        self.x_unit = design.x_unit_rows
        # Target constants of the bound, the floor and the curve assembly.
        self._target_weight = self.weight_of(target)
        self._target_weight_x = self._target_weight * self.x_unit
        #: Everything (besides the occupancy) that a row's gap list depends
        #: on; two contexts with equal profiles enumerate identical gaps.
        self.profile: Tuple[object, ...] = (
            self.target_type.name,
            self.fence,
            self.gp_x,
            window,
            max_gaps_per_row,
        )
        self._widths = design.cell_widths
        self._heights = design.cell_heights
        self._local_cache: Dict[int, bool] = {}
        self._gap_cache: Dict[Tuple[int, int], int] = {}
        self._edge_rules = len(design.technology.edge_spacing) > 0
        # The push memo of :meth:`push_sides`, keyed (cell, side): valid
        # for the context's lifetime because the occupancy is frozen, and
        # shared by every candidate, since push sets of different
        # insertion points overlap heavily.
        self._push_edges: Dict[Tuple[int, int], PushEdges] = {}
        self._push_extremes: Dict[Tuple[int, int], Optional[int]] = {}
        # Per-row gap lists, memoized for the context's lifetime: the
        # occupancy is frozen while the context exists, so re-enumeration
        # (multi-row targets revisit row r for bottom rows r-h+1..r) can
        # never observe a different list.
        self._row_gaps: Dict[int, List[Gap]] = {}

    # ------------------------------------------------------------------
    # Locality and spacing helpers
    # ------------------------------------------------------------------

    def is_local(self, cell: int) -> bool:
        """Local cells lie completely inside the window and are movable."""
        cached = self._local_cache.get(cell)
        if cached is not None:
            return cached
        if self.design.cells[cell].fixed:
            result = False
        else:
            # Inlined window.contains_rect(placement.rect(cell)): cell
            # rects are never empty, so the bounds test alone decides.
            placement = self.occupancy.placement
            x = placement.x[cell]
            y = placement.y[cell]
            window = self.window
            result = (
                window.xlo <= x
                and x + self._widths[cell] <= window.xhi
                and window.ylo <= y
                and y + self._heights[cell] <= window.yhi
            )
        self._local_cache[cell] = result
        return result

    def edge_gap(self, left_cell: int, right_cell: int) -> int:
        """Required filler sites between two cells (-1 means the target)."""
        if not self._edge_rules:
            return 0  # No rules: skip the pair cache on the hot path.
        key = (left_cell, right_cell)
        cached = self._gap_cache.get(key)
        if cached is not None:
            return cached
        table = self.design.technology.edge_spacing
        left_type = (
            self.target_type if left_cell == -1
            else self.design.cell_type_of(left_cell)
        )
        right_type = (
            self.target_type if right_cell == -1
            else self.design.cell_type_of(right_cell)
        )
        gap = table.spacing(left_type.right_edge, right_type.left_edge)
        self._gap_cache[key] = gap
        return gap

    def cell_width(self, cell: int) -> int:
        return self._widths[cell]

    # ------------------------------------------------------------------
    # Gap enumeration
    # ------------------------------------------------------------------

    def candidate_rows(self) -> List[int]:
        """Bottom rows to try, nearest to the GP row first."""
        height = self.target_type.height
        lo = max(0, int(math.floor(self.window.ylo)))
        hi = min(self.design.num_rows - height, int(math.ceil(self.window.yhi)) - height)
        rows = []
        for row in range(lo, hi + 1):
            if not self.design.row_parity_ok(self.target, row):
                continue
            if self.guard is not None and not self.guard.row_ok(
                self.target_type, row
            ):
                continue
            rows.append(row)
        rows.sort(key=lambda r: (abs(r - self.gp_y), r))
        return rows

    def gaps_in_row(self, row: int) -> List[Gap]:
        """Candidate gaps of one row, within fence-matching segments.

        At most ``max_gaps_per_row`` gaps are kept, preferring those whose
        achievable x-range is nearest the target's GP x; distant gaps are
        dominated in cost and only inflate the combination search.

        Memoized on the context (the occupancy is frozen for its
        lifetime), and served from :attr:`gap_cache` — which persists
        *across* contexts — on the first miss when one is attached.
        Returned lists are shared either way and must not be mutated.
        """
        gaps = self._row_gaps.get(row)
        if gaps is None:
            if self.gap_cache is not None:
                gaps = self.gap_cache.gaps_in_row(self, row)
            else:
                gaps = self._compute_gaps_in_row(row)
            self._row_gaps[row] = gaps
        return gaps

    def _compute_gaps_in_row(self, row: int) -> List[Gap]:
        gaps: List[Gap] = []
        for segment in self.design.segments_in_row(row):
            if segment.fence_id != self.fence:
                continue
            if segment.x_hi <= self.window.xlo or segment.x_lo >= self.window.xhi:
                continue
            if segment.width < self.target_type.width:
                continue
            gaps.extend(self._gaps_in_segment(row, segment))
        if len(gaps) > self.max_gaps_per_row:
            gaps.sort(
                key=lambda g: max(
                    0.0, g.lo_rough - self.gp_x, self.gp_x - g.hi_rough
                )
            )
            gaps = gaps[: self.max_gaps_per_row]
        return gaps

    def _gaps_in_segment(self, row: int, segment: Segment) -> List[Gap]:
        """Gaps of every wall-separated run of local cells the window meets.

        Non-local cells (fixed, or poking out of the window) split the
        segment into independent runs; each run contributes its own gap
        list, bounded by the adjacent walls (or segment ends).

        The scan is clipped to the window.  A cell with ``x <
        window.xlo`` or ``x >= window.xhi`` is never local, so it is a
        wall, and every run beyond the nearest such wall misses the
        window and would be skipped.  The scan therefore starts at the
        last of the segment's cells left of the window (as the left
        wall) and stops at the first one at or past its right edge (as
        the right wall); the segment's own bounds, with the edge rules
        across them, enter only on a side without such a wall.  The
        gaps, and their order, are those of the full-segment walk
        (tests/gap_oracle.py).
        """
        occupancy = self.occupancy
        xs = occupancy.row_positions(row)
        cells = occupancy.row_cells(row)
        widths = self._widths
        window = self.window
        # The segment's cells, as Occupancy.cells_in_range lists them:
        # the one cell that may overhang x_lo from the left, then every
        # cell starting inside the segment.
        first = bisect_left(xs, segment.x_lo)
        if first > 0 and xs[first - 1] + widths[cells[first - 1]] > segment.x_lo:
            first -= 1
        end = bisect_left(xs, segment.x_hi, first)
        start = bisect_left(xs, window.xlo, first, end)
        left_wall_cell: Optional[int] = None
        if start > first:
            left_wall_cell = cells[start - 1]
            left_bound = xs[start - 1] + widths[left_wall_cell]
        else:
            # Edge rules also apply across segment (fence) boundaries,
            # where sites are contiguous: a cell just beyond the boundary
            # pushes the usable bound inward by its required gap.
            left_bound = segment.x_lo
            outside_left = occupancy.left_neighbor(row, segment.x_lo)
            if outside_left is not None:
                outside_end = (
                    occupancy.placement.x[outside_left] + widths[outside_left]
                )
                # Unconditional: the rule reaches across the boundary
                # even when the outside cell stops short of it (no-op
                # when it is further away than the required gap).
                left_bound = max(
                    left_bound, outside_end + self.edge_gap(outside_left, -1)
                )
        stop = bisect_left(xs, window.xhi, start, end)

        gaps: List[Gap] = []
        width = self.target_type.width
        local_run: List[int] = []
        for index in range(start, stop + 1):
            if index < stop:
                cell = cells[index]
                if self.is_local(cell):
                    local_run.append(cell)
                    continue
                right_bound = xs[index]
                right_wall_cell: Optional[int] = cell
            elif stop < end:
                # The first cell at or past window.xhi: the last wall.
                right_wall_cell = cells[stop]
                right_bound = xs[stop]
            else:
                right_wall_cell = None
                right_bound = segment.x_hi
                outside_right = occupancy.right_neighbor(row, segment.x_hi)
                if outside_right is not None:
                    right_bound = min(
                        right_bound,
                        occupancy.placement.x[outside_right]
                        - self.edge_gap(-1, outside_right),
                    )
            # Skip runs too narrow for the target or missing the window
            # horizontally (the target is searched inside the window;
            # pushes may still exit it).
            if right_bound - left_bound >= width and not (
                right_bound <= window.xlo or left_bound >= window.xhi
            ):
                self._run_gaps(
                    gaps, row, segment, local_run, left_bound, right_bound,
                    left_wall_cell, right_wall_cell,
                )
            if right_wall_cell is None:
                break
            left_bound = right_bound + widths[right_wall_cell]
            left_wall_cell = right_wall_cell
            local_run = []
        return gaps

    def _run_gaps(
        self,
        gaps: List[Gap],
        row: int,
        segment: Segment,
        run: List[int],
        left_bound: int,
        right_bound: int,
        left_wall_cell: Optional[int],
        right_wall_cell: Optional[int],
    ) -> None:
        """Append one run's gaps, with rough per-row compression bounds.

        Gap ``i`` lies between run cells ``i - 1`` and ``i``.  Its
        ``lo_rough`` compresses the cells left of it against the left
        wall, its ``hi_rough`` the cells right of it against the right
        wall.  A backward pass over the run computes every ``hi_rough``
        and a forward pass every ``lo_rough``, each gap's bound taking
        the exact float operation sequence of compressing its own cells
        (gaps share the prefixes), so the values equal the per-gap walks
        of tests/gap_oracle.py at linear instead of quadratic cost.
        """
        edge_gap = self.edge_gap
        widths = self._widths
        width = self.target_type.width
        count = len(run)
        his: List[float] = [0.0] * (count + 1)
        position = float(right_bound)
        his[count] = position - width - (
            edge_gap(-1, right_wall_cell) if right_wall_cell is not None else 0
        )
        following = right_wall_cell
        for index in range(count - 1, -1, -1):
            cell = run[index]
            if following is not None:
                position -= edge_gap(cell, following)
            position -= widths[cell]
            his[index] = position - width - edge_gap(-1, cell)
            following = cell

        position = float(left_bound)
        previous = left_wall_cell
        left_cell: Optional[int] = None
        for index in range(count + 1):
            lo_rough = position + (
                edge_gap(previous, -1) if previous is not None else 0
            )
            right_cell = run[index] if index < count else None
            hi_rough = his[index]
            if lo_rough <= hi_rough:
                gaps.append(
                    Gap(
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
                )
            if right_cell is None:
                break
            if previous is not None:
                position += edge_gap(previous, right_cell)
            position += widths[right_cell]
            previous = right_cell
            left_cell = right_cell

    def enumerate_insertion_points(
        self, max_points_per_row_set: int = 128
    ) -> Iterator[Tuple[int, Tuple[Gap, ...]]]:
        """Yield ``(bottom_row, gaps)`` combinations, pruned by rough bounds.

        For multi-row targets the per-row gap choices are combined by a
        depth-first product that abandons any branch whose rough x-ranges
        already fail to intersect; at most ``max_points_per_row_set``
        combinations are yielded per bottom row.
        """
        for bottom_row in self.candidate_rows():
            for gaps in self.row_combinations(bottom_row, max_points_per_row_set):
                yield bottom_row, gaps

    def row_combinations(
        self, bottom_row: int, max_points: int = 128
    ) -> Iterator[Tuple[Gap, ...]]:
        """The per-row-gap combinations of one bottom row (see above)."""
        height = self.target_type.height
        per_row = [self.gaps_in_row(bottom_row + i) for i in range(height)]
        if any(not gaps for gaps in per_row):
            return
        # Try gaps nearest the GP x first (stack => reverse order).  Each
        # row is sorted once, up front; the DFS below revisits a depth for
        # every partial combination, and the order never changes.
        per_row_desc = [
            sorted(
                gaps,
                key=lambda g: abs(
                    (g.lo_rough + g.hi_rough) / 2.0 - self.gp_x
                ),
                reverse=True,
            )
            for gaps in per_row
        ]
        yielded = 0
        stack: List[Tuple[int, Tuple[Gap, ...], float, float]] = [
            (0, (), -math.inf, math.inf)
        ]
        while stack and yielded < max_points:
            depth, chosen, lo, hi = stack.pop()
            if depth == height:
                yield chosen
                yielded += 1
                continue
            for gap in per_row_desc[depth]:
                new_lo = max(lo, gap.lo_rough)
                new_hi = min(hi, gap.hi_rough)
                if new_lo <= new_hi:
                    stack.append((depth + 1, chosen + (gap,), new_lo, new_hi))

    # ------------------------------------------------------------------
    # Candidate traversal strategies
    # ------------------------------------------------------------------
    #
    # Both strategies compute the same order-independent winner: walk the
    # candidates by ``(lower bound, enumeration ordinal)``, stop once a
    # bound exceeds the incumbent cost plus ``margin``, and keep the
    # minimum ``(cost, y, x, ordinal)``.  The stop rule is exact in bound
    # order — after the first failing candidate the incumbent can no
    # longer change (nothing further is evaluated), so every later
    # candidate fails the same test — which is what makes the lazy heap
    # traversal and the exhaustive replay provably identical.

    def evaluate_best_first(
        self, max_points: int, margin: float
    ) -> Tuple[Optional[EvaluatedInsertion], int]:
        """Lazy bound-ordered evaluation with row-level short-circuits.

        Candidates enter a min-heap keyed ``(lower bound, ordinal)`` one
        bottom row at a time and are popped while the heap minimum cannot
        be undercut by any not-yet-enumerated row: every candidate of row
        ``r`` has bound >= weight * |r - gp_y| (its *floor*), and
        :meth:`candidate_rows` is sorted by that distance, so the next
        row's floor is a valid drain threshold.  Pops therefore occur in
        global ``(bound, ordinal)`` order.  Rows whose floor already
        exceeds the incumbent cost plus the margin are never enumerated
        at all — their candidates would fail the stop-rule test at every
        later point of the walk too, since the incumbent only tightens.
        """
        weight = self.weight_of(self.target)
        rows = self.candidate_rows()
        heap: List[Tuple[float, int, int, Tuple[Gap, ...]]] = []
        best: Optional[EvaluatedInsertion] = None
        best_key: Optional[Tuple[float, int, int, int]] = None
        evaluated_points = 0
        seq = 0
        num_rows = len(rows)
        for index, bottom_row in enumerate(rows):
            if (
                best is not None
                and weight * abs(bottom_row - self.gp_y) > best.cost + margin
            ):
                break  # This row's floor fails; later rows' floors are higher.
            for gaps in self.row_combinations(bottom_row, max_points):
                bound = self.target_cost_lower_bound(bottom_row, gaps)
                heappush(heap, (bound, seq, bottom_row, gaps))
                seq += 1
            if index + 1 < num_rows:
                threshold = weight * abs(rows[index + 1] - self.gp_y)
            else:
                threshold = math.inf
            best, best_key, evaluated_points = self._drain_heap(
                heap, threshold, margin, best, best_key, evaluated_points
            )
        best, best_key, evaluated_points = self._drain_heap(
            heap, math.inf, margin, best, best_key, evaluated_points
        )
        return best, evaluated_points

    def _drain_heap(
        self,
        heap: List[Tuple[float, int, int, Tuple[Gap, ...]]],
        threshold: float,
        margin: float,
        best: Optional[EvaluatedInsertion],
        best_key: Optional[Tuple[float, int, int, int]],
        evaluated_points: int,
    ) -> Tuple[
        Optional[EvaluatedInsertion],
        Optional[Tuple[float, int, int, int]],
        int,
    ]:
        """Pop and evaluate heap entries whose bound is within ``threshold``."""
        while heap and heap[0][0] <= threshold:
            bound, order, bottom_row, gaps = heappop(heap)
            if best is not None and bound > best.cost + margin:
                # Bound-ordered: every remaining entry fails the same test
                # (the incumbent cannot improve without evaluations).
                heap.clear()
                break
            # The incumbent's cost is the cutoff: a candidate that
            # provably costs more comes back None, like an infeasible one,
            # and could never have replaced the incumbent anyway.
            result = self.evaluate(
                bottom_row, gaps, None if best is None else best.cost
            )
            evaluated_points += 1
            if result is None:
                continue
            key = (result.cost, result.y, result.x, order)
            if best_key is None or key < best_key:
                best = result
                best_key = key
        return best, best_key, evaluated_points

    def evaluate_linear(
        self, max_points: int, margin: float
    ) -> Tuple[Optional[EvaluatedInsertion], int]:
        """Reference evaluation: cost every candidate, then select.

        Evaluates the full enumeration in its natural order (no pruning,
        so the evaluated count covers every candidate) and replays the
        bound-ordered stop rule over the known costs, yielding the exact
        winner :meth:`evaluate_best_first` converges to.
        """
        entries: List[Tuple[float, int, Optional[EvaluatedInsertion]]] = []
        for bottom_row, gaps in self.enumerate_insertion_points(max_points):
            bound = self.target_cost_lower_bound(bottom_row, gaps)
            entries.append((bound, len(entries), self.evaluate(bottom_row, gaps)))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        best: Optional[EvaluatedInsertion] = None
        best_key: Optional[Tuple[float, int, int, int]] = None
        for bound, order, result in entries:
            if best is not None and bound > best.cost + margin:
                break
            if result is None:
                continue
            key = (result.cost, result.y, result.x, order)
            if best_key is None or key < best_key:
                best = result
                best_key = key
        return best, len(entries)

    def target_cost_lower_bound(
        self, bottom_row: int, gaps: Sequence[Gap]
    ) -> float:
        """Cheap lower bound on the target's own contribution to the cost.

        Uses the rough per-row compression interval; local-cell deltas can
        be negative (type C/D curves), so callers must allow a margin when
        pruning with this bound.
        """
        lo = max(gap.lo_rough for gap in gaps)
        hi = min(gap.hi_rough for gap in gaps)
        x_dist = max(0.0, lo - self.gp_x, self.gp_x - hi)
        return self._target_weight * (
            abs(bottom_row - self.gp_y) + x_dist * self.x_unit
        )

    # ------------------------------------------------------------------
    # Exact evaluation of one insertion point
    # ------------------------------------------------------------------

    def evaluate(
        self,
        bottom_row: int,
        gaps: Sequence[Gap],
        cutoff: Optional[float] = None,
    ) -> Optional[EvaluatedInsertion]:
        """Exact feasibility, optimal x, and spread moves for a combination.

        Returns None when the combination is infeasible (a transitive push
        does not fit, or a cell would need to move both ways).  The push
        analysis is the memoized kernel :meth:`push_sides`; the curve
        assembly, minimization, guard walk and moves are
        :meth:`finish_evaluation`.

        ``cutoff`` is the incumbent's cost, if there is one.  A candidate
        whose final cost provably exceeds it also returns None, before
        the curve assembly or the guard walk (see
        :meth:`finish_with_compiled`); every other result is exactly the
        one evaluated without a cutoff.
        """
        sides = self.push_sides(gaps)
        if sides is None:
            return None
        return self.finish_evaluation(bottom_row, gaps, *sides, cutoff=cutoff)

    def finish_evaluation(
        self,
        bottom_row: int,
        gaps: Sequence[Gap],
        right_offsets: Dict[int, int],
        right_limit: float,
        left_offsets: Dict[int, int],
        left_limit: float,
        cutoff: Optional[float] = None,
    ) -> Optional[EvaluatedInsertion]:
        """Curves, minimize, guard and moves for one pushed candidate.

        Builds the *summed* displacement curve straight from the push
        offsets — anchor, ordered value/slope sums, merged breakpoints —
        performing, per curve, the same float operations ``sum_curves``
        runs on the factory-built curve objects (every kept intermediate
        rounds identically).  The per-curve closed forms below are the
        reference ``value()`` walks at the summed anchor ``m``, which
        sits at or left of every per-curve anchor because ``min``
        includes the constant curve's anchor ``0.0``.  Bit-equality with
        the per-cell curve objects of tests/curve_oracle.py is pinned by
        tests/test_soa_equivalence.py.

        The offsets dicts must be in push order (right side outward-
        ascending, left side outward-descending): curve summation is a
        float accumulation in curve order, so dict order is part of the
        bit-equality contract.  ``cutoff`` is the incumbent cost of
        :meth:`evaluate`.
        """
        lo = left_limit
        hi = right_limit
        if math.ceil(lo) > math.floor(hi):
            return None
        if self.loses_by_floor(
            bottom_row, right_offsets, left_offsets, lo, hi, cutoff
        ):
            return None

        placement_x = self.occupancy.placement.x
        gp_of = self.design.gp_x
        weight_of = self.weight_of
        x_unit = self.x_unit
        use_gp = self.reference == "gp"
        gp_x = self.gp_x
        wt_x = self._target_weight_x

        # Pass 1: per-curve primitives in the curve-list order (target V,
        # row constant, right cells, left cells).
        anchors: List[float] = [gp_x, 0.0]
        merged: List[Tuple[float, float]] = [(gp_x, 2.0 * wt_x)]
        # (kind, base, weight, crit, turn): kind 0 = A/C (value is base),
        # 1 = B, 2 = D.
        records: List[Tuple[int, float, float, float, float]] = []
        # Costs are measured as the *change* in the local cells' summed
        # displacement: each cell's current displacement is subtracted so
        # insertion points with different push sets compare fairly.
        baseline = 0.0
        # Ordered left-fold of the per-curve initial slopes (V's -wt_x,
        # then each left cell's -w; the interleaved 0.0 terms of the
        # constant and right-cell curves are bitwise identities here
        # because a negative or +0.0 running sum survives "+ 0.0").
        initial_slope = 0.0 + -wt_x
        for cell, offset in right_offsets.items():
            weight = weight_of(cell) * x_unit
            cur = placement_x[cell]
            anchor = gp_of[cell] if use_gp else cur
            crit = cur - offset
            base = weight * abs(cur - anchor)
            anchors.append(crit)
            if anchor <= cur:  # Type A
                merged.append((crit, weight))
            else:  # Type C
                merged.append((crit, -weight))
                merged.append((anchor - offset, 2.0 * weight))
            records.append((0, base, weight, crit, 0.0))
            baseline += base
        for cell, offset in left_offsets.items():
            weight = weight_of(cell) * x_unit
            cur = placement_x[cell]
            anchor = gp_of[cell] if use_gp else cur
            crit = cur + offset
            base = weight * abs(cur - anchor)
            anchors.append(crit)
            initial_slope += -weight
            if anchor >= cur:  # Type B
                merged.append((crit, weight))
                records.append((1, base, weight, crit, 0.0))
            else:  # Type D
                turn = anchor + offset
                merged.append((turn, 2.0 * weight))
                merged.append((crit, -weight))
                records.append((2, base, weight, crit, turn))
            baseline += base

        m = min(anchors)

        # Pass 2: the ordered value sum at m.  It starts from int 0
        # exactly like the generator sum of sum_curves; each term is the
        # reference backward (or anchor-coincident forward) walk of its
        # curve, collapsed to a closed form.
        anchor_value = 0.0 + (
            wt_x * (m - gp_x) if m >= gp_x else wt_x * (gp_x - m)
        )
        anchor_value += self._target_weight * abs(bottom_row - self.gp_y)
        for kind, base, weight, crit, turn in records:
            if kind == 0:  # A/C: flat left of crit.
                anchor_value += base
            elif kind == 1:  # B: slope -w left of crit.
                anchor_value += base - (-weight) * (crit - m)
            elif m >= turn:  # D, between turn and crit.
                anchor_value += base - weight * (crit - m)
            else:  # D, left of turn.
                anchor_value += (base - weight * (crit - turn)) - (
                    -weight
                ) * (turn - m)
        if baseline:
            anchor_value += -baseline

        # Merge + coalesce, verbatim sum_curves semantics.
        merged.sort()
        coalesced: List[Tuple[float, float]] = []
        for bp_x, delta in merged:
            if coalesced and approx_eq(coalesced[-1][0], bp_x):
                coalesced[-1] = (coalesced[-1][0], coalesced[-1][1] + delta)
            else:
                coalesced.append((bp_x, delta))

        # One compiled curve set serves both the site minimization and the
        # guard's repeated cost probes.
        compiled = CurveSet.from_total(
            DisplacementCurve(m, anchor_value, initial_slope, tuple(coalesced))
        )
        return self.finish_with_compiled(
            bottom_row, gaps, right_offsets, left_offsets,
            lo, hi, compiled, cutoff,
        )

    def loses_by_floor(
        self,
        bottom_row: int,
        right_offsets: Dict[int, int],
        left_offsets: Dict[int, int],
        lo: float,
        hi: float,
        cutoff: Optional[float],
    ) -> bool:
        """Whether the candidate's :func:`cost_floor` exceeds ``cutoff``.

        Checked ahead of the curve assembly.  The floor bounds the
        minimized curve from below, and neither the guard's shift nor
        its penalties (>= 0) can lower a cost below the minimum, so a
        candidate failing here costs more than the incumbent and its key
        loses.
        """
        if cutoff is None:
            return False
        placement_x = self.occupancy.placement.x
        gp_x = self.design.gp_x
        use_gp = self.reference == "gp"
        weight_of = self.weight_of
        x_unit = self.x_unit

        def pushed(offsets: Dict[int, int]) -> List[PushedCurve]:
            return [
                (
                    placement_x[cell],
                    float(gp_x[cell]) if use_gp else placement_x[cell],
                    offset,
                    weight_of(cell) * x_unit,
                )
                for cell, offset in offsets.items()
            ]

        # float() keeps the floor on Python floats (GP coordinates are
        # NumPy scalars); the values are unchanged.
        floor = cost_floor(
            float(self.gp_x),
            self._target_weight_x,
            float(self._target_weight * abs(bottom_row - self.gp_y)),
            pushed(right_offsets),
            pushed(left_offsets),
            math.ceil(lo),
            math.floor(hi),
        )
        return floor > cutoff

    def finish_with_compiled(
        self,
        bottom_row: int,
        gaps: Sequence[Gap],
        right_offsets: Dict[int, int],
        left_offsets: Dict[int, int],
        lo: float,
        hi: float,
        compiled: CurveSet,
        cutoff: Optional[float] = None,
    ) -> Optional[EvaluatedInsertion]:
        """Minimize + guard + moves over an already-compiled curve set.

        Split out of :meth:`finish_evaluation` so the reference curve
        assembly of tests/curve_oracle.py shares this tail.

        With a ``cutoff``, a minimum above ``cutoff + SLACK`` returns
        None before the guard walk: the guard only moves to sites whose
        cost is no lower than the minimum less its 1e-12 hysteresis and
        only adds penalties >= 0, so the final cost would exceed the
        cutoff.  A pinless target skips the walk outright — no site is
        blocked and no penalty applies, so the walk provably keeps the
        optimum with zero extra (tests/test_incumbent_cutoff.py).
        """
        placement = self.occupancy.placement
        best = compiled.minimize(lo, hi)
        if best is None:
            return None
        best_x, best_cost = best
        if cutoff is not None and best_cost - SLACK > cutoff:
            return None

        if self.guard is not None:
            if not self.target_type.pins:
                extra = 0.0
            else:
                best_x, extra = self.guard.adjust_x_vector(
                    self.target_type,
                    bottom_row,
                    best_x,
                    int(math.ceil(lo)),
                    int(math.floor(hi)),
                    compiled.value,
                    compiled.values,
                )
            best_cost = compiled.value(best_x) + extra

        moves: List[Tuple[int, int]] = []
        for cell, offset in right_offsets.items():
            new_x = max(placement.x[cell], best_x + offset)
            if new_x != placement.x[cell]:
                moves.append((cell, new_x))
        for cell, offset in left_offsets.items():
            new_x = min(placement.x[cell], best_x - offset)
            if new_x != placement.x[cell]:
                moves.append((cell, new_x))

        return EvaluatedInsertion(
            x=best_x, y=bottom_row, cost=best_cost, moves=moves, gaps=tuple(gaps)
        )

    # ------------------------------------------------------------------
    # Transitive push analysis: one memoized kernel
    # ------------------------------------------------------------------

    def _segment_neighbors(
        self, cell: int, side: int
    ) -> List[Tuple[int, Optional[int], Optional[Segment]]]:
        """Adjacent cell per row of ``cell``, restricted to its segment.

        Returns ``(row, neighbor, segment)`` triples for every row the
        cell spans; ``neighbor`` is None when the next cell in that row
        lies beyond the segment boundary (the boundary itself is then the
        wall).
        """
        design = self.design
        placement = self.occupancy.placement
        x, y = placement.x[cell], placement.y[cell]
        height = design.cell_type_of(cell).height
        result: List[Tuple[int, Optional[int], Optional[Segment]]] = []
        for row in range(y, y + height):
            segment = design.segment_at(row, x)
            if side > 0:
                neighbor = self.occupancy.right_neighbor(row, x + 1, exclude=cell)
            else:
                neighbor = self.occupancy.left_neighbor(row, x, exclude=cell)
            if neighbor is not None:
                if segment is None or not (
                    segment.x_lo <= placement.x[neighbor] < segment.x_hi
                ):
                    neighbor = None
            result.append((row, neighbor, segment))
        return result

    def push_sides(self, gaps: Sequence[Gap]) -> Optional[PushSides]:
        """Transitive push analysis of both sides of one candidate.

        The single push entry point of :meth:`evaluate`.  Returns
        ``(right offsets, right limit, left offsets, left limit)``, where
        ``offsets[cell]`` is the chain offset from the target and a limit
        bounds the target's x (upper on the right, lower on the left), or
        None when the candidate is infeasible: a push on either side does
        not fit, the limits leave no x, or some cell would be pushed both
        ways.  Both limits are checked before any offsets are built.

        The push set is the forward closure of the seeds (the local
        cells bounding the gaps on a side) over local, same-segment
        neighbors, so inside it "neighbor is pushed" and "neighbor is
        local" coincide.  Each cell's extreme position, and whether any
        push downstream of it fails, therefore depend on ``(cell,
        side)`` alone and are memoized for the context's lifetime
        (:meth:`_push_extreme`).  Offsets are assigned in the order of
        the reference walk, outward from the target, so the dict order
        the float sums downstream depend on is unchanged
        (tests/test_push_kernel.py).
        """
        right = self._side_limit(gaps, +1)
        if right is None:
            return None
        left = self._side_limit(gaps, -1)
        if left is None:
            return None
        right_limit, right_seeds = right
        left_limit, left_seeds = left
        if left_limit > right_limit:
            return None  # No x fits (the limits are integers).
        right_offsets = self._walk(right_seeds, +1)
        left_offsets = self._walk(left_seeds, -1)
        if not right_offsets.keys().isdisjoint(left_offsets):
            return None  # A cell would be pushed both left and right.
        return right_offsets, right_limit, left_offsets, left_limit

    def _side_limit(
        self, gaps: Sequence[Gap], side: int
    ) -> Optional[Tuple[int, List[int]]]:
        """The target's limit on one side, and the distinct seeds there.

        None when some seed's push cannot fit.  A seed bounds the target
        at its extreme less (right) or plus (left) its chain offset, the
        target's pitch to it.  Seeds are listed in gap order, which is
        the order the reference walk assigns them.
        """
        limit: Optional[int] = None
        seeds: List[int] = []
        for gap in gaps:
            if side > 0:
                seed = gap.right_cell
                wall = gap.right_wall_cell
            else:
                seed = gap.left_cell
                wall = gap.left_wall_cell
            if seed is None:
                if side > 0:
                    wall_gap = self.edge_gap(-1, wall) if wall is not None else 0
                    value = gap.right_bound - wall_gap - self.target_type.width
                else:
                    wall_gap = self.edge_gap(wall, -1) if wall is not None else 0
                    value = gap.left_bound + wall_gap
            else:
                extreme = self._push_extreme(seed, side)
                if extreme is None:
                    return None
                value = extreme - side * self._seed_offset(seed, side)
                if seed not in seeds:
                    seeds.append(seed)
            if limit is None or side * value < side * limit:
                limit = value
        assert limit is not None
        return limit, seeds

    def _walk(self, seeds: List[int], side: int) -> Dict[int, int]:
        """Longest-path chain offsets over the closure of ``seeds``.

        Requires :meth:`_push_extreme` to have been taken for every seed,
        which memoizes the closure's edges.  The reference walk sorts the
        whole push set by ``(x, id)`` (descending on the left) and then
        relaxes each cell's edges in that order.  Here a heap over discovered cells yields the same
        order as it discovers them: every undiscovered cell of the
        closure lies strictly outward of some discovered, unprocessed
        one, so the heap minimum is the next cell of the sorted order.
        Seeds enter first, in gap order; every other cell enters when
        its first predecessor relaxes it — the reference's assignment
        sequence, hence its dict order.
        """
        edges = self._push_edges
        placement_x = self.occupancy.placement.x
        sign = 1 if side > 0 else -1
        offsets = {seed: self._seed_offset(seed, side) for seed in seeds}
        heap = [(sign * placement_x[seed], sign * seed) for seed in seeds]
        heapify(heap)
        while heap:
            cell = heappop(heap)[1] * sign
            base = offsets[cell]
            for neighbor, step in edges[(cell, side)]:
                value = base + step
                previous = offsets.get(neighbor)
                if previous is None:
                    offsets[neighbor] = value
                    heappush(
                        heap, (sign * placement_x[neighbor], sign * neighbor)
                    )
                elif value > previous:
                    offsets[neighbor] = value
        return offsets

    def _seed_offset(self, seed: int, side: int) -> int:
        """Chain offset of a seed: the target's pitch toward it."""
        if side > 0:
            return self.target_type.width + self.edge_gap(-1, seed)
        return self.cell_width(seed) + self.edge_gap(seed, -1)

    def _push_extreme(self, cell: int, side: int) -> Optional[int]:
        """Memoized extreme position of ``cell`` when pushed toward ``side``.

        The furthest x the cell can reach with everything downstream of
        it pushed against the walls; None when that closure cannot fit
        (a spanned row without a segment, or some cell already past its
        extreme).  Computed by an iterative post-order walk — a cell is
        finished once all its local neighbors are — which also memoizes
        each visited cell's successor edges: ``(local neighbor, step)``
        pairs in :meth:`_segment_neighbors` row order, deduplicated,
        where ``step`` is the pitch the push carries to the neighbor.
        Neighbors lie strictly further toward ``side``, so the edges
        form a DAG and the walk needs no recursion.
        """
        extremes = self._push_extremes
        key = (cell, side)
        if key in extremes:
            return extremes[key]
        edges_memo = self._push_edges
        widths = self._widths
        is_local = self.is_local
        edge_gap = self.edge_gap
        pending: Dict[
            int, List[Tuple[int, Optional[int], Optional[Segment]]]
        ] = {}
        stack = [cell]
        while stack:
            top = stack[-1]
            top_key = (top, side)
            if top_key in extremes:
                stack.pop()
                continue
            neighbors = pending.get(top)
            if neighbors is None:
                # First visit: memoize the edges, then finish the
                # unfinished successors before this cell.
                neighbors = self._segment_neighbors(top, side)
                pending[top] = neighbors
                edges: List[Tuple[int, int]] = []
                for _row, neighbor, _segment in neighbors:
                    if neighbor is None or not is_local(neighbor):
                        continue
                    if side > 0:
                        step = widths[top] + edge_gap(top, neighbor)
                    else:
                        step = widths[neighbor] + edge_gap(neighbor, top)
                    # A neighbor met again in a later row would repeat
                    # the same longest-path update, so it is kept once.
                    edge = (neighbor, step)
                    if edge not in edges:
                        edges.append(edge)
                edges_memo[top_key] = tuple(edges)
                unfinished = [
                    neighbor for neighbor, _step in edges
                    if (neighbor, side) not in extremes
                ]
                if unfinished:
                    stack.extend(unfinished)
                    continue
            stack.pop()
            extremes[top_key] = self._wall_extreme(top, side, neighbors)
        return extremes[key]

    def _wall_extreme(
        self,
        cell: int,
        side: int,
        neighbors: List[Tuple[int, Optional[int], Optional[Segment]]],
    ) -> Optional[int]:
        """One cell's extreme, given the memoized extremes of its successors."""
        extremes = self._push_extremes
        placement = self.occupancy.placement
        width_c = self.cell_width(cell)
        best: Optional[int] = None
        for row, neighbor, segment in neighbors:
            if segment is None:
                return None
            if side > 0:
                if neighbor is not None:
                    if self.is_local(neighbor):
                        reach = extremes[(neighbor, side)]
                        if reach is None:
                            return None
                    else:
                        reach = placement.x[neighbor]
                    bound = reach - self.edge_gap(cell, neighbor) - width_c
                else:
                    limit = segment.x_hi
                    outside = self.occupancy.right_neighbor(row, segment.x_hi)
                    if outside is not None:
                        # Edge rules reach across the segment boundary
                        # (no-op when the outside cell is far enough).
                        limit = min(
                            limit,
                            placement.x[outside] - self.edge_gap(cell, outside),
                        )
                    bound = limit - width_c
                if best is None or bound < best:
                    best = bound
            else:
                if neighbor is not None:
                    if self.is_local(neighbor):
                        reach = extremes[(neighbor, side)]
                        if reach is None:
                            return None
                    else:
                        reach = placement.x[neighbor]
                    bound = (
                        reach
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
                            limit, outside_end + self.edge_gap(outside, cell)
                        )
                    bound = limit
                if best is None or bound > best:
                    best = bound
        assert best is not None
        if side > 0 and best < placement.x[cell] - 1e-9:
            return None  # Already violates: cannot even stay put.
        if side < 0 and best > placement.x[cell] + 1e-9:
            return None
        return best
