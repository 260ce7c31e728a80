"""Structure-of-arrays mirror of the MGL insertion hot path.

``eval_backend=vector`` routes the per-candidate stages of
:mod:`repro.core.insertion` whose scalar forms walk Python objects
through array code here.  The vector backend owns:

* gap enumeration (:meth:`VectorEvaluator.gaps_in_segment`): runs,
  walls and the rough lo/hi bounds of a segment from ``searchsorted``
  slices and integer prefix sums over run pitches;
* the best-first heap's candidate lower bounds
  (:meth:`VectorEvaluator.lower_bound`), one array pass per row;
* curve assembly (:meth:`VectorEvaluator._finish_fast`): the summed
  displacement curve built directly from the push offsets, without
  per-cell curve objects;
* the batched routability-guard walk, via
  :meth:`repro.core.refine.RoutabilityGuard.adjust_x_vector` on the
  compiled curve set.

Push analysis is not here: both backends call the context's memoized
kernel (:meth:`InsertionContext.push_sides`), which handles multi-row
cells in the same code path.  Every stage above replays the scalar
operation sequence (integer arithmetic where the scalar code is
integral, the same fold order where it is float), so the two backends
are candidate-for-candidate identical — placements *and*
``insertions_evaluated`` counts — with ``eval_backend=scalar`` as the
oracle (tests/test_soa_equivalence.py).

Synchronization: :class:`SoAState` snapshots occupancy rows through the
public :meth:`Occupancy.row_positions` / :meth:`Occupancy.row_cells`
accessors, keyed by :meth:`Occupancy.row_version` — a snapshot is
rebuilt exactly when its row's version moved.  Snapshots live in
``threading.local`` storage so the scheduler's thread pool can share
one :class:`SoAState` across concurrent evaluations without locking.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.core.curves import CurveSet, DisplacementCurve
from repro.core.occupancy import Occupancy
from repro.model.approx import approx_eq
from repro.model.design import Design
from repro.model.row import Segment

if TYPE_CHECKING:
    from repro.core.insertion import EvaluatedInsertion, Gap, InsertionContext

#: Per-row occupancy snapshot: (row version, x positions, cell ids,
#: placement y per cell), the arrays parallel and x-sorted.
RowSnapshot = Tuple[
    int,
    npt.NDArray[np.int64],
    npt.NDArray[np.int64],
    npt.NDArray[np.int64],
]

class _RowCaches(threading.local):
    """Thread-local row snapshot store (one dict per thread)."""

    def __init__(self) -> None:
        self.rows: Dict[int, RowSnapshot] = {}


class SoAState:
    """Contiguous-array mirror of a design + occupancy pair.

    Geometry arrays are built once from the design's cached
    ``cell_widths``/``cell_heights`` lists; row snapshots are built
    lazily per (thread, row) and invalidated by ``row_version``.  One
    instance is shared by every evaluation against the same occupancy —
    the legalizer holds it (see :meth:`repro.core.mgl.MGLegalizer.soa_for`)
    and batch evaluation reuses its snapshots across batch members.
    """

    def __init__(self, design: Design, occupancy: Occupancy):
        self.design = design
        self.occupancy = occupancy
        self.num_cells = design.num_cells
        self.widths: npt.NDArray[np.int64] = np.asarray(
            design.cell_widths, dtype=np.int64
        )
        self.heights: npt.NDArray[np.int64] = np.asarray(
            design.cell_heights, dtype=np.int64
        )
        self.fixed: npt.NDArray[np.bool_] = np.fromiter(
            (cell.fixed for cell in design.cells),
            dtype=np.bool_,
            count=design.num_cells,
        )
        # Dense cell-type codes (by type name) and the edge-spacing
        # matrix over them: eg[i, j] is the mandatory filler between a
        # type-i cell's right edge and a type-j cell's left edge.
        codes: Dict[str, int] = {}
        types = []
        code_list: List[int] = []
        for cell in design.cells:
            cell_type = cell.cell_type
            code = codes.get(cell_type.name)
            if code is None:
                code = len(types)
                codes[cell_type.name] = code
                types.append(cell_type)
            code_list.append(code)
        self.type_code_of = codes
        self.type_codes: npt.NDArray[np.int64] = np.asarray(
            code_list, dtype=np.int64
        )
        table = design.technology.edge_spacing
        size = len(types)
        matrix = np.zeros((size, size), dtype=np.int64)
        for i, left in enumerate(types):
            for j, right in enumerate(types):
                matrix[i, j] = table.spacing(left.right_edge, right.left_edge)
        self.edge_gap_matrix: npt.NDArray[np.int64] = matrix
        self._rows = _RowCaches()

    def row_arrays(
        self, row: int
    ) -> Tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
    ]:
        """(xs, cells, ys) snapshot of ``row``, rebuilt when its version moved."""
        occupancy = self.occupancy
        version = occupancy.row_version(row)
        cache = self._rows.rows
        entry = cache.get(row)
        if entry is None or entry[0] != version:
            cells_list = occupancy.row_cells(row)
            xs = np.asarray(occupancy.row_positions(row), dtype=np.int64)
            cells = np.asarray(cells_list, dtype=np.int64)
            placement_y = occupancy.placement.y
            ys = np.fromiter(
                (placement_y[cell] for cell in cells_list),
                dtype=np.int64,
                count=len(cells_list),
            )
            entry = (version, xs, cells, ys)
            cache[row] = entry
        return entry[1], entry[2], entry[3]


class VectorEvaluator:
    """Per-context vectorized evaluation over one :class:`SoAState`.

    Owns one lazy cache, valid for the context's lifetime (the
    occupancy is frozen while a context exists): per-row vectorized
    lower-bound tables feeding the best-first heap's prefilter
    (:meth:`lower_bound`), keyed by gap identity — gap lists are
    memoized on the context, so identities are stable.  Push analysis
    is not here: both backends share the context's memoized kernel
    (:meth:`InsertionContext.push_sides`).
    """

    def __init__(self, context: "InsertionContext", soa: SoAState):
        self.context = context
        self.soa = soa
        self._bounds: Dict[int, Dict[int, float]] = {}
        self._width_t = context.target_type.width
        self._target_code = soa.type_code_of[context.target_type.name]
        # Constants of the curve assembly; the expressions mirror the
        # ones finish_evaluation computes per call, so the values (and
        # bits) are the same every time.
        self._wt = context.weight_of(context.target)
        self._wt_x = context.weight_of(context.target) * context.x_unit
        self._use_gp = context.reference == "gp"
        from repro.core.insertion import Gap

        self._gap_cls = Gap

    # ------------------------------------------------------------------
    # Lower bounds
    # ------------------------------------------------------------------

    def lower_bound(self, bottom_row: int, gaps: Sequence["Gap"]) -> float:
        """Bit-identical, batch-computed version of the scalar bound.

        Single-gap candidates read a per-row table computed in one
        vectorized pass; multi-row combinations (whose bound folds
        several gaps) fall back to the scalar formula.
        """
        if len(gaps) == 1:
            gap = gaps[0]
            table = self._bounds.get(gap.row)
            if table is None:
                table = self._bound_table(gap.row)
                self._bounds[gap.row] = table
            bound = table.get(id(gap))
            if bound is not None:
                return bound
        return self.context.lower_bound_scalar(bottom_row, gaps)

    def _bound_table(self, row: int) -> Dict[int, float]:
        """All single-gap lower bounds of ``row`` in one array pass.

        The arithmetic mirrors the scalar expression operation for
        operation (max chain, then ``|dy| + x_dist * x_unit`` scaled by
        the weight), so each table entry equals the scalar bound bit
        for bit.
        """
        context = self.context
        gaps = context.gaps_in_row(row)
        if not gaps:
            return {}
        count = len(gaps)
        lo = np.fromiter(
            (gap.lo_rough for gap in gaps), dtype=np.float64, count=count
        )
        hi = np.fromiter(
            (gap.hi_rough for gap in gaps), dtype=np.float64, count=count
        )
        x_dist = np.maximum(
            0.0, np.maximum(lo - context.gp_x, context.gp_x - hi)
        )
        weight = context.weight_of(context.target)
        bounds = weight * (
            abs(row - context.gp_y) + x_dist * context.x_unit
        )
        return {
            id(gap): bound for gap, bound in zip(gaps, bounds.tolist())
        }

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        bottom_row: int,
        gaps: Sequence["Gap"],
        cutoff: Optional[float] = None,
    ) -> Optional["EvaluatedInsertion"]:
        """Exact evaluation of one candidate on the array backend.

        The push analysis is the context's shared memoized kernel
        (:meth:`InsertionContext.push_sides`), the same call the scalar
        evaluator makes; the candidate then finishes through
        :meth:`_finish_fast`, which assembles the summed displacement
        curve directly instead of materializing per-cell curve objects.
        ``cutoff`` is the incumbent cost of
        :meth:`InsertionContext.evaluate`.
        """
        sides = self.context.push_sides(gaps)
        if sides is None:
            return None
        return self._finish_fast(bottom_row, gaps, *sides, cutoff)

    def _finish_fast(
        self,
        bottom_row: int,
        gaps: Sequence["Gap"],
        right_offsets: Dict[int, int],
        right_limit: float,
        left_offsets: Dict[int, int],
        left_limit: float,
        cutoff: Optional[float],
    ) -> Optional["EvaluatedInsertion"]:
        """Array-backed twin of :meth:`InsertionContext.finish_evaluation`.

        Builds the *summed* curve straight from the offsets — anchor,
        ordered value/slope sums, merged breakpoints — performing, per
        curve, the same float operations ``sum_curves`` runs on the
        factory-built curve objects (every kept intermediate rounds
        identically), then rejoins the shared compiled pipeline.  The
        per-curve closed forms below are the reference ``value()`` walks
        at the summed anchor ``m``, which sits at or left of every
        per-curve anchor because ``min`` includes the constant curve's
        anchor ``0.0``; bit-equality against the object path is pinned
        by tests/test_soa_equivalence.py.
        """
        lo = left_limit
        hi = right_limit
        if math.ceil(lo) > math.floor(hi):
            return None
        context = self.context
        if context.loses_by_floor(
            bottom_row, right_offsets, left_offsets, lo, hi, cutoff
        ):
            return None

        placement = context.occupancy.placement
        gp_of = context.design.gp_x
        weight_of = context.weight_of
        x_unit = context.x_unit
        use_gp = self._use_gp
        gp_x = context.gp_x
        wt_x = self._wt_x

        # Pass 1: per-curve primitives in the scalar curve-list order
        # (target V, row constant, right cells, left cells).
        anchors: List[float] = [gp_x, 0.0]
        merged: List[Tuple[float, float]] = [(gp_x, 2.0 * wt_x)]
        # (kind, base, weight, crit, turn): kind 0 = A/C (value is base),
        # 1 = B, 2 = D.
        records: List[Tuple[int, float, float, float, float]] = []
        baseline = 0.0
        # Ordered left-fold of the per-curve initial slopes (V's -wt_x,
        # then each left cell's -w; the interleaved 0.0 terms of the
        # constant and right-cell curves are bitwise identities here
        # because a negative or +0.0 running sum survives "+ 0.0").
        initial_slope = 0.0 + -wt_x
        for cell, offset in right_offsets.items():
            weight = weight_of(cell) * x_unit
            cur = placement.x[cell]
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
            cur = placement.x[cell]
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

        # Pass 2: the ordered value sum at m.  builtins.sum starts from
        # int 0 exactly like the scalar generator sum; each term is the
        # reference backward (or anchor-coincident forward) walk of its
        # curve, collapsed to a closed form.
        anchor_value = 0.0 + (
            wt_x * (m - gp_x) if m >= gp_x else wt_x * (gp_x - m)
        )
        anchor_value += self._wt * abs(bottom_row - context.gp_y)
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

        compiled = CurveSet.from_total(
            DisplacementCurve(m, anchor_value, initial_slope, tuple(coalesced))
        )
        return context.finish_with_compiled(
            bottom_row, gaps, right_offsets, left_offsets,
            lo, hi, compiled, vectorized=True, cutoff=cutoff,
        )

    def _cells_slice(
        self, row: int, segment: Segment
    ) -> Tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
    ]:
        """Array mirror of ``Occupancy.cells_in_range(row, x_lo, x_hi)``.

        Bisect on the x-sorted snapshot plus the one cell that may
        overhang the range start from the left.
        """
        soa = self.soa
        xs_all, cells_all, ys_all = soa.row_arrays(row)
        lo_i = int(np.searchsorted(xs_all, segment.x_lo, side="left"))
        if lo_i > 0:
            prev = int(cells_all[lo_i - 1])
            if int(xs_all[lo_i - 1]) + int(soa.widths[prev]) > segment.x_lo:
                lo_i -= 1
        hi_i = int(np.searchsorted(xs_all, segment.x_hi, side="left"))
        return xs_all[lo_i:hi_i], cells_all[lo_i:hi_i], ys_all[lo_i:hi_i]

    def _local_mask(
        self,
        xs: npt.NDArray[np.int64],
        cells: npt.NDArray[np.int64],
        ys: npt.NDArray[np.int64],
        widths: npt.NDArray[np.int64],
    ) -> npt.NDArray[np.bool_]:
        """Vectorized :meth:`InsertionContext.is_local`: movable and
        entirely inside the window (exact comparisons; ints vs float
        bounds)."""
        soa = self.soa
        window = self.context.window
        heights = soa.heights[cells]
        return (
            ~soa.fixed[cells]
            & (window.xlo <= xs)
            & (xs + widths <= window.xhi)
            & (window.ylo <= ys)
            & (ys + heights <= window.yhi)
        )

    # ------------------------------------------------------------------
    # Gap enumeration
    # ------------------------------------------------------------------

    def gaps_in_segment(self, row: int, segment: Segment) -> List["Gap"]:
        """Array-backed twin of :meth:`InsertionContext._gaps_in_segment`.

        The scalar rough bounds are float accumulations of integer
        pitches — every intermediate is an exact integer — so computing
        them as int64 prefix/suffix sums and converting once yields the
        same floats.  Runs, walls, filters and emission order mirror the
        scalar walk clause for clause; list equality is pinned by
        tests/test_soa_equivalence.py.
        """
        context = self.context
        soa = self.soa
        occupancy = context.occupancy
        placement = occupancy.placement
        window = context.window

        xs, cells, ys = self._cells_slice(row, segment)
        widths = soa.widths[cells]
        local = self._local_mask(xs, cells, ys, widths)

        # Segment bounds with the cross-boundary edge rules
        # (scalar-identical: the outside neighbor pushes the bound
        # inward by its required gap, unconditionally).
        left_bound = segment.x_lo
        outside_left = occupancy.left_neighbor(row, segment.x_lo)
        if outside_left is not None:
            outside_end = (
                placement.x[outside_left] + context.cell_width(outside_left)
            )
            left_bound = max(
                left_bound, outside_end + context.edge_gap(outside_left, -1)
            )
        right_cap = segment.x_hi
        outside_right = occupancy.right_neighbor(row, segment.x_hi)
        if outside_right is not None:
            right_cap = min(
                right_cap,
                placement.x[outside_right]
                - context.edge_gap(-1, outside_right),
            )

        cells_list: List[int] = cells.tolist()
        local_list: List[bool] = local.tolist()
        xs_list: List[int] = xs.tolist()
        widths_list: List[int] = widths.tolist()

        gaps: List["Gap"] = []
        width_t = self._width_t
        total = len(cells_list)
        index = 0
        lwall: Optional[int] = None
        run_lo = left_bound
        while True:
            start = index
            while index < total and local_list[index]:
                index += 1
            if index < total:
                rwall: Optional[int] = cells_list[index]
                run_hi = xs_list[index]
            else:
                rwall = None
                run_hi = right_cap
            if run_hi - run_lo >= width_t and not (
                run_hi <= window.xlo or run_lo >= window.xhi
            ):
                self._emit_run_gaps(
                    gaps, row, segment, cells, widths, cells_list,
                    start, index, run_lo, run_hi, lwall, rwall,
                )
            if index >= total:
                return gaps
            run_lo = xs_list[index] + widths_list[index]
            lwall = cells_list[index]
            index += 1

    def _emit_run_gaps(
        self,
        gaps: List["Gap"],
        row: int,
        segment: Segment,
        cells: npt.NDArray[np.int64],
        widths: npt.NDArray[np.int64],
        cells_list: List[int],
        start: int,
        end: int,
        run_lo: int,
        run_hi: int,
        lwall: Optional[int],
        rwall: Optional[int],
    ) -> None:
        """Append one run's gaps: batched twin of ``_make_gap``.

        For gap index ``i`` over run cells ``c_0..c_{n-1}``, the scalar
        compress-left walk gives ``lo[i] = run_lo + sum(add[:i]) +
        eg(c_{i-1}, t)`` with ``add[j] = eg(prev_j, c_j) + w(c_j)``, and
        the compress-right walk ``hi[i] = run_hi - sum(sub[i:]) - w_t -
        eg(t, c_i)`` with ``sub[j] = w(c_j) + eg(c_j, next_j)`` — plain
        cumsums.
        """
        context = self.context
        soa = self.soa
        matrix = soa.edge_gap_matrix
        type_codes = soa.type_codes
        tcode = self._target_code
        width_t = self._width_t
        gap_cls = self._gap_cls
        n = end - start
        # eg(lwall, target) / eg(target, rwall) at the run ends.
        lw_t = int(matrix[type_codes[lwall], tcode]) if lwall is not None else 0
        t_rw = int(matrix[tcode, type_codes[rwall]]) if rwall is not None else 0
        if n == 0:
            lo0 = float(run_lo + lw_t)
            hi0 = float(run_hi - width_t - t_rw)
            if lo0 <= hi0:
                gaps.append(gap_cls(
                    row=row, segment=segment,
                    left_cell=None, right_cell=None,
                    left_bound=run_lo, right_bound=run_hi,
                    left_wall_cell=lwall, right_wall_cell=rwall,
                    lo_rough=lo0, hi_rough=hi0,
                ))
            return

        rcells = cells[start:end]
        rcodes = type_codes[rcells]
        rws = widths[start:end]
        add = rws.copy()
        sub = rws.copy()
        if n > 1:
            egn = matrix[rcodes[:-1], rcodes[1:]]
            add[1:] += egn
            sub[:-1] += egn
        if lwall is not None:
            add[0] += matrix[type_codes[lwall], rcodes[0]]
        if rwall is not None:
            sub[-1] += matrix[rcodes[-1], type_codes[rwall]]
        lo_arr = np.empty(n + 1, dtype=np.int64)
        lo_arr[0] = run_lo + lw_t
        lo_arr[1:] = (run_lo + np.cumsum(add)) + matrix[rcodes, tcode]
        hi_arr = np.empty(n + 1, dtype=np.int64)
        suffix = np.cumsum(sub[::-1])[::-1]
        hi_arr[:n] = ((run_hi - width_t) - suffix) - matrix[tcode, rcodes]
        hi_arr[n] = run_hi - width_t - t_rw
        lo_list: List[float] = lo_arr.astype(np.float64).tolist()
        hi_list: List[float] = hi_arr.astype(np.float64).tolist()

        run_cells = cells_list[start:end]
        left_c: Optional[int] = None
        for i in range(n + 1):
            right_c = run_cells[i] if i < n else None
            lo_v = lo_list[i]
            hi_v = hi_list[i]
            if lo_v <= hi_v:
                gaps.append(gap_cls(
                    row=row, segment=segment,
                    left_cell=left_c, right_cell=right_c,
                    left_bound=run_lo, right_bound=run_hi,
                    left_wall_cell=lwall, right_wall_cell=rwall,
                    lo_rough=lo_v, hi_rough=hi_v,
                ))
            left_c = right_c
