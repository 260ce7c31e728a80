"""Routability-driven refinement hooks (paper §3.4).

The :class:`RoutabilityGuard` packages the three rail/IO interactions the
paper weaves into MGL:

* **horizontal rails** — a row whose P/G stripe would short a pin or
  block its access is not a valid insertion row (``row_ok``);
* **vertical rails** — when the curve optimum collides with a vertical
  stripe, nearby positions are examined until a least-cost clean site is
  found (``adjust_x``);
* **IO pins** — overlaps are allowed but penalized (``io_penalty_at``).

It also computes the violation-free *feasible range* ``[l_i, r_i]`` each
cell is confined to during the fixed-row-fixed-order optimization, which
is how stage 3 avoids creating new pin violations.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.params import LegalizerParams
from repro.model.design import Design
from repro.model.geometry import Rect
from repro.model.technology import CellType


class _GuardCaches(threading.local):
    """Per-thread memo caches for the guard's pure queries.

    One :class:`RoutabilityGuard` is shared across the §3.5 scheduler's
    worker threads, and ``evaluate_insert`` must not write shared state.
    Every cached value is a pure function of its key, so per-thread
    dicts trade some re-computation for race-free memoization without
    changing any answer.
    """

    def __init__(self) -> None:
        self.row_ok: Dict[Tuple[str, int], bool] = {}
        self.io_pairs: Dict[
            Tuple[str, int], List[Tuple[float, float, float, float]]
        ] = {}
        # A per-(type, flip) boolean mask over every site, with a list
        # twin for x_blocked's scalar lookups, and for the vectorized
        # guard path the io_pairs tuples transposed into four parallel
        # float arrays.
        self.blocked_sites: Dict[
            Tuple[str, bool], Tuple[npt.NDArray[np.bool_], List[bool]]
        ] = {}
        self.io_arrays: Dict[
            Tuple[str, int], Optional[Tuple[npt.NDArray[np.float64], ...]]
        ] = {}


class RoutabilityGuard:
    """Cached rail/IO conflict queries for one design."""

    def __init__(self, design: Design, params: Optional[LegalizerParams] = None):
        self.design = design
        self.params = params or LegalizerParams()
        self._caches = _GuardCaches()
        # x_blocked answers from a per-(type, flip) site mask when every
        # vertical stripe runs the chip's full height (the standard grid
        # does): the row then only matters through the flip state.
        chip_y = design.chip_rect_length_units.y_interval
        self._x_cacheable = all(
            rail.extent.lo <= chip_y.lo and rail.extent.hi >= chip_y.hi
            for rail in design.rails.rails
            if rail.orientation == "v"
        )
        # The adjust_x walk pattern [0, +1, -1, ..., +max, -max] as an
        # offset array — constant for the guard's lifetime.
        shifts = np.arange(1, self.params.guard_max_shift + 1, dtype=np.int64)
        deltas = np.empty(2 * shifts.size + 1, dtype=np.int64)
        deltas[0] = 0
        deltas[1::2] = shifts
        deltas[2::2] = -shifts
        self._walk_deltas = deltas

    # ------------------------------------------------------------------
    # Pin geometry
    # ------------------------------------------------------------------

    def _is_flipped(self, cell_type: CellType, row: int) -> bool:
        """Mirror odd-height cells on off-parity rows (P/G alignment)."""
        if cell_type.parity_constrained:
            return False
        return row % 2 != self.design.power_parity

    def pin_rects_at(
        self, cell_type: CellType, row: int, x: float
    ) -> List[Tuple[int, Rect]]:
        """(layer, rect) of each signal pin for a placement at ``(x, row)``."""
        design = self.design
        x_len = x * design.site_width
        y_len = row * design.row_height
        height_len = cell_type.height * design.row_height
        flipped = self._is_flipped(cell_type, row)
        rects: List[Tuple[int, Rect]] = []
        for pin in cell_type.pins:
            rect = pin.rect
            if flipped:
                rect = Rect(
                    rect.xlo, height_len - rect.yhi, rect.xhi, height_len - rect.ylo
                )
            rects.append((pin.layer, rect.translated(x_len, y_len)))
        return rects

    # ------------------------------------------------------------------
    # Horizontal rails: row validity
    # ------------------------------------------------------------------

    def row_ok(self, cell_type: CellType, row: int) -> bool:
        """False when a horizontal rail shorts/blocks a pin on this row.

        Horizontal stripes run the full chip width, so the conflict
        depends only on the cell type and its row (and flip) — cached.
        """
        if not cell_type.pins:
            return True
        key = (cell_type.name, row)
        cached = self._caches.row_ok.get(key)
        if cached is not None:
            return cached
        rails = self.design.rails
        ok = True
        for layer, rect in self.pin_rects_at(cell_type, row, 0.0):
            if rails.horizontal_blocked(layer, rect.ylo, rect.yhi):
                ok = False
                break
            if rails.horizontal_blocked(layer + 1, rect.ylo, rect.yhi):
                ok = False
                break
        self._caches.row_ok[key] = ok
        return ok

    # ------------------------------------------------------------------
    # Vertical rails and IO pins: x selection
    # ------------------------------------------------------------------

    def x_blocked(self, cell_type: CellType, row: int, x: int) -> bool:
        """True when a vertical rail shorts/blocks some pin at ``(x, row)``.

        When vertical stripes run the full chip height, the answer for
        an on-chip site is read from :meth:`site_blocked_mask`.
        """
        if not cell_type.pins:
            return False
        if self._x_cacheable and 0 <= x <= self.design.num_sites:
            return self._blocked_sites(cell_type, row)[1][x]
        for layer, rect in self.pin_rects_at(cell_type, row, x):
            for rail in self.design.rails.rails:
                if rail.orientation != "v":
                    continue
                if rail.layer in (layer, layer + 1) and rail.overlaps_rect(rect):
                    return True
        return False

    def _io_pairs(
        self, cell_type: CellType, row: int
    ) -> List[Tuple[float, float, float, float]]:
        """(pin, IO pin) pairs that can overlap at ``row``, x-precomputed.

        The layer and y-overlap tests of :meth:`io_penalty_at` depend
        only on the cell type and row, so they are resolved once here;
        what remains per query is the x test on the surviving pairs,
        stored as ``(pin_xlo, pin_xhi, io_xlo, io_xhi)`` in length units.
        The x test applies the same "translate then compare" arithmetic
        as ``Rect.overlaps`` on ``rect.translated(x_len, y_len)``, so
        counts are bit-identical to the pairwise reference.
        """
        key = (cell_type.name, row)
        cached = self._caches.io_pairs.get(key)
        if cached is not None:
            return cached
        design = self.design
        y_len = row * design.row_height
        height_len = cell_type.height * design.row_height
        flipped = self._is_flipped(cell_type, row)
        pairs: List[Tuple[float, float, float, float]] = []
        for pin in cell_type.pins:
            rect = pin.rect
            if flipped:
                rect = Rect(
                    rect.xlo, height_len - rect.yhi, rect.xhi, height_len - rect.ylo
                )
            ylo = rect.ylo + y_len
            yhi = rect.yhi + y_len
            for io_pin in design.rails.io_pins:
                if io_pin.layer not in (pin.layer, pin.layer + 1):
                    continue
                if not (io_pin.rect.ylo < yhi and ylo < io_pin.rect.yhi):
                    continue
                pairs.append((rect.xlo, rect.xhi, io_pin.rect.xlo, io_pin.rect.xhi))
        self._caches.io_pairs[key] = pairs
        return pairs

    def io_penalty_at(self, cell_type: CellType, row: int, x: int) -> float:
        """Penalty for IO-pin overlaps of any pin at ``(x, row)``."""
        if not cell_type.pins:
            return 0.0
        pairs = self._io_pairs(cell_type, row)
        if not pairs:
            return 0.0
        x_len = x * self.design.site_width
        count = 0
        for pin_xlo, pin_xhi, io_xlo, io_xhi in pairs:
            if io_xlo < pin_xhi + x_len and pin_xlo + x_len < io_xhi:
                count += 1
        return count * self.params.io_penalty

    def adjust_x(
        self,
        cell_type: CellType,
        row: int,
        x_opt: int,
        lo: int,
        hi: int,
        cost_at: Callable[[float], float],
    ) -> Tuple[int, float]:
        """Pick the cheapest clean x near the curve optimum.

        Walks outward from ``x_opt`` (alternating sides, nearest first) up
        to ``guard_max_shift`` sites; among vertical-rail-clean candidates
        the one minimizing ``cost_at(x) + io_penalty`` wins.  When every
        candidate is blocked, the optimum is kept with ``blocked_penalty``
        added (the soft-constraint semantics of §2).
        """
        best_x: Optional[int] = None
        best_total = math.inf
        for offset in range(0, self.params.guard_max_shift + 1):
            for candidate in ((x_opt + offset, x_opt - offset) if offset else (x_opt,)):
                if candidate < lo or candidate > hi:
                    continue
                if self.x_blocked(cell_type, row, candidate):
                    continue
                total = cost_at(candidate) + self.io_penalty_at(cell_type, row, candidate)
                if total < best_total - 1e-12:
                    best_total = total
                    best_x = candidate
            # All remaining candidates are farther, hence costlier on a
            # convex-ish curve; but IO penalties are lumpy, so we scan the
            # full shift budget rather than early-exit.
        if best_x is None:
            penalty = self.params.blocked_penalty + self.io_penalty_at(
                cell_type, row, x_opt
            )
            return x_opt, penalty
        return best_x, best_total - cost_at(best_x)

    # ------------------------------------------------------------------
    # Vectorized guard path (per-site rail/blockage masks)
    # ------------------------------------------------------------------

    @property
    def x_mask_cacheable(self) -> bool:
        """Whether :meth:`site_blocked_mask` is available (full-height stripes)."""
        return self._x_cacheable

    def site_blocked_mask(
        self, cell_type: CellType, row: int
    ) -> Optional[npt.NDArray[np.bool_]]:
        """Per-site vertical-rail conflict mask for ``cell_type`` at ``row``.

        ``mask[x]`` is True when a vertical rail shorts or blocks some
        pin of the cell placed at left-edge site ``x``, for every site of
        the chip.  The mask depends only on the flip state when vertical
        stripes span the full chip height — otherwise None is returned
        and callers must stay on the scalar walk.

        Built for all sites at once: each (pin, stripe family) pair runs
        the elementwise operations of ``Rail.overlaps_rect`` — translate,
        span clamp, floor of the stripe index, the three witness probes
        — over the array of translated pin edges, in the same IEEE-754
        order, so every entry equals the per-site rectangle test.
        """
        if not self._x_cacheable:
            return None
        return self._blocked_sites(cell_type, row)[0]

    def _blocked_sites(
        self, cell_type: CellType, row: int
    ) -> Tuple[npt.NDArray[np.bool_], List[bool]]:
        """The site mask and its list twin, built once per (type, flip)."""
        key = (cell_type.name, self._is_flipped(cell_type, row))
        cached = self._caches.blocked_sites.get(key)
        if cached is not None:
            return cached
        design = self.design
        x_len = np.arange(design.num_sites + 1, dtype=np.float64) * design.site_width
        mask = np.zeros(x_len.size, dtype=np.bool_)
        rails = [rail for rail in design.rails.rails if rail.orientation == "v"]
        # x = 0 leaves the pin's x edges as they are and places its y edges.
        for layer, rect in self.pin_rects_at(cell_type, row, 0):
            for rail in rails:
                if rail.layer not in (layer, layer + 1):
                    continue
                if rect.yhi <= rect.ylo or not rail.extent.overlaps(rect.y_interval):
                    continue
                mask |= rail.overlaps_intervals(rect.xlo + x_len, rect.xhi + x_len)
        entry = (mask, mask.tolist())
        self._caches.blocked_sites[key] = entry
        return entry

    def _io_pair_arrays(
        self, cell_type: CellType, row: int
    ) -> Optional[Tuple[npt.NDArray[np.float64], ...]]:
        """:meth:`_io_pairs` transposed to four parallel float arrays."""
        key = (cell_type.name, row)
        if key in self._caches.io_arrays:
            return self._caches.io_arrays[key]
        pairs = self._io_pairs(cell_type, row)
        arrays: Optional[Tuple[npt.NDArray[np.float64], ...]] = None
        if pairs:
            columns = np.asarray(pairs, dtype=np.float64).T
            arrays = (columns[0], columns[1], columns[2], columns[3])
        self._caches.io_arrays[key] = arrays
        return arrays

    def io_penalty_array(
        self, cell_type: CellType, row: int, xs: npt.NDArray[np.float64]
    ) -> npt.NDArray[np.float64]:
        """Vectorized :meth:`io_penalty_at` over many x positions.

        Performs the identical translate-then-compare arithmetic per
        position, so every entry is bit-equal to the scalar query.
        """
        if not cell_type.pins:
            return np.zeros(xs.shape, dtype=np.float64)
        arrays = self._io_pair_arrays(cell_type, row)
        if arrays is None:
            return np.zeros(xs.shape, dtype=np.float64)
        pin_xlo, pin_xhi, io_xlo, io_xhi = arrays
        x_len = xs * self.design.site_width
        overlap = (io_xlo[:, None] < pin_xhi[:, None] + x_len[None, :]) & (
            pin_xlo[:, None] + x_len[None, :] < io_xhi[:, None]
        )
        counts = overlap.sum(axis=0).astype(np.float64)
        return counts * self.params.io_penalty

    def adjust_x_vector(
        self,
        cell_type: CellType,
        row: int,
        x_opt: int,
        lo: int,
        hi: int,
        cost_at: Callable[[float], float],
        costs_at: Callable[[npt.NDArray[np.float64]], npt.NDArray[np.float64]],
    ) -> Tuple[int, float]:
        """Bit-identical :meth:`adjust_x` with batched probes.

        The candidate walk, blocked filter, penalty arithmetic, and the
        strict-improvement selection replay the scalar method exactly —
        only the cost/penalty probes are evaluated in one vectorized
        batch (``costs_at`` must be bit-equal to ``cost_at`` per point,
        which :meth:`repro.core.curves.CurveSet.values` guarantees).
        Falls back to :meth:`adjust_x` when the per-site mask is
        unavailable (partial-height vertical stripes).
        """
        mask = self.site_blocked_mask(cell_type, row)
        if mask is None and cell_type.pins:
            return self.adjust_x(cell_type, row, x_opt, lo, hi, cost_at)
        # The scalar walk in array form: in-range filter, then the
        # blocked filter, both preserving the nearest-first visit order.
        candidates = x_opt + self._walk_deltas
        keep = (candidates >= lo) & (candidates <= hi)
        if mask is not None:
            keep &= ~mask[candidates.clip(0, mask.size - 1)]
        candidates = candidates[keep]
        if candidates.size == 0:
            penalty = self.params.blocked_penalty + self.io_penalty_at(
                cell_type, row, x_opt
            )
            return x_opt, penalty
        points = candidates.astype(np.float64)
        costs = costs_at(points)
        if cell_type.pins and self._io_pair_arrays(cell_type, row) is not None:
            totals = (costs + self.io_penalty_array(cell_type, row, points)).tolist()
        else:
            totals = costs.tolist()
        best_index = 0
        best_total = math.inf
        for index, total in enumerate(totals):
            if total < best_total - 1e-12:
                best_total = total
                best_index = index
        return int(candidates[best_index]), best_total - float(costs[best_index])

    # ------------------------------------------------------------------
    # Stage-3 feasible ranges (C_L = C_R = C)
    # ------------------------------------------------------------------

    def feasible_range(
        self,
        cell_type: CellType,
        row: int,
        x: int,
        segment_lo: int,
        segment_hi: int,
    ) -> Tuple[int, int]:
        """Largest clean interval ``[l, r]`` of left-edge sites around ``x``.

        ``segment_lo``/``segment_hi`` bound the cell's span inside its row
        segment (``segment_hi`` already excludes the cell width).  The
        interval is grown site by site from the current position until a
        vertical-rail conflict (or the segment bound) is hit, so every
        position inside it is conflict-free — the restriction §3.4 imposes
        on the stage-3 MCF.
        """
        if not self.params.routability or not cell_type.pins:
            return segment_lo, segment_hi
        def conflicted(candidate: int) -> bool:
            # §3.4: the range is bounded by the P/G rails *or IO pins*.
            return self.x_blocked(cell_type, row, candidate) or (
                self.io_penalty_at(cell_type, row, candidate) > 0
            )

        if conflicted(x):
            # Already conflicting: do not let stage 3 make it worse; pin
            # the cell to its current position.
            return x, x
        limit = self.params.feasible_range_limit
        left = x
        while left > max(segment_lo, x - limit) and not conflicted(left - 1):
            left -= 1
        right = x
        while right < min(segment_hi, x + limit) and not conflicted(right + 1):
            right += 1
        return left, right
