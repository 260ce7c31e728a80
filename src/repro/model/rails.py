"""Power/ground rail grids and IO pins on metal layers.

Modern designs route P/G as regular grids: stripes running horizontally on
one metal layer and vertically on the next (paper §2).  A signal pin on
layer ``k`` is *short* when it overlaps a rail or IO pin on layer ``k`` and
*inaccessible* when it overlaps one on layer ``k + 1`` (paper Fig. 1).

Rails are stored as arithmetic progressions of stripes so that overlap
queries are O(1) instead of scanning every stripe; irregular shapes (IO
pins) are stored explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.model.geometry import Interval, Rect

HORIZONTAL = "h"
VERTICAL = "v"


@dataclass(frozen=True)
class Rail:
    """A periodic family of P/G stripes on one metal layer.

    For a horizontal rail family, stripes occupy
    ``y in [offset + i*pitch, offset + i*pitch + width)`` for integers ``i``
    with the stripe inside ``span``; they run the full extent of ``extent``
    in x.  Vertical families swap the roles of x and y.

    All coordinates are in length units (not sites/rows), matching pin
    shapes.

    Attributes:
        layer: metal layer index (1 = M1, ...).
        orientation: ``"h"`` or ``"v"``.
        offset: position of the reference stripe's low edge.
        pitch: distance between consecutive stripe low edges (> 0).
        width: stripe width (> 0, expected <= pitch).
        span: interval limiting stripe positions along the periodic axis.
        extent: interval the stripes run along (their long axis).
    """

    layer: int
    orientation: str
    offset: float
    pitch: float
    width: float
    span: Interval
    extent: Interval

    def __post_init__(self) -> None:
        if self.orientation not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"orientation must be 'h' or 'v', got {self.orientation!r}")
        if self.pitch <= 0:
            raise ValueError("rail pitch must be positive")
        if self.width <= 0:
            raise ValueError("rail width must be positive")

    def overlaps_interval(self, lo: float, hi: float) -> bool:
        """True when some stripe intersects ``[lo, hi)`` on the periodic axis."""
        if hi <= lo:
            return False
        lo = max(lo, self.span.lo)
        hi = min(hi, self.span.hi)
        if hi <= lo:
            return False
        # First stripe index whose high edge is past lo.  The division can
        # round either way when lo sits on a stripe edge: onto an exact
        # integer (skipping a stripe still grazing lo — test `first - 1`)
        # or just below one (landing an index too low, e.g. 31.9/0.1 ->
        # 318.999..., so the witness sits at `first + 1`).  Every
        # candidate is verified, so probing both neighbours is sound.
        first = math.floor((lo - self.offset - self.width) / self.pitch) + 1
        for index in (first - 1, first, first + 1):
            stripe_lo = self.offset + index * self.pitch
            if stripe_lo < hi and stripe_lo + self.width > lo:
                return True
        return False

    def overlaps_intervals(
        self, lo: npt.NDArray[np.float64], hi: npt.NDArray[np.float64]
    ) -> npt.NDArray[np.bool_]:
        """:meth:`overlaps_interval` over parallel arrays of intervals.

        Runs the scalar method's operations elementwise in the same
        order — emptiness test, span clamp, floor of the stripe index,
        the three witness probes — so each entry equals the scalar
        answer for the same ``(lo, hi)`` pair.
        """
        hits = hi > lo
        lo = np.maximum(lo, self.span.lo)
        hi = np.minimum(hi, self.span.hi)
        hits &= hi > lo
        first = np.floor((lo - self.offset - self.width) / self.pitch) + 1
        witness = np.zeros(lo.shape, dtype=np.bool_)
        for shift in (-1, 0, 1):
            stripe_lo = self.offset + (first + shift) * self.pitch
            witness |= (stripe_lo < hi) & (stripe_lo + self.width > lo)
        hits &= witness
        return hits

    def overlaps_rect(self, rect: Rect) -> bool:
        """True when some stripe of this family intersects ``rect``."""
        if rect.empty:
            return False
        if self.orientation == HORIZONTAL:
            if not self.extent.overlaps(rect.x_interval):
                return False
            return self.overlaps_interval(rect.ylo, rect.yhi)
        if not self.extent.overlaps(rect.y_interval):
            return False
        return self.overlaps_interval(rect.xlo, rect.xhi)

    def stripes_in(self, lo: float, hi: float) -> Iterator[Interval]:
        """Yield stripe intervals on the periodic axis intersecting ``[lo, hi)``."""
        lo_eff = max(lo, self.span.lo)
        hi_eff = min(hi, self.span.hi)
        if hi_eff <= lo_eff:
            return
        # Start one index early: the same edge-rounding case as in
        # overlaps_interval; non-intersecting stripes are filtered below.
        first = math.floor((lo_eff - self.offset - self.width) / self.pitch) + 1
        index = first - 1
        while True:
            stripe_lo = self.offset + index * self.pitch
            if stripe_lo >= hi_eff:
                return
            stripe = Interval(stripe_lo, stripe_lo + self.width).intersect(
                Interval(lo_eff, hi_eff)
            )
            if not stripe.empty:
                yield stripe
            index += 1


@dataclass(frozen=True)
class IOPin:
    """A fixed IO-pin rectangle on a metal layer (length units)."""

    name: str
    layer: int
    rect: Rect


@dataclass
class RailGrid:
    """All P/G rails and IO pins of a design.

    Provides the two queries the legalizer needs: does a rectangle on layer
    ``k`` overlap any blocking shape on layer ``k`` (pin short) or layer
    ``k + 1`` (pin access)?
    """

    rails: List[Rail] = field(default_factory=list)
    io_pins: List[IOPin] = field(default_factory=list)

    def add_rail(self, rail: Rail) -> Rail:
        self.rails.append(rail)
        return rail

    def add_io_pin(self, pin: IOPin) -> IOPin:
        self.io_pins.append(pin)
        return pin

    def rails_on(self, layer: int) -> List[Rail]:
        """Rail families on one metal layer."""
        return [rail for rail in self.rails if rail.layer == layer]

    def io_pins_on(self, layer: int) -> List[IOPin]:
        """IO pins on one metal layer."""
        return [pin for pin in self.io_pins if pin.layer == layer]

    def rect_blocked_on(self, rect: Rect, layer: int) -> bool:
        """True when ``rect`` overlaps any rail or IO pin on ``layer``."""
        for rail in self.rails:
            if rail.layer == layer and rail.overlaps_rect(rect):
                return True
        for pin in self.io_pins:
            if pin.layer == layer and pin.rect.overlaps(rect):
                return True
        return False

    def pin_short(self, rect: Rect, layer: int) -> bool:
        """Pin *short*: overlap with a same-layer rail or IO pin."""
        return self.rect_blocked_on(rect, layer)

    def pin_access_blocked(self, rect: Rect, layer: int) -> bool:
        """Pin *access* violation: overlap with a rail/IO pin one layer up."""
        return self.rect_blocked_on(rect, layer + 1)

    def blocked_x_intervals(
        self, layer: int, y_lo: float, y_hi: float, x_lo: float, x_hi: float
    ) -> List[Tuple[float, float]]:
        """x-intervals inside ``[x_lo, x_hi)`` blocked on ``layer``.

        Only vertical rails and IO pins contribute; horizontal rails block a
        whole y-band independent of x and are checked separately through
        :meth:`horizontal_blocked`.  Used by the routability refinement to
        carve violation-free movement ranges.
        """
        blocked: List[Tuple[float, float]] = []
        band = Rect(x_lo, y_lo, x_hi, y_hi)
        for rail in self.rails:
            if rail.layer != layer or rail.orientation != VERTICAL:
                continue
            if not rail.extent.overlaps(Interval(y_lo, y_hi)):
                continue
            for stripe in rail.stripes_in(x_lo, x_hi):
                blocked.append((stripe.lo, stripe.hi))
        for pin in self.io_pins:
            if pin.layer != layer:
                continue
            hit = pin.rect.intersect(band)
            if not hit.empty:
                blocked.append((hit.xlo, hit.xhi))
        blocked.sort()
        return blocked

    def horizontal_blocked(self, layer: int, y_lo: float, y_hi: float) -> bool:
        """True when a horizontal rail on ``layer`` crosses ``[y_lo, y_hi)``."""
        for rail in self.rails:
            if rail.layer == layer and rail.orientation == HORIZONTAL:
                if rail.overlaps_interval(y_lo, y_hi):
                    return True
        return False


def standard_pg_grid(
    chip: Rect,
    row_height: float,
    m2_pitch_rows: int = 4,
    m2_width: float = 0.12,
    m3_pitch: float = 12.0,
    m3_width: float = 0.2,
    m3_offset: Optional[float] = None,
) -> RailGrid:
    """Build a contest-style P/G grid for a chip area.

    The grid follows the structure described in the paper (§2): horizontal
    stripes on M2 every ``m2_pitch_rows`` rows plus vertical stripes on M3
    with pitch ``m3_pitch``.  M1 power rails along every row boundary are
    implied by the row structure and are not modelled as blockages, because
    cells are designed to abut them.

    Args:
        chip: chip bounding box in length units.
        row_height: row height in length units.
        m2_pitch_rows: rows between consecutive horizontal M2 stripes.
        m2_width: width of an M2 stripe.
        m3_pitch: pitch of vertical M3 stripes.
        m3_width: width of an M3 stripe.
        m3_offset: low edge of the reference M3 stripe; defaults to half a
            pitch from the chip's left edge.
    """
    grid = RailGrid()
    grid.add_rail(
        Rail(
            layer=2,
            orientation=HORIZONTAL,
            offset=chip.ylo,
            pitch=m2_pitch_rows * row_height,
            width=m2_width,
            span=chip.y_interval,
            extent=chip.x_interval,
        )
    )
    if m3_offset is None:
        m3_offset = chip.xlo + m3_pitch / 2.0
    grid.add_rail(
        Rail(
            layer=3,
            orientation=VERTICAL,
            offset=m3_offset,
            pitch=m3_pitch,
            width=m3_width,
            span=chip.x_interval,
            extent=chip.y_interval,
        )
    )
    return grid
