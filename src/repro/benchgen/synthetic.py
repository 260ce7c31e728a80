"""Deterministic synthetic design generation.

The generator builds complete, feasible mixed-cell-height instances from
a compact :class:`SyntheticSpec`: a cell library with the requested
height mix, a chip sized to hit the target density, optional fence
regions with capacity-bounded cell assignment, a contest-style P/G rail
grid, IO pins, signal-pin geometry, and a locality-aware random netlist.
GP positions come from a clustered Gaussian model (mimicking an analytic
global placer's cell clumping) so legalization has realistic work to do.

Everything is driven by one :class:`random.Random` seeded from the spec,
so the same spec always yields the identical design.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.netlist import Net, PinRef
from repro.model.rails import IOPin, standard_pg_grid
from repro.model.technology import CellType, EdgeSpacingTable, PinShape, Technology


@dataclass
class SyntheticSpec:
    """Recipe for one synthetic benchmark design.

    Attributes:
        name: design name.
        cells_by_height: number of cells per cell height (rows).
        density: target cell-area / placeable-area ratio.
        seed: RNG seed; same spec -> same design.
        aspect: chip width/height ratio in length units.
        num_fences: explicit fence regions to carve out.
        fence_utilization: max cell-area fill of each fence.
        with_rails: add the M2/M3 P/G grid and per-type signal pins.
        num_io_pins: random IO-pin rectangles on M2/M3.
        with_edge_rules: install edge-spacing rules on some cell types.
        nets_per_cell: netlist size as a fraction of the cell count.
        cluster_spread: std-dev of GP clusters, in rows.
        double_height_halved: Table 2 style — multi-row cells are narrow
            (half the footprint width of their single-row counterparts).
        num_blockages: placement blockage rectangles to carve out of the
            rows (splitting segments, as routing blockages do).
        num_macros: fixed macro cells (pre-placed, immovable obstacles).
        multi_rect_fences: build each fence from two abutting rectangles
            (an L shape) instead of one, exercising multi-rect fences.
    """

    name: str
    cells_by_height: Dict[int, int]
    density: float = 0.6
    seed: int = 1
    aspect: float = 2.0
    num_fences: int = 0
    fence_utilization: float = 0.6
    with_rails: bool = False
    num_io_pins: int = 0
    with_edge_rules: bool = False
    nets_per_cell: float = 1.0
    cluster_spread: float = 6.0
    double_height_halved: bool = False
    num_blockages: int = 0
    num_macros: int = 0
    multi_rect_fences: bool = False

    def __post_init__(self) -> None:
        # A fill above 1 cannot be legalized: the generator would write a
        # design whose cells do not fit, and legalization would only
        # fail much later with an over-full fence.
        for field_name in ("density", "fence_utilization"):
            value = getattr(self, field_name)
            if not 0.0 < value <= 1.0:
                raise ValueError(
                    f"SyntheticSpec.{field_name} must be in (0, 1], "
                    f"got {value!r}"
                )

    def total_cells(self) -> int:
        return sum(self.cells_by_height.values())


# ----------------------------------------------------------------------
# Cell library
# ----------------------------------------------------------------------

_SINGLE_ROW_WIDTHS = (2, 3, 4, 6)


def _pin_shapes(
    rng: random.Random, width_sites: int, height_rows: int,
    site_width: float, row_height: float,
) -> Tuple[PinShape, ...]:
    """A few small signal pins on M1/M2 inside the cell frame.

    Like real libraries, pins normally keep clear of the row-boundary
    bands where horizontal P/G stripes run (a cell is *designed* to be
    placeable in any row); a small fraction of pins violate that — those
    are the cells whose rows the routability guard must steer (§3.4).
    """
    pins: List[PinShape] = []
    count = rng.randint(2, 3)
    for index in range(count):
        layer = 1 if index < count - 1 else 2
        px = rng.uniform(0.1, max(0.11, width_sites * site_width - 0.3))
        if rng.random() < 0.9 or height_rows == 1:
            # Confined to the interior of one row band.
            slot = rng.randrange(height_rows)
            py = slot * row_height + rng.uniform(
                0.2, max(0.21, row_height - 0.55)
            )
        else:
            # Boundary-crossing pin (tall multi-row cells): conflicts
            # with horizontal stripes on some rows.
            boundary = rng.randrange(1, height_rows) * row_height
            py = boundary - 0.15
        pins.append(
            PinShape(
                name=f"p{index}",
                layer=layer,
                rect=Rect(px, py, px + 0.2, py + 0.3),
            )
        )
    return tuple(pins)


def build_library(spec: SyntheticSpec, rng: random.Random,
                  site_width: float, row_height: float) -> Technology:
    """Cell masters covering every height in the spec."""
    cell_types: List[CellType] = []
    for height in sorted(spec.cells_by_height):
        widths: Tuple[int, ...]
        if height == 1:
            widths = _SINGLE_ROW_WIDTHS
        elif spec.double_height_halved:
            widths = tuple(max(1, w // 2) for w in _SINGLE_ROW_WIDTHS[:2])
        else:
            widths = (3, 4)
        for variant, width in enumerate(widths):
            edge = 0
            if spec.with_edge_rules and variant % 2 == 1:
                edge = 1 + (variant // 2)
            pins = (
                _pin_shapes(rng, width, height, site_width, row_height)
                if spec.with_rails
                else ()
            )
            cell_types.append(
                CellType(
                    name=f"T{height}_{variant}",
                    width=width,
                    height=height,
                    pins=pins,
                    left_edge=edge,
                    right_edge=edge,
                )
            )
    table = EdgeSpacingTable()
    if spec.with_edge_rules:
        table.set_spacing(1, 1, 1)
        table.set_spacing(2, 2, 2)
        table.set_spacing(1, 2, 1)
    return Technology(cell_types=cell_types, edge_spacing=table)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def generate_design(spec: SyntheticSpec) -> Design:
    """Build the full design for ``spec`` (deterministic)."""
    rng = random.Random(spec.seed * 1_000_003 + 17)
    site_width, row_height = 0.2, 2.0
    technology = build_library(spec, rng, site_width, row_height)

    types_by_height: Dict[int, List[CellType]] = {}
    for cell_type in technology.cell_types:
        types_by_height.setdefault(cell_type.height, []).append(cell_type)

    # Pick the concrete master per cell, then size the chip for density.
    chosen: List[CellType] = []
    for height, count in sorted(spec.cells_by_height.items()):
        for _ in range(count):
            chosen.append(rng.choice(types_by_height[height]))
    total_area = sum(ct.width * ct.height for ct in chosen)

    # rows * sites = total_area / density; sites/rows aspect in length
    # units: sites * site_width = aspect * rows * row_height.  Blockage
    # and macro area is added on top so the *usable* density matches.
    obstruction_budget = 1.0
    if spec.num_blockages or spec.num_macros:
        obstruction_budget = 1.15
    target_sites_area = obstruction_budget * total_area / spec.density
    rows = max(
        2 * max(spec.cells_by_height) + 2,
        int(math.sqrt(target_sites_area * site_width / (spec.aspect * row_height))),
    )
    rows += rows % 2  # Even row count keeps parity regions balanced.
    sites = int(math.ceil(target_sites_area / rows))
    sites = max(sites, 4 * max(ct.width for ct in chosen))

    design = Design(
        technology,
        num_rows=rows,
        num_sites=sites,
        site_width=site_width,
        row_height=row_height,
        name=spec.name,
    )

    fences = _make_fences(design, spec, rng)
    _add_blockages(design, spec, rng)
    _add_macros(design, spec, rng)
    _add_cells(design, spec, rng, chosen, fences)

    if spec.with_rails:
        design.rails = standard_pg_grid(
            design.chip_rect_length_units,
            row_height,
            m2_pitch_rows=6,
            m3_pitch=max(4.0, sites * site_width / 14.0),
        )
        for index in range(spec.num_io_pins):
            layer = 2 if index % 2 == 0 else 3
            x = rng.uniform(0, sites * site_width - 1.0)
            y = rng.uniform(0, rows * row_height - 1.0)
            design.rails.add_io_pin(
                IOPin(f"io{index}", layer, Rect(x, y, x + 0.8, y + 0.8))
            )

    _add_netlist(design, spec, rng)
    design.validate()
    return design


def _make_fences(
    design: Design, spec: SyntheticSpec, rng: random.Random
) -> List[FenceRegion]:
    """Carve non-overlapping fence regions out of the chip."""
    fences: List[FenceRegion] = []
    attempts = 0
    while len(fences) < spec.num_fences and attempts < 200:
        attempts += 1
        fence_rows = rng.randint(
            max(4, design.num_rows // 8), max(6, design.num_rows // 3)
        )
        fence_sites = rng.randint(
            max(10, design.num_sites // 8), max(12, design.num_sites // 3)
        )
        y = 2 * rng.randint(0, max(0, (design.num_rows - fence_rows) // 2))
        x = rng.randint(0, max(0, design.num_sites - fence_sites))
        rect = Rect(x, y, x + fence_sites, y + fence_rows)
        rects = [rect]
        if spec.multi_rect_fences and fence_rows >= 4 and fence_sites >= 16:
            # L shape: the upper part keeps only the left portion.  The
            # split row is even so parity regions stay usable.
            mid_y = y + 2 * max(1, fence_rows // 4)
            keep = fence_sites // 2
            rects = [
                Rect(x, y, x + fence_sites, mid_y),
                Rect(x, mid_y, x + keep, y + fence_rows),
            ]
        candidate = FenceRegion(
            len(fences) + 1, f"fence{len(fences) + 1}", rects
        )
        inflated = rect.inflated(2)
        if any(
            existing.overlaps_rect(inflated) for existing in fences
        ):
            continue
        fences.append(candidate)
        design.add_fence(candidate)
    return fences


def _free_spot(
    design: Design, rng: random.Random, width: int, height: int,
    margin: int = 1,
) -> Optional[Rect]:
    """A random rect clear of fences, blockages, and fixed cells."""
    for _attempt in range(60):
        x = rng.randint(0, max(0, design.num_sites - width))
        y = 2 * rng.randint(0, max(0, (design.num_rows - height) // 2))
        rect = Rect(x, y, x + width, y + height)
        inflated = rect.inflated(margin)
        if any(f.overlaps_rect(inflated) for f in design.fences):
            continue
        if any(b.overlaps(inflated) for b in design.blockages):
            continue
        collision = False
        for cell_index, cell in enumerate(design.cells):
            if not cell.fixed:
                continue
            placed = Rect(
                cell.gp_x, cell.gp_y,
                cell.gp_x + cell.cell_type.width,
                cell.gp_y + cell.cell_type.height,
            )
            if placed.overlaps(inflated):
                collision = True
                break
        if not collision:
            return rect
    return None


def _add_blockages(design: Design, spec: SyntheticSpec, rng: random.Random) -> None:
    for _ in range(spec.num_blockages):
        width = rng.randint(
            max(3, design.num_sites // 20), max(4, design.num_sites // 10)
        )
        height = rng.randint(1, max(1, design.num_rows // 6))
        spot = _free_spot(design, rng, width, height)
        if spot is not None:
            design.add_blockage(spot)


def _add_macros(design: Design, spec: SyntheticSpec, rng: random.Random) -> None:
    """Pre-placed fixed macro cells acting as immovable obstacles."""
    for index in range(spec.num_macros):
        width = rng.randint(
            max(6, design.num_sites // 16), max(8, design.num_sites // 8)
        )
        height = rng.randint(2, min(4, design.num_rows // 4))
        spot = _free_spot(design, rng, width, height)
        if spot is None:
            continue
        macro_type = design.technology.add_cell_type(
            CellType(f"MACRO{index}", width, height)
        )
        design.add_cell(
            f"macro{index}", macro_type,
            gp_x=spot.xlo, gp_y=spot.ylo, fixed=True,
        )


def _add_cells(
    design: Design,
    spec: SyntheticSpec,
    rng: random.Random,
    chosen: Sequence[CellType],
    fences: List[FenceRegion],
) -> None:
    """Assign fences (capacity-bounded) and clustered GP positions."""
    budgets = {
        fence.fence_id: spec.fence_utilization * sum(r.area for r in fence.rects)
        for fence in fences
    }
    fill: Dict[int, float] = {fence.fence_id: 0.0 for fence in fences}

    # GP cluster centers spread over the chip.
    num_clusters = max(3, design.num_cells // 50 if design.num_cells else 3,
                       int(math.sqrt(len(chosen))) or 3)
    centers = [
        (rng.uniform(0, design.num_sites), rng.uniform(0, design.num_rows))
        for _ in range(num_clusters)
    ]

    order = list(chosen)
    rng.shuffle(order)
    for index, cell_type in enumerate(order):
        fence_id = 0
        if fences and rng.random() < 0.25:
            fence = rng.choice(fences)
            area = cell_type.width * cell_type.height
            if fill[fence.fence_id] + area <= budgets[fence.fence_id]:
                fence_id = fence.fence_id
                fill[fence.fence_id] += area

        if fence_id:
            rect = rng.choice(design.fence_region(fence_id).rects)
            gx = rng.uniform(rect.xlo, max(rect.xlo, rect.xhi - cell_type.width))
            gy = rng.uniform(rect.ylo, max(rect.ylo, rect.yhi - cell_type.height))
        else:
            cx, cy = rng.choice(centers)
            spread_x = spec.cluster_spread * design.row_height / design.site_width
            gx = min(
                max(0.0, rng.gauss(cx, spread_x)),
                design.num_sites - cell_type.width,
            )
            gy = min(
                max(0.0, rng.gauss(cy, spec.cluster_spread)),
                design.num_rows - cell_type.height,
            )
        design.add_cell(f"c{index}", cell_type, gx, gy, fence_id=fence_id)


def _add_netlist(design: Design, spec: SyntheticSpec, rng: random.Random) -> None:
    """Locality-aware random nets (2-5 pins, mostly near neighbors)."""
    num_nets = int(spec.nets_per_cell * design.num_cells)
    if num_nets == 0 or design.num_cells < 2:
        return
    # Sort cells on a space-filling-ish key so "nearby indices" are
    # spatially close; nets pick contiguous runs with a few far pins.
    by_position = sorted(
        range(design.num_cells),
        key=lambda c: (
            int(design.gp_y[c] // 8),
            design.gp_x[c] if (int(design.gp_y[c] // 8) % 2 == 0)
            else -design.gp_x[c],
        ),
    )
    for net_index in range(num_nets):
        degree = rng.choice((2, 2, 2, 3, 3, 4, 5))
        anchor = rng.randrange(design.num_cells)
        members = {by_position[anchor]}
        while len(members) < degree:
            if rng.random() < 0.85:
                offset = rng.randint(-6, 6)
                members.add(by_position[(anchor + offset) % design.num_cells])
            else:
                members.add(rng.randrange(design.num_cells))
        design.netlist.add_net(
            Net(f"n{net_index}", [PinRef(cell) for cell in sorted(members)])
        )
