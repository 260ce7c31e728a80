"""Test-only reference for the curve assembly of one MGL candidate.

This is the finish the legalizer's reference evaluator used before the
summed curve was assembled directly from the push offsets
(:meth:`repro.core.insertion.InsertionContext.finish_evaluation`): one
:class:`DisplacementCurve` object per pushed cell (types A-D), summed by
``CurveSet(curves)``.  It then joins the production tail
(:meth:`InsertionContext.finish_with_compiled`), so a comparison against
it isolates the curve assembly (tests/test_soa_equivalence.py).  Its
signature matches the method, so tests can monkeypatch it in.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.core.curves import CurveSet, DisplacementCurve
from repro.core.insertion import EvaluatedInsertion, Gap, InsertionContext


def finish_evaluation(
    context: InsertionContext,
    bottom_row: int,
    gaps: Sequence[Gap],
    right_offsets: Dict[int, int],
    right_limit: float,
    left_offsets: Dict[int, int],
    left_limit: float,
    cutoff: Optional[float] = None,
) -> Optional[EvaluatedInsertion]:
    """Curves, minimize, guard, moves, from per-cell curve objects.

    The offsets dicts must be in push order (right side outward-
    ascending, left side outward-descending): curve summation is a
    float accumulation in curve order, so dict order is part of the
    bit-equality contract.
    """
    self = context
    lo = left_limit
    hi = right_limit
    if math.ceil(lo) > math.floor(hi):
        return None
    if self.loses_by_floor(
        bottom_row, right_offsets, left_offsets, lo, hi, cutoff
    ):
        return None

    placement = self.occupancy.placement
    curves: List[DisplacementCurve] = [
        DisplacementCurve.target(
            self.gp_x, self.weight_of(self.target) * self.x_unit
        ),
        DisplacementCurve.constant(
            self.weight_of(self.target) * abs(bottom_row - self.gp_y)
        ),
    ]
    # Costs are measured as the *change* in the local cells' summed
    # displacement: each cell's current displacement is subtracted so
    # insertion points with different push sets compare fairly.
    baseline = 0.0
    use_gp = self.reference == "gp"
    for cell, offset in right_offsets.items():
        weight = self.weight_of(cell) * self.x_unit
        anchor = self.design.gp_x[cell] if use_gp else placement.x[cell]
        curves.append(
            DisplacementCurve.pushed_right(
                placement.x[cell], anchor, offset, weight
            )
        )
        baseline += weight * abs(placement.x[cell] - anchor)
    for cell, offset in left_offsets.items():
        weight = self.weight_of(cell) * self.x_unit
        anchor = self.design.gp_x[cell] if use_gp else placement.x[cell]
        curves.append(
            DisplacementCurve.pushed_left(
                placement.x[cell], anchor, offset, weight
            )
        )
        baseline += weight * abs(placement.x[cell] - anchor)
    if baseline:
        curves.append(DisplacementCurve.constant(-baseline))

    return self.finish_with_compiled(
        bottom_row, gaps, right_offsets, left_offsets,
        lo, hi, CurveSet(curves), cutoff,
    )
