"""Wall times scaled to a fixed reference speed of the host.

On a shared host the speed a run gets is not constant: the CPU switches
between a fast and a slow state, ~1.6x apart, on a scale of seconds to
minutes, and the legalizer slows down and speeds up with it.  Timing
legalizations in wall seconds alone thus measures the host's state more
than the program.

:class:`ReferenceClock` brackets each timed stretch with a fixed
reference workload (a pure-Python loop and small NumPy sorts, the two
kinds of work the legalizer does) and scales the stretch's wall time by
``REFERENCE_SECONDS / mean(reference time before, reference time after)``.
The reference workload lives here, not in the program under test, so a
change to the program moves the scaled times and a change of host speed
cancels out of them.  ``REFERENCE_SECONDS`` is a fixed constant: scaled
times read as wall seconds on a host that runs the reference workload in
exactly that long.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy

#: Nominal duration of one reference workload; scaled times are wall
#: times at the host speed that runs :func:`reference_work` in this long.
REFERENCE_SECONDS = 0.020

#: Iterations of the reference workload's Python loop and NumPy loop.
PYTHON_STEPS = 140_000
NUMPY_STEPS = 100

_VALUES = numpy.random.default_rng(0).random(4096)
_SORTED = numpy.sort(_VALUES[:1024], kind="stable")


def reference_work() -> float:
    """The fixed reference workload; returns a checksum so none of it is idle."""
    total = 0
    for step in range(PYTHON_STEPS):
        total += step * step % 7
    checksum = float(total)
    for step in range(NUMPY_STEPS):
        checksum += float(numpy.sort(_VALUES[: 2000 + step], kind="stable")[3])
        checksum += float(numpy.searchsorted(_SORTED, _VALUES[step], side="left"))
    return checksum


class ReferenceClock:
    """Times the reference workload and scales wall times by it."""

    def __init__(self) -> None:
        #: Wall seconds of every reference workload run so far.
        self.samples: List[float] = []

    def probe(self) -> float:
        """Run the reference workload once; its wall seconds."""
        started = perf_counter()
        reference_work()
        seconds = perf_counter() - started
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale factor of a stretch bracketed by probes ``before``/``after``."""
        return 2.0 * REFERENCE_SECONDS / (before + after)

    def median_ms(self) -> float:
        """Median reference workload time so far, in milliseconds."""
        return 1000.0 * statistics.median(self.samples) if self.samples else 0.0
