"""Timing probes for the traced run, applied from outside the program.

The traced run times each layer without touching the program's
sources: :class:`Probes` wraps public methods on their classes for the
duration of one ``with`` block and restores the originals afterwards.
Only outermost calls are timed per probe, so a probed method that calls
another probed method of the same probe (``evaluate_insert_many`` ->
``evaluate_insert``, ``adjust_x`` -> ``x_blocked``) is counted once.

Wrapped methods stay in place in worker processes forked inside the
block; their timings stay in the worker and are not reported, so every
probe reads in-process time only.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, List, Tuple

#: Public ``RoutabilityGuard`` probe methods timed as ``guard.*``.
GUARD_METHODS = (
    "row_ok",
    "x_blocked",
    "io_penalty_at",
    "adjust_x",
    "site_blocked_mask",
    "io_penalty_array",
    "adjust_x_vector",
    "feasible_range",
)

#: ``MGLegalizer`` evaluator entry points timed as ``eval.*``.
EVAL_METHODS = ("evaluate_insert", "evaluate_insert_many")


class Timer:
    """Accumulated time and call count of the outermost probed calls."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        #: Per-call durations, kept only when the probe asks for them.
        self.samples: List[float] = []
        self._depth = 0

    def wrap(self, function: Callable[..., Any], keep_samples: bool) -> Callable[..., Any]:
        """``function`` with its outermost calls timed into this timer."""

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth:
                return function(*args, **kwargs)
            self._depth = 1
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._depth = 0
                self.seconds += elapsed
                self.calls += 1
                if keep_samples:
                    self.samples.append(elapsed)

        return timed


class Probes:
    """The traced run's layer timers, installed for one ``with`` block.

    Attributes:
        cell: ``MGLegalizer.legalize_cell`` (per-cell samples kept).
        evaluator: ``MGLegalizer.evaluate_insert``/``evaluate_insert_many``.
        guard: the public ``RoutabilityGuard`` probe methods.
    """

    def __init__(self) -> None:
        self.cell = Timer()
        self.evaluator = Timer()
        self.guard = Timer()
        self._saved: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> "Probes":
        from repro.core.mgl import MGLegalizer
        from repro.core.refine import RoutabilityGuard

        targets: List[Tuple[type, str, Timer, bool]] = [
            (MGLegalizer, "legalize_cell", self.cell, True)
        ]
        targets += [(MGLegalizer, name, self.evaluator, False) for name in EVAL_METHODS]
        targets += [(RoutabilityGuard, name, self.guard, False) for name in GUARD_METHODS]
        for owner, name, timer, keep_samples in targets:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, timer.wrap(original, keep_samples))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

