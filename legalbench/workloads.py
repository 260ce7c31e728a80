"""The benchmark's workloads: which designs each run legalizes, and why.

A workload names one published suite row (a synthetic stand-in for an
ICCAD-2017 or ISPD-2015 contest benchmark, see ``repro.benchgen``), the
scale it is generated at, how many independent designs one run
legalizes, and the ``LegalizerParams`` overrides that select the layers
it exercises.  The designs of a run are generated from the row's spec
with only the seed replaced, so the program under test receives nothing
but the generated :class:`repro.model.Design`.

Runtime and quality of one design vary widely with its seed (one
ISPD-2015 ``fft_1`` stand-in at ~2.3k cells legalized in 28 s, the next
seed in 107 s), so a run legalizes many small designs and reports
across them instead of timing one large design.

``fenced_mixed``, ``pooled_windows`` and ``sharded_bands`` legalize the
same designs (a run's first designs share their seeds), so the effect
of the §3.5 scheduler pool and of sharding shows against the serial
path on identical inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Designs of one run get seeds ``seed * SEED_STRIDE + i``; the stride
#: exceeds any workload's design count, so two run seeds never share a
#: design.
SEED_STRIDE = 100

#: Scale and design count of ``--tiny`` runs (the smoke test).
TINY_SCALE = 0.002
TINY_DESIGNS = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name, as passed to ``--workload``.
        suite: ``"iccad2017"`` or ``"ispd2015"``.
        row: the suite row whose spec is generated.
        scale: cell-count scale factor versus the contest original.
        designs: independent designs (seeds) legalized per run.
        params: ``LegalizerParams`` fields that differ from the defaults.
        why: why the workload is in the benchmark (one line).
    """

    name: str
    suite: str
    row: str
    scale: float
    designs: int
    params: Dict[str, int] = field(default_factory=dict)
    why: str = ""

    def design_seeds(self, seed: int, tiny: bool = False) -> List[int]:
        """The generation seeds of one run's designs."""
        count = TINY_DESIGNS if tiny else self.designs
        return [seed * SEED_STRIDE + i for i in range(count)]

    def specs(self, seed: int, tiny: bool = False) -> List[Tuple[int, object]]:
        """``(design seed, SyntheticSpec)`` for each design of one run."""
        from repro.benchgen import iccad2017_suite, ispd2015_suite

        suite = iccad2017_suite if self.suite == "iccad2017" else ispd2015_suite
        scale = TINY_SCALE if tiny else self.scale
        spec = suite(scale, names=[self.row])[0].spec
        return [
            (design_seed, dataclasses.replace(spec, seed=design_seed))
            for design_seed in self.design_seeds(seed, tiny)
        ]

    def legalizer_params(self) -> object:
        """The full ``LegalizerParams`` of this workload."""
        from repro import LegalizerParams

        return LegalizerParams(**self.params)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fenced_mixed",
            suite="iccad2017",
            row="des_perf_b_md2",
            scale=0.003,
            designs=20,
            why=(
                "the paper's headline setting: 1-4-row cells, 2 fences, P/G "
                "rails, IO pins and edge rules at density 0.647; every "
                "insertion pays the routability guard and multi-row cells "
                "defeat the vector run tables, so evaluator and guard work "
                "dominate"
            ),
        ),
        Workload(
            name="dense_2row",
            suite="ispd2015",
            row="fft_1",
            scale=0.008,
            designs=22,
            why=(
                "the highest utilization (0.8355, 90% 1-row and 10% "
                "half-width 2-row cells, no fences or rails): longest push "
                "chains and most window expansions per cell, vector fast "
                "path covers most candidates, guard work near zero, few "
                "large matching groups"
            ),
        ),
        Workload(
            name="pooled_windows",
            suite="iccad2017",
            row="des_perf_b_md2",
            scale=0.003,
            designs=18,
            params={"scheduler_capacity": 32, "scheduler_workers": 2},
            why=(
                "the only workload on the paper's §3.5 window scheduler: "
                "process-pool evaluation over delta journals, scheduler "
                "re-evaluation and GapCache, on the fenced_mixed designs"
            ),
        ),
        Workload(
            name="sharded_bands",
            suite="iccad2017",
            row="des_perf_b_md2",
            scale=0.003,
            designs=18,
            params={"shards": 2, "scheduler_workers": 2},
            why=(
                "the only workload on repro.core.shard: fence-aware band "
                "cuts, shard interiors in 2 worker processes and the serial "
                "halo reconciliation that bounds its speed-up, on the "
                "fenced_mixed designs"
            ),
        ),
    )
}
