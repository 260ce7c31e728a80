"""Run one workload of the legalization benchmark and print its metrics.

Usage, from the repository root::

    python3 legalbench/run.py --workload fenced_mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole ``repro.legalize`` calls and prints the
end-to-end metrics; ``--trace 1`` runs the traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records host and input provenance.  The exit code is
0 when every attempt passed the correctness gate, 1 when one failed, and
2 when the benchmark cannot run at all (no ``src/repro`` next to it, or
bad arguments).  ``--tiny`` shrinks every workload to one small design
(the smoke test uses it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="one tiny design per workload (smoke test)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"legalbench: no repro sources under {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    params = workload.legalizer_params()
    setup = harness.build_designs(workload, args.seed, args.tiny)
    harness.warm_up(workload, params)
    ledger = harness.Ledger(setup.seeds)
    if args.trace:
        measured = harness.measure_traced(setup, params, args.seconds, ledger)
        units = harness.PER_LAYER_UNITS
    else:
        measured = harness.measure_untraced(setup, params, args.seconds, ledger)
        units = harness.END_TO_END_UNITS

    record = harness.provenance(workload, args.seed, setup, params, ledger)
    record["measured"] = measured
    print(json.dumps({"provenance": record}, sort_keys=True))
    for failure in ledger.failures:
        print(f"legalbench: FAILED {workload.name} {failure}", file=sys.stderr)
    metrics: Dict[str, Dict[str, object]] = {
        name: {"value": measured[name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if not ledger.failures else 1


if __name__ == "__main__":
    sys.exit(main())
