#!/usr/bin/env python3
"""Run one workload of the session benchmark and print its metrics.

    python3 perfbench/run.py --workload ident-wall --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced timed pass;
``--trace 1`` re-runs the first deployment sweep with per-layer wrappers
and prints the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (messages) and
``metrics`` (name → value and unit). The program is imported from ``src/``
beside this directory; without it the run exits with status 2.
"""

import os
import sys
import time

_START = time.perf_counter()
# One BLAS thread, set before numpy is imported: the benchmark is one
# process on a small shared box, and threaded BLAS makes the LP and the
# decoder's matrix products timing-unstable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench  # imports numpy, scipy and repro

    import_s = time.perf_counter() - _START
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    if not 0 <= args.seed < bench.REFERENCE_TRACE or args.seconds <= 0:
        parser.error(f"--seed must be in [0, {bench.REFERENCE_TRACE}) and --seconds > 0")
    workload = bench.WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    bench.clean(work_dir)
    try:
        outcome = bench.measure(
            workload, args.seed, args.seconds, bool(args.trace), work_dir, import_s
        )
    finally:
        bench.clean(work_dir)

    table = bench.PER_LAYER if args.trace else bench.END_TO_END
    print("provenance " + json.dumps(bench.provenance(), sort_keys=True))
    print("run " + json.dumps(outcome.notes, sort_keys=True, default=str))
    for name, unit, better in table:
        value = outcome.metrics.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit:12s} {better}")
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit, _ in table
        if name in outcome.metrics
    }
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
