"""Run one benchmark workload and print its metrics.

From the root of the repository:

    python3 bench/run.py --workload w1_interval_solve --seed 0 --seconds 28 --trace 0

A run repeats passes of one workload, with the same inputs, for about
``--seconds``, and reports medians over the passes after the first, which
warms the memory allocator.  The result of every pass is checked after its
timed region; ``failed`` counts the passes whose check fails or that raise,
so ``failed / attempted`` is the run's failed fraction.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (inputs to
result), ``setup_s`` (inputs to constructed solver state, or the family
build / config draw where there is no solver) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the median traced pass, with ``trace.overhead_s``
the traced minus the untraced median wall time.

The process uses one BLAS thread (``BLAS_THREADS``, also set in the
command of ``BENCHMARK.json``): on a 2-core machine two OpenBLAS threads
made the solver slower and noisier.
The last line of standard output is one JSON object.  Without the
``mildheat`` sources next to this directory the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracing import SetupClock, Tracer, installed, layer_hooks, layer_metrics, setup_hook

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = "1"


@dataclass
class Pass:
    wall: float
    setup: Optional[float]
    result: object
    tracer: object = None
    missing: Optional[dict] = None


def run_pass(workload, inputs, traced: bool) -> Pass:
    clock = SetupClock()
    tracer = Tracer() if traced else None
    hooks = [setup_hook(clock)] + (layer_hooks(tracer) if traced else [])
    with installed(hooks) as missing:
        clock.start = t0 = time.perf_counter()
        result = workload.run(inputs, clock)
        wall = time.perf_counter() - t0
    return Pass(wall, clock.seconds, result, tracer, missing)


def run(workload, seed: int, seconds: float, trace: bool) -> Optional[dict]:
    """Run passes of one workload; return the result object, or None if
    no pass completed."""
    inputs = workload.inputs(seed)
    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        # The first pass is checked but not timed: it page-faults in the
        # memory that later passes reuse from the allocator (on W1, ten
        # times the minor faults and 20-30% more time than a later pass).
        warm_up = attempted == 1
        want_trace = trace and attempted % 2 == 0
        try:
            p = run_pass(workload, inputs, want_trace)
            problems = workload.check(inputs, p.result)
        except Exception:  # a failing pass is counted and reported, not fatal
            traceback.print_exc()
            failed += 1
        else:
            if not warm_up:
                (traced if want_trace else plain).append(p)
            if problems:
                failed += 1
                print(f"pass {attempted} check failed: {'; '.join(problems)}")
            kind = " warm-up" if warm_up else " traced" if want_trace else ""
            print(f"pass {attempted}{kind}: wall {p.wall:.4f} s")
        elapsed = time.perf_counter() - start
        # stop at the end of the pass nearest to the deadline, so that a
        # run lasts about ``seconds`` whatever its pass length
        done = elapsed * (1.0 + 0.5 / attempted) >= seconds
        # at least two timed passes, or one untraced and one traced
        if done and attempted >= 3:
            break
    if not plain or (trace and not traced):
        return None

    notes = []
    if trace:
        median_pass = sorted(traced, key=lambda q: q.wall)[(len(traced) - 1) // 2]
        overhead = median_pass.wall - statistics.median(q.wall for q in plain)
        metrics, notes = layer_metrics(
            median_pass.tracer, median_pass.missing, median_pass.wall, overhead
        )
    else:
        setups = [q.setup for q in plain if q.setup is not None]
        if len(setups) < len(plain):
            notes.append("setup_s: null, the set-up timer did not fire "
                         "(mildheat.solver.PicardRunner.__init__ missing or unused)")
        metrics = {
            "wall_s": {"value": statistics.median(q.wall for q in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups) if len(setups) == len(plain)
                        else None, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    for note in notes:
        print(f"note: {note}")
    print(f"{workload.name} seed {seed}: {attempted} passes, failed_frac {failed / attempted:.3f}")
    for key, m in metrics.items():
        print(f"  {key:28s} {m['value']!s:>24} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # read by the BLAS library when numpy is first imported, below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "mildheat" / "__init__.py").is_file():
        print(f"mildheat sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports numpy, so after the BLAS settings

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if out is None:
        print("no pass completed", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
