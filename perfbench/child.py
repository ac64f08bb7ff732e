"""One measurement process: set a workload up, run its operations, and
print one JSON line with the per-operation records.

Started by run.py in a fresh interpreter, so that imports and the
package's lru_caches start cold as in a user's `virmin` process:

    python3 perfbench/child.py --workload NAME --seed N --mode MODE
        --spawned-at WALLCLOCK [--seconds S] [--rounds R] [--trace]

MODE is `setup` (stop once the inputs are ready), `timed` (whole rounds
until S seconds have passed) or `fixed` (exactly R rounds, for the
traced comparison).  A calibration kernel runs before every operation
and after the last one (thirty times after set-up in `setup` mode); the
set-up and operation times are also given scaled to the reference speed
by the mean kernel time of the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The calibration kernel's time at the reference speed.  Scaling a run's
# times by REFERENCE_S / (its mean kernel time) removes most of the drift
# of a shared host's speed, which moved unscaled run-level figures by
# 20-35 % (quartile spread over ten runs) on a 2-CPU cloud VM.
REFERENCE_S = 0.0012


def calibration_kernel() -> float:
    """Fastest of three runs of a fixed pure-Python exact-arithmetic loop
    that shares no code with virmin.  The garbage collector is paused so
    that collecting the garbage of the last operation does not count."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            total = Fraction(0)
            for i in range(1, 250):
                total += Fraction(1, i % 97 + 1)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import workloads  # imports virmin; kept inside setup time

    source = Path(workloads.cli.__file__).resolve().parent
    if ROOT / "src" not in source.parents:
        print(f"virmin imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.time() - args.spawned_at
    out = {"setup_s": setup_s, "pool_rule": workload.pool_rule}
    kernel_s = []
    if args.mode == "setup":
        kernel_s = [calibration_kernel() for _ in range(30)]
    else:
        ops, loop_s, rounds = [], 0.0, 0
        while True:
            round_start = time.perf_counter()
            for op in workload.round():
                if tracer is not None:
                    tracer.op_id = len(ops) + 1
                kernel_s.append(calibration_kernel())
                ops.append({**workloads.run_op(op, time.perf_counter), "round": rounds})
            loop_s += time.perf_counter() - round_start
            rounds += 1
            if args.mode == "fixed":
                if rounds >= args.rounds:
                    break
            elif loop_s >= args.seconds:
                break
        kernel_s.append(calibration_kernel())
        out.update(ops=ops, loop_s=loop_s, rounds=rounds)
    speed = statistics.fmean(kernel_s)
    out.update(calibration_s=speed, kernel_s=kernel_s,
               setup_ref_s=setup_s * REFERENCE_S / speed)
    for op in out.get("ops", []):
        op["ref_s"] = op["s"] * REFERENCE_S / speed
    workload.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["counts"] = tracer.counts()
        out["spans"] = len(tracer.spans)
        if args.spans is not None:
            tracer.dump(args.spans)
    import numpy

    out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
