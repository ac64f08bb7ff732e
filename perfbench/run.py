"""Benchmark entry point for virmin: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout: the program is imported
from the checkout's `src/`, and nothing is read or written outside the
checkout.  Every measurement runs in a fresh interpreter (child.py) with
one thread for the BLAS libraries and a fixed PYTHONHASHSEED, one after
another.

--trace 0 sets the workload up five times (the median is `setup_s`) and
measures whole rounds of operations for about --seconds seconds.  Its
times are scaled to a reference CPU speed by the mean time of a
calibration kernel run in the same process (see child.py); the report
also gives them as measured.  --trace 1 runs the same fixed rounds twice, untraced and
traced, and reports the per-layer metrics, as measured, with the
tracing overhead (traced minus untraced operation time, scaled).

Standard output ends with a report line ({"report": ...}: every metric
the workload defines, with its unit and sample count, failing inputs by
label, diagnostics and the environment) and then the result line
{"correct", "attempted", "failed", "metrics"} with the BENCHMARK.json
metrics of the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("certify-cold", "evaluate-warm", "exact-algebra", "verify-all")
SETUP_RUNS = 5
TRACE_ROUNDS = {"evaluate-warm": 20}  # default: one round
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("VIRMIN_CACHE_DIR", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, mode: str, deadline: float, extra=()) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a measurement")
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), *extra]
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} measurement exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} measurement exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def timing(values: list[float], unit: str, scale: float = 1.0) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    out = {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - pct / 100) >= 10:
            out["tail"] = {"percentile": pct, "value": quantile(values, pct) * scale}
            break
    return out


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def kind_means(ops: list[dict], key: str = "ref_s") -> list[tuple[int, float]]:
    """(count, geometric-mean time) per operation kind."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op[key])
    return [(len(v), geomean(v)) for v in by_kind.values()]


def typical_op_s(ops: list[dict], key: str = "ref_s") -> float:
    """Geometric mean over the operation kinds of each kind's geometric-mean
    time: every kind weighs the same, however many operations it has."""
    return geomean([m for _, m in kind_means(ops, key)])


def ops_per_s(ops: list[dict], key: str = "ref_s") -> float:
    """Operations per second with every operation at its kind's mean time."""
    return len(ops) / sum(n * m for n, m in kind_means(ops, key))


def op_times(ops: list[dict], *kinds: str, key: str = "ref_s") -> list[float]:
    """Operation times scaled to the reference speed (key="s": as measured)."""
    return [op[key] for op in ops if not kinds or op["kind"] in kinds]


def workload_metrics(workload: str, ops: list[dict]) -> dict:
    """The metrics each workload defines beyond the shared ones."""
    if workload == "certify-cold":
        ok = sum(op["outcome"] == "ok" for op in ops)
        per_s = ops_per_s(ops) * ok / len(ops)
        out = {"certified_per_s": {"value": per_s, "unit": "1/s", "n": len(ops)}}
        for order in (2, 4, 6):
            out[f"certify_o{order}_s"] = timing(op_times(ops, f"o{order}"), "s")
        return out
    if workload == "evaluate-warm":
        return {
            "block_p50_ms": timing(op_times(ops, "block-o4", "block-ising"), "ms", 1e3),
            "residual_p50_ms": timing(op_times(ops, "residual"), "ms", 1e3),
        }
    if workload == "exact-algebra":
        return {
            "kacdet_cold_s": timing(op_times(ops, "kacdet-cold"), "s"),
            "kacdet_warm_s": timing(op_times(ops, "kacdet-warm"), "s"),
            "fusion_ring_s": timing(op_times(ops, "fusion-ring"), "s"),
        }
    rounds: dict[int, float] = {}
    for op in ops:
        rounds[op["round"]] = rounds.get(op["round"], 0.0) + op["ref_s"]
    return {"verify_all_s": timing(list(rounds.values()), "s")}


def failures(ops: list[dict]) -> list[dict]:
    """Failing inputs by label, each once, with how often it failed."""
    out: dict[str, dict] = {}
    for op in ops:
        if op["outcome"] != "ok":
            entry = out.setdefault(op["label"], {"label": op["label"], "kind": op["kind"],
                                                 "outcome": op["outcome"],
                                                 "note": op.get("note", ""), "times": 0})
            entry["times"] += 1
    return list(out.values())


def environment(child: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**child["env"], "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "PYTHONHASHSEED": "0"}}


def outcome_counts(*children: dict) -> tuple[bool, int, int]:
    ops = children[-1]["ops"]
    correct = all(op["outcome"] != "incorrect" for c in children for op in c["ops"])
    return correct, len(ops), sum(op["outcome"] != "ok" for op in ops)


def measure(args, deadline: float) -> tuple[dict, dict]:
    children = [run_child(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
    timed = run_child(args, "timed", deadline)
    children.append(timed)
    records = ROOT / ".perfbench_work" / f"ops-{args.workload}-seed{args.seed}.json"
    records.parent.mkdir(exist_ok=True)
    records.write_text(json.dumps(timed))
    setups = [c["setup_ref_s"] for c in children]
    ops = timed["ops"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
        "op_geomean_ms": typical_op_s(ops) * 1e3,
    }
    report = {
        "metrics": {
            "setup_s": {"value": values["setup_s"], "unit": "s", "n": len(setups)},
            "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MB", "n": 1},
            "op_geomean_ms": {"value": values["op_geomean_ms"], "unit": "ms", "n": len(ops),
                              "kinds": len(kind_means(ops))},
            "ops_per_s": {"value": ops_per_s(ops), "unit": "1/s", "n": len(ops)},
            "op_p50_ms": timing(op_times(ops), "ms", 1e3),
            **workload_metrics(args.workload, ops),
        },
        "as_measured": {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "op_geomean_ms": typical_op_s(ops, "s") * 1e3,
            "ops_per_s": ops_per_s(ops, "s"),
            "op_p50_ms": timing(op_times(ops, key="s"), "ms", 1e3),
            "calibration_s": timed["calibration_s"],
            "reference_s": REFERENCE_S,
        },
        "rounds": timed["rounds"],
        "loop_s": timed["loop_s"],
        "op_records": str(records.relative_to(ROOT)),
        "pool": timed["pool_rule"],
        "failures": failures(ops),
        "env": environment(timed),
    }
    if args.workload == "certify-cold":
        report["diagnostics"] = {"fusing_heldout_residual": {
            op["label"]: op["diagnostic"]["fusing_heldout_residual"]
            for op in ops if "diagnostic" in op}}
    return values, {**report, "outcomes": outcome_counts(timed)}


def measure_traced(args, deadline: float) -> tuple[dict, dict]:
    rounds = ["--rounds", str(TRACE_ROUNDS.get(args.workload, 1))]
    spans = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(exist_ok=True)
    plain = run_child(args, "fixed", deadline, rounds)
    traced = run_child(args, "fixed", deadline, rounds + ["--trace", "--spans", str(spans)])
    # the operations' time, scaled to the reference speed, with and without spans
    untraced_s, traced_s = sum(op_times(plain["ops"])), sum(op_times(traced["ops"]))
    values = {**traced["layers"], "trace.overhead_s": traced_s - untraced_s}
    report = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_share": (traced_s - untraced_s) / untraced_s,
        "as_measured": {"untraced_s": sum(op_times(plain["ops"], key="s")),
                        "traced_s": sum(op_times(traced["ops"], key="s"))},
        "rounds": traced["rounds"],
        "spans": traced["spans"],
        "span_file": str(spans.relative_to(ROOT)),
        "cache_hit_ratio_base": traced["counts"],
        "pool": traced["pool_rule"],
        "failures": failures(traced["ops"]),
        "env": environment(traced),
    }
    return values, {**report, "outcomes": outcome_counts(plain, traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "virmin" / "__init__.py").is_file():
            raise BenchError(f"no virmin sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        values, report = (measure_traced if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}",
              file=sys.stderr)
        return 1
    correct, attempted, failed = report.pop("outcomes")
    report.update(workload=args.workload, seed=args.seed,
                  seed_used=args.workload != "verify-all", trace=args.trace,
                  failed_fraction={"value": failed / attempted, "failed": failed,
                                   "attempted": attempted})
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
