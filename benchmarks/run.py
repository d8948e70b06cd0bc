"""demkit benchmark: exact monitoring numbers, measured end to end.

    python3 benchmarks/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Workloads: verify_all, dem_ladder, past_cap, or ``all`` for the three in a
row. With ``--trace 0`` the run reports the end-to-end metrics (set-up time,
pass wall time, operation latency p50/p90, peak memory); with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. Every operation's output is checked against the
committed references and the independent checker, and the run's last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from clock import Clock

SETUP_PROBES = 11  # fresh processes timing the set-up; the median is reported
MIN_PASSES = 3  # timed passes per run, however short --seconds is

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def setup_probe(name: str, seed: int) -> int:
    """Time importing demkit and building the inputs in this fresh process."""
    w = workloads.WORKLOADS[name]()
    clock = Clock()
    with clock.measure() as interval:
        workloads.import_demkit()
        inputs = w.inputs(seed)
    print(json.dumps({"setup_s": interval.seconds, "digest": w.input_digest(inputs)}))
    return 0


def measure_setup(name: str, seed: int) -> tuple[list[float], set[str]]:
    samples, digests = [], set()
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        if i:  # the first probe compiles the bytecode cache of a fresh checkout
            samples.append(doc["setup_s"])
        digests.add(doc["digest"])
    return samples, digests


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]()
    problems: list[str] = []
    setup_samples, probe_digests = measure_setup(name, seed)
    clock = Clock()
    workloads.import_demkit()
    inputs = w.inputs(seed)

    # the generator: same seed, same inputs (here and in every probe);
    # another seed, other inputs; every graph connected and within the cap
    d = w.input_digest(inputs)
    if probe_digests != {d} or w.input_digest(w.inputs(seed)) != d:
        problems.append("the same seed drew different inputs")
    if w.input_digest(w.inputs(seed + 1)) == d:
        problems.append(f"seeds {seed} and {seed + 1} drew identical inputs")
    problems += w.input_problems(inputs)
    w.prepare(seed, inputs)
    setup_layers = w.setup_layers(seed, clock) if trace else {}
    workloads.TRACE_DIR.mkdir(parents=True, exist_ok=True)

    warm = w.run_pass(inputs, clock)  # untimed: lets lazy set-up and caches settle
    passes = []
    min_passes = MIN_PASSES + 1 if trace else MIN_PASSES
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(w.run_pass(inputs, clock, traced=trace and len(passes) % 2 == 1))

    attempted = failed = 0
    errors: list[str] = []
    for p in [warm] + passes:
        for op, out, first in zip(inputs, p.outputs, warm.outputs):
            attempted += 1
            error = w.output_error(op, out)
            if error is None and out != first:
                error = f"{workloads.label(op)}: output differs between passes" + (
                    " (traced and untraced)" if p.layers is not None else ""
                )
            if error is not None:
                failed += 1
                errors.append(error)

    timed = [p for p in passes if p.layers is None]
    op_samples = [t for p in timed for t in p.op_seconds]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall for p in timed),
        "op_p50_ms": statistics.median(op_samples) * 1000.0,
        "op_p90_ms": statistics.quantiles(op_samples, n=10)[-1] * 1000.0,
        "peak_rss_mb": max(p.rss_kb for p in timed) / 1024.0,
    }
    beyond_p90 = sum(t * 1000.0 > e2e["op_p90_ms"] for t in op_samples)
    print(
        f"{name} seed={seed}: {len(inputs)} operations per pass, {len(timed)} timed passes, "
        f"{len(op_samples)} latency samples ({beyond_p90} beyond p90)"
    )
    for metric, value in e2e.items():
        print(f"  {metric:<12} {value:12.4f} {END_TO_END_UNITS[metric]}")
    raw = statistics.median(p.raw_wall for p in timed)
    print(f"  (wall_s as measured, before normalising to the host speed: {raw:.4f} s)")
    print(f"  failed_share {failed / attempted:12.4f} ({failed} of {attempted} operations)")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    if trace:
        traced = [p for p in passes if p.layers is not None]
        if not all(p.restored for p in traced):
            problems.append("a wrapped demkit attribute was not restored")
        if any(p.ledger != traced[0].ledger for p in traced):
            problems.append("the exact count ledger differs between two traced passes")
        metrics = {}
        for metric in tracing.LAYER_METRICS:
            values = [p.layers[metric] for p in traced]
            if tracing.unit(metric) == "count" and len(set(values)) > 1:
                problems.append(f"{metric} differs between traced passes: {values}")
            value = statistics.median(values) + setup_layers.get(metric, 0)
            metrics[metric] = {"value": value, "unit": tracing.unit(metric)}
        overhead = statistics.median(p.wall for p in traced) - e2e["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for metric, m in metrics.items():
            print(f"  {metric:<26} {m['value']:14.4f} {m['unit']}")
        ledger_path = workloads.TRACE_DIR / f"{name}-ledger.json"
        ledger_path.write_text(json.dumps(
            {"fields": list(tracing.LEDGER_FIELDS), "seed": seed, "instances": traced[0].ledger},
            indent=1,
        ) + "\n")
        print(f"  ledger of {len(traced[0].ledger)} instances: {ledger_path}")

    for line in errors[:10] + problems:
        print(f"  FAILED: {line}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    workloads.import_demkit()  # without the sources: fail before any result
    # One vCPU for this process and every child, so that each calibration
    # runs where the work it brackets ran (see clock.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
