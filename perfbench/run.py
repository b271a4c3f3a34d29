"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split into an
untraced and a traced half and the metrics are the per-layer ones, with the
tracing overhead between the halves.  Spans and outputs go to
``perfbench/out/``.  The exit code is 1 when a correctness check fails and 2
when the workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One compute thread, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _import_planact() -> None:
    """Import planact from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import planact

    if src.resolve() not in Path(planact.__file__).resolve().parents:
        raise ImportError(f"planact imported from {planact.__file__}, not from {src}")


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None,
        out_dir: Path = OUT_DIR) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the human-readable report lines."""
    # imported here because workloads imports planact, which _import_planact locates
    from tracing import SETUP, TIMED, Tracer, layer_metrics, quantile
    from workloads import FULL, WORKLOADS

    sizes = sizes or FULL
    workload = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    states, setup_times = [], []
    try:
        for _ in range(workload.setup_reps(sizes)):
            t0 = time.perf_counter()
            if tracer:
                with tracer.installed(SETUP):
                    states.append(workload.setup(seed, sizes, out_dir))
            else:
                states.append(workload.setup(seed, sizes, out_dir))
            setup_times.append(time.perf_counter() - t0)
        state = states[-1]
        if tracer:
            plain = workload.measure(state, seconds / 2)
            with tracer.installed(TIMED):
                m = workload.measure(state, seconds / 2)
        else:
            m = workload.measure(state, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        m.check("set-up repeats give identical inputs",
                len({s["digest"] for s in states}) == 1)
        workload.check(state, m)
    finally:
        for state in states:
            workload.close(state)

    lines = [f"workload {name} seed {seed}: {m.items} {workload.item} in {m.wall:.3f} s, "
             f"{m.ops} ops of one {workload.op}, {len(m.latencies)} latencies"]
    lines += [f"{key} {value:.6g} {unit}" for key, value, unit in workload.named(m)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer:
        metrics = layer_metrics(tracer.spans, m.ops, m.wall)
        metrics["trace.overhead_pct"] = 100.0 * (plain.items_per_s / m.items_per_s - 1.0)
        metrics["policy.success_rate"] = m.context.get("success_rate", 0.0)
        metrics["policy.bc_final_loss"] = m.context.get("bc_final_loss", 0.0)
        spans_path = out_dir / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to {spans_path}")
        kind = "per_layer"
    else:
        latencies_ms = [1000.0 * x for x in m.latencies]
        metrics = {
            "items_per_s": m.items_per_s,
            "op_p50_ms": quantile(latencies_ms, 0.50),
            "op_p90_ms": quantile(latencies_ms, 0.90),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        kind = "end_to_end"
    values = {spec_m["name"]: {"value": metrics[spec_m["name"]], "unit": spec_m["unit"]}
              for spec_m in spec[kind]}
    lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in values.items()]
    failed = [label for label, ok in m.checks if not ok]
    lines += [f"FAILED CHECK: {label}" for label in failed]
    result = {"correct": not failed, "attempted": len(m.checks), "failed": len(failed),
              "metrics": values}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bc_train", "closed_loop", "curate_http", "plan_decode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One core for the whole run, the embed server's threads included: a request
    # then never waits for another core to wake, which made curate_http's rate
    # swing with the load on the machine.  The highest core usually takes the
    # fewest device interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        _import_planact()
    except ImportError as exc:
        print(f"error: cannot import planact from this checkout: {exc}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
