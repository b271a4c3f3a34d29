"""Repeat benchmark runs over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 0] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time, with
``run_seconds`` from BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, beside the metric's
bound.  ``--out`` writes the same figures as JSON, the form of
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for name in bounds:
                runs[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in runs.items()), flush=True)
        report["workloads"][workload] = {name: summarize(v) for name, v in runs.items()}
        for name, s in report["workloads"][workload].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:12s} {name:12s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                  f"bound {bounds[name]}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
