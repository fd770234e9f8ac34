"""Run-to-run spread of the end-to-end metrics.

    python3 cdbench/stability.py --seconds 20 --seeds 10 [--workload NAME ...]

Runs run.py once per seed and workload, one process at a time, and prints
for every end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json. Pass --first-seed to draw a
different set of seeds, and --json FILE to keep these figures with every
run's value, the Python version and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "workloads": {},
    }
    ok = True
    for name in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: incorrect (exit {proc.returncode})")
                ok = False
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary["workloads"][name] = stats = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(metric)
            stats[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{name:16} {metric:15} median {med:12.5f} q1 {q1:12.5f} q3 {q3:12.5f} "
                  f"spread {spread:6.3f} bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
