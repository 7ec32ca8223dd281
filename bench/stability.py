"""Check that the benchmark is steady enough to judge a change by.

usage: python3 bench/stability.py [--workloads A,B] [--seeds N] [--first-seed S]
                                  [--trace] [--seconds S]

Runs BENCHMARK.json's command once per seed and workload, the way a
comparison does, from the checkout root. Without --trace it reports, per
end-to-end metric, the median and the spread (third minus first quartile,
as a share of the median) and flags a spread of a third of the metric's
bound or more; setup_s is exempt, only its median is compared between
sets. With --trace it runs every seed twice and requires each count metric
to be identical between the two runs. Exit 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        if args.trace:
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
            for seed in seeds:
                a, b = (run_once(spec, workload, seed, args.seconds, 1) for _ in range(2))
                differ = [n for n in counts if a[n] != b[n]]
                ok &= not differ
                print(f"{workload} seed {seed}: counts "
                      f"{'DIFFER in ' + ', '.join(differ) if differ else 'identical'}: "
                      + json.dumps({n: a[n] for n in counts}), flush=True)
            continue
        runs = [run_once(spec, workload, seed, args.seconds, 0) for seed in seeds]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, s = spread([r[name] for r in runs])
            steady = name == "setup_s" or s < bound / 3
            ok &= steady
            print(f"{workload} {name}: median {median:.6g} {metric['unit']}, "
                  f"spread {s:.4f} (bound {bound}, limit {bound / 3:.4f}) "
                  f"{'ok' if steady else 'TOO WIDE'}; values "
                  + " ".join(f"{r[name]:.6g}" for r in runs), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
