#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for every metric, the
median and the interquartile range as a share of the median -- the
steadiness figure a bound in BENCHMARK.json must cover.

Usage, from the repository root:
    python3 perfbench/spread.py WORKLOAD FIRST_SEED COUNT [--trace 1]
"""

import json
import statistics
import subprocess
import sys


def main():
    workload, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    trace = "1" if sys.argv[4:] == ["--trace", "1"] else "0"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in range(first, first + count):
        command = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", trace,
        ]
        out = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vs in values.items():
        median = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / median
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound} ({spread / bound:.2f} of it)"
        print(f"{name:<32} median {median:<14.6g} spread {spread:.4f}{note}")


if __name__ == "__main__":
    main()
