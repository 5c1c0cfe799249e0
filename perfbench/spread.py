#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a gica checkout:

    python3 perfbench/spread.py --workload significance --seeds 0-9

Each seed is one run of the benchmark command with the ``run_seconds`` of
``BENCHMARK.json``. For each metric it prints the median over the runs and
the distance between the first and third quartile as a share of the
median, next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range LO-HI")
    args = parser.parse_args()
    lo, hi = (int(tok) for tok in args.seeds.split("-"))
    declared = json.loads(Path("BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        cmd = declared["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(declared["run_seconds"]), "--trace", "0",
        ]  # fmt: skip
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(range(lo, hi + 1))} runs")
    for metric in declared["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"  {metric['name']:<12} median {med:.6g} {metric['unit']:<4} "
              f"spread {(q3 - q1) / med:.4f} (bound/3 {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
