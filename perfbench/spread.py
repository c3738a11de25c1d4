"""Steadiness check: run one workload over several seeds and report spreads.

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is flagged.
Runs are sequential: one run at a time, so they never compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in values
        ), flush=True)

    worst = 0.0
    for name, series in values.items():
        share = spread(series)
        flag = "  <-- above bound/3" if share > bounds[name] / 3 else ""
        worst = max(worst, share / bounds[name])
        print(f"{name:16s} median={statistics.median(series):<12.5g} "
              f"spread={share:.4f} bound={bounds[name]}{flag}")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
