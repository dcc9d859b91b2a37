"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/spread.py

Runs every workload ten times, with seeds 1 to 10, and prints for each
end-to-end metric the distance between the first and third quartile of
its ten values as a share of their median, next to the metric's bound:
the figure the driver accepts or refuses the benchmark on. A metric is
steady enough to gate on when that spread stays well below the bound (a
third of it is the aim).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            share = (q3 - q1) / median
            worst = max(worst, share / bounds[name]) if name != "setup_s" else worst
            print(f"{workload:14s} {name:16s} median {median:10.4g}  iqr/median {share:6.1%}"
                  f"  bound {bounds[name]:.0%}  min {min(series):.4g} max {max(series):.4g}",
                  flush=True)
    print(f"worst spread is {worst:.2f} of its bound (aim: below 0.33)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
