"""Does the gate see a slowdown, and does it stay quiet without one?

    python3 bench/gate_selftest.py

Runs ``model_iforest`` three times: twice unchanged and once with every
``process_cloud`` call stretched (a test-only switch in the benchmark's
own wrapper, nothing in the program). ``compare``, with the bounds
``BENCHMARK.json`` declares, must pass the unchanged pair and flag the
slowed run's throughput as worse.

The stretch is twice the declared bound of ``mb_per_s``, not the 15 % the
issue asked for: a gate cannot flag a change smaller than its bound, and
the bound is as wide as this box's run-to-run noise makes it (see
*Steadiness* in the README), so half of the stretch is eaten by the bound
and the rest clears the noise of one run against one run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[0] = os.path.dirname(HERE)  # import as the package, as run.py does
from bench import compare  # noqa: E402

WORKLOAD = "model_iforest"


def measure(spec: dict, out_dir: str, tag: str, slowdown: float) -> dict:
    detail = os.path.join(out_dir, f"{tag}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD, "--seed", "1",
         "--seconds", str(spec["run_seconds"]), "--trace", "0", "--detail", detail,
         "--inject-slowdown", str(slowdown)],
        check=True, stdout=subprocess.DEVNULL)
    with open(detail) as fh:
        result = json.load(fh)
    return {"workloads": {WORKLOAD: {
        "end_to_end": result["metrics"], "attempted": result["attempted"],
        "failed": result["failed"]}}}


def main() -> int:
    spec = compare.load_spec()
    spec["workloads"] = [w for w in spec["workloads"] if w["name"] == WORKLOAD]
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "mb_per_s")
    slowdown = 2 * bound
    with tempfile.TemporaryDirectory() as out_dir:
        base = measure(spec, out_dir, "base", 0.0)
        same = measure(spec, out_dir, "same", 0.0)
        slow = measure(spec, out_dir, "slow", slowdown)
    quiet_rows, quiet = compare.compare(base, same, spec)
    loud_rows, loud = compare.compare(base, slow, spec)
    print("unchanged vs unchanged:\n" + compare.render(quiet_rows))
    print(f"\nunchanged vs +{slowdown:.0%} per message:\n" + compare.render(loud_rows))
    flagged = [r[1] for r in loud_rows if r[-1] == "worse"]
    ok = quiet == 0 and loud == 1 and "mb_per_s" in flagged
    print(f"\ngate self-test {'passed' if ok else 'FAILED'}: unchanged pair exit {quiet}, "
          f"slowed run exit {loud}, flagged {flagged}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
