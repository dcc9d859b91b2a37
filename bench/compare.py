"""Compare result sets written by ``bench/run.py --out``.

    python3 bench/compare.py BASE.json NEW.json [--layers]

One row per (end-to-end metric, workload): base, new, new/base, the
pass-to-pass spread of each side, and a verdict against the bound that
``BENCHMARK.json`` fixes for the metric.

- ``worse``      the new value is worse than the base by more than the bound,
                 or the new set does not have the metric at all (its
                 workload crashed or was not run);
- ``unresolved`` not worse, but a side's spread is wider than the bound, or
                 the base set does not have the metric, so the row cannot
                 be called unchanged;
- ``better``     better by more than the bound;
- ``unchanged``  within the bound either way.

Exits 1 on any ``worse`` row or any rise in a workload's failed share.
``--layers`` adds the per-layer metrics (no bound, so no verdict).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def verdict(base: float, new: float, better: str, bound: float, spreads) -> str:
    """Classify one row; *spreads* are the two sides' pass-to-pass spreads."""
    if base == 0:
        return "unchanged" if new == 0 else "unresolved"
    change = (new - base) / abs(base)
    worsening = -change if better == "higher" else change
    if worsening > bound:
        return "worse"
    if any(s is not None and s > bound for s in spreads):
        return "unresolved"
    return "better" if worsening < -bound else "unchanged"


def failed_share(workload: dict) -> float:
    return workload.get("failed", 0) / max(1, workload.get("attempted", 1))


def compare(base: dict, new: dict, spec: dict, layers: bool = False) -> tuple[list, int]:
    """Rows of (workload, metric, base, new, base spread, new spread, verdict)
    and the exit code. A value a side does not have is ``None``."""
    rows, status = [], 0
    for name in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"].get(name) or {}, new["workloads"].get(name) or {}
        for metric in spec["end_to_end"]:
            ma = a.get("end_to_end", {}).get(metric["name"]) or {}
            mb = b.get("end_to_end", {}).get(metric["name"]) or {}
            spreads = (ma.get("spread"), mb.get("spread"))
            if "value" not in mb:
                # A workload that crashed in the new run leaves nothing behind:
                # that is a failure of the new code, not a row to skip.
                result = "worse"
            elif "value" not in ma:
                result = "unresolved"
            else:
                result = verdict(ma["value"], mb["value"], metric["better"], metric["bound"],
                                 spreads)
            status |= result == "worse"
            rows.append((name, metric["name"], ma.get("value"), mb.get("value"), *spreads, result))
        fa, fb = failed_share(a), failed_share(b)
        result = "worse" if fb > fa else "unchanged"
        status |= fb > fa
        rows.append((name, "failed_share", fa, fb, None, None, result))
        if layers:
            for metric in spec["per_layer"]:
                ma = a.get("per_layer", {}).get(metric["name"])
                mb = b.get("per_layer", {}).get(metric["name"])
                if ma and mb:
                    rows.append((name, metric["name"], ma["value"], mb["value"], None, None, ""))
    return rows, int(status)


def render(rows) -> str:
    def pct(x):
        return f"{x:6.1%}" if x is not None else "     -"

    def num(x):
        return f"{x:11.4g}" if x is not None else "    missing"

    lines = [f"{'workload':14s} {'metric':36s} {'base':>11s} {'new':>11s} {'new/base':>9s} "
             f"{'spread':>6s} {'spread':>6s}  verdict"]
    for workload, metric, a, b, sa, sb, result in rows:
        ratio = f"{b / a:9.3f}" if a and b is not None else "        -"
        lines.append(f"{workload:14s} {metric:36s} {num(a)} {num(b)} {ratio} "
                     f"{pct(sa)} {pct(sb)}  {result}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    layers = "--layers" in argv
    paths = [a for a in argv if a != "--layers"]
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in paths:
        with open(path) as fh:
            sets.append(json.load(fh))
    rows, status = compare(*sets, load_spec(), layers)
    print(render(rows))
    counts = {v: sum(1 for r in rows if r[-1] == v) for v in ("worse", "unresolved", "better")}
    print(f"{counts['worse']} worse, {counts['unresolved']} unresolved, {counts['better']} better"
          f" (ratios are new/base; base commit {sets[0].get('provenance', {}).get('commit')},"
          f" new {sets[1].get('provenance', {}).get('commit')})")
    return status


if __name__ == "__main__":
    sys.exit(main())
