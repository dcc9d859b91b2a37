"""The comparison verdicts and exit code, against the bounds BENCHMARK.json declares."""

import copy

from bench.compare import compare, load_spec, render, verdict

SPEC = load_spec()
MARGIN = 0.02


def result_set(worsen=0.0, failed=0, spread=0.02):
    """Every workload and end-to-end metric BENCHMARK.json declares, each
    metric worse than 100 by its own bound plus *worsen* (``None``: not worse)."""
    metrics = {}
    for m in SPEC["end_to_end"]:
        step = 0.0 if worsen is None else m["bound"] + worsen
        value = 100.0 * (1 - step if m["better"] == "higher" else 1 + step)
        metrics[m["name"]] = {"value": value, "spread": spread}
    return {"workloads": {w["name"]: {
        "end_to_end": copy.deepcopy(metrics), "attempted": 100, "failed": failed}
        for w in SPEC["workloads"]}}


def worse_rows(rows):
    return [(r[0], r[1]) for r in rows if r[-1] == "worse"]


def test_verdicts():
    assert verdict(100, 85, "higher", 0.10, (0.01, 0.01)) == "worse"
    assert verdict(100, 95, "higher", 0.10, (0.01, 0.01)) == "unchanged"
    assert verdict(100, 120, "higher", 0.10, (0.01, 0.01)) == "better"
    assert verdict(100, 95, "higher", 0.10, (0.01, 0.30)) == "unresolved"
    assert verdict(10, 12, "lower", 0.10, (None, None)) == "worse"
    assert verdict(10, 8, "lower", 0.10, (None, None)) == "better"


def test_a_slowdown_beyond_the_declared_bound_fails_the_gate_and_one_within_it_does_not():
    base = result_set(None)
    rows, status = compare(base, result_set(-MARGIN), SPEC)
    assert status == 0 and not worse_rows(rows)
    rows, status = compare(base, result_set(+MARGIN), SPEC)
    assert status == 1
    assert worse_rows(rows) == [
        (w["name"], m["name"]) for w in SPEC["workloads"] for m in SPEC["end_to_end"]]


def test_any_rise_in_failed_share_fails():
    rows, status = compare(result_set(None), result_set(None, failed=1), SPEC)
    assert status == 1
    assert {r[1] for r in rows if r[-1] == "worse"} == {"failed_share"}


def test_a_workload_or_metric_missing_from_the_new_set_fails():
    base, new = result_set(None), result_set(None)
    new["workloads"]["large_stream"] = {}  # what run.py leaves of a crashed workload
    del new["workloads"]["paced_kmeans"]
    del new["workloads"]["small_stream"]["end_to_end"]["mb_per_s"]
    rows, status = compare(base, new, SPEC)
    assert status == 1
    every = [m["name"] for m in SPEC["end_to_end"]]
    assert worse_rows(rows) == [
        ("small_stream", "mb_per_s"),
        *(("large_stream", m) for m in every),
        *(("paced_kmeans", m) for m in every)]
    assert "missing" in render(rows)


def test_a_metric_missing_from_the_base_set_is_unresolved_not_passed_over():
    base = result_set(None)
    del base["workloads"]["small_stream"]["end_to_end"]["mb_per_s"]
    rows, status = compare(base, result_set(None), SPEC)
    assert status == 0
    assert [(r[0], r[1]) for r in rows if r[-1] == "unresolved"] == [("small_stream", "mb_per_s")]
