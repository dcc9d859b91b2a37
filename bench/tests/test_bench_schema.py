"""What run.py emits is what BENCHMARK.json declares, within the contract's limits."""

import json
import os
import re

from bench import calib, ladder, metrics
from bench.harness import Scratch
from bench.trace import Trace
from bench.workloads import WORKLOADS, Pool, run_pipeline_pass

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_file_is_generated_from_the_tables():
    assert declared() == metrics.benchmark_json(WORKLOADS.values())


def test_contract_limits():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(json.dumps(spec)) < 64 * 1024


def test_emitted_names_equal_declared_names(tmp_path):
    """One tiny traced pass, the ladder and the calibration give exactly the
    per-layer names; the end-to-end names come from the same table run.py prints."""
    from bench.run import end_to_end, layer_metrics

    spec = declared()
    wl = WORKLOADS["small_stream"]
    pool = Pool(1, wl.points, wl.pool_blocks)
    trace = Trace()
    with Scratch(str(tmp_path)) as scratch:
        reference = run_pipeline_pass(wl, pool, scratch, per_device=20)
        traced = run_pipeline_pass(wl, pool, scratch, per_device=20, trace=trace)
        emitted = layer_metrics(wl, reference, traced, trace, import_s=0.1)
        emitted.update(ladder.run(scratch, budget_s=0.005))
    emitted.update(calib.calibrate())
    assert sorted(emitted) == sorted(m["name"] for m in spec["per_layer"])
    assert all(isinstance(v, (int, float)) for v in emitted.values())
    assert emitted["trace.coverage"] >= 0.95
    assert emitted["trace.waterfall_error_share"] < 0.05

    values, _ = end_to_end([reference], [reference.setup_s], import_s=0.1)
    assert sorted(values) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v > 0 for v in values.values())


def test_import_probe_times_a_fresh_interpreter():
    from bench.harness import fresh_import_seconds

    samples = fresh_import_seconds(ROOT, 2)
    assert len(samples) == 2 and all(0.0 < s < 60.0 for s in samples)
