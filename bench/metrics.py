"""Every metric the benchmark emits: name, unit, direction, and what it moves.

``BENCHMARK.json`` at the repo root declares the same names
(``bench/tests`` keeps the two equal); ``python3 bench/metrics.py``
prints the file. *moves* says, for a per-layer metric, which end-to-end
metric it should move on which workload ("-" = predicted no effect),
written down before anything was measured.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 12

#: (name, unit, better, bound). The bounds are what this box's noise allows:
#: the host itself changes speed by a fifth and more from one minute to the
#: next, and the driver refuses a benchmark whose ten-run quartile distance
#: passes a bound on any workload. Rates are upper quartiles over ~1 s
#: windows and, where the processor bounds them, stated at the host's
#: reference speed (see the README); that brought the quartile distances
#: from 10-27 % down to 8 % and less, a third of the bound. Three
#: metrics the issue listed are not here. ``failed_share`` is 0 on a healthy
#: run and has no spread to bound: it travels as ``failed`` / ``attempted``
#: in the result line and as ``check.failed_share`` below. The tail latency
#: swings by 30-50 % on two workloads (one stall moves it) and the CPU time
#: per message by 16-52 % on three (the host's contention inflates CPU time
#: itself), wider than any bound the driver accepts, so by the issue's rule
#: they are demoted: ``latency.tail_ms`` and ``cpu_ms_per_msg`` below.
END_TO_END = (
    ("msgs_per_s", "1/s", "higher", 0.25),
    ("mb_per_s", "MB/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

SIZES = ("small", "large")  # 6.4 KB and 2.56 MB blocks
RUNGS = (
    # (rung, layer it adds, what it should move)
    ("data_generate", "data.generator", "- (the pool is generated before timing)"),
    ("serde_encode", "data.serde", "mb_per_s@large_stream"),
    ("serde_decode", "data.serde", "mb_per_s@large_stream, mb_per_s@replay_sealed"),
    ("log_append", "broker.partition", "cpu_ms_per_msg@small_stream"),
    ("log_fetch", "broker.partition", "cpu_ms_per_msg@small_stream"),
    ("broker_append", "broker.broker", "cpu_ms_per_msg@small_stream"),
    ("broker_fetch", "broker.broker", "cpu_ms_per_msg@small_stream"),
    ("producer_send", "broker.producer", "cpu_ms_per_msg@small_stream, mb_per_s@model_iforest (-)"),
    ("consumer_poll", "broker.consumer", "cpu_ms_per_msg@small_stream, mb_per_s@model_iforest (-)"),
    ("wire_send", "broker.remote+reactor", "msgs_per_s@small_stream, mb_per_s@large_stream; - model_iforest"),
    ("wire_poll", "broker.remote+reactor", "msgs_per_s@small_stream, mb_per_s@replay_sealed; - model_iforest"),
    ("cluster_send", "broker.cluster (1 shard)", "msgs_per_s@small_stream; - model_iforest"),
    ("rf2_send", "broker.cluster replication, acks=all", "latency_p50_ms@paced_kmeans; - model_iforest"),
    ("durable_send", "broker.storage", "mb_per_s@large_stream; - model_iforest"),
    ("fsync_send", "broker.storage fsync_acks", "- (no workload sets fsync_acks)"),
    ("durable_poll", "broker.storage read path", "mb_per_s@replay_sealed; - model_iforest"),
)
FIXED_RUNGS = (
    ("ladder.ml_kmeans.large_us", "ml.kmeans", "latency_p50_ms@paced_kmeans; - *_stream, replay_sealed"),
    ("ladder.ml_iforest.large_us", "ml.iforest", "mb_per_s@model_iforest; - *_stream, replay_sealed"),
    ("ladder.ml_autoencoder.mid_us", "ml.autoencoder", "- (no workload runs it; the paper's third model)"),
    ("ladder.params_set_us", "params", "latency_p50_ms@paced_kmeans"),
    ("ladder.params_get_us", "params", "-"),
    ("ladder.compute_task_us", "compute", "setup_s@all"),
    ("ladder.pilot_acquire_us", "pilot", "setup_s@all"),
    ("ladder.monitoring_stamp_us", "monitoring.collector", "cpu_ms_per_msg@small_stream"),
)

#: (name, unit, better, moves)
PER_LAYER = (
    # Traced pass, per-message waterfall: contiguous intervals, median over messages.
    ("pipeline.edge_self_ms", "ms", "lower", "mb_per_s@large_stream, cpu_ms_per_msg@small_stream"),
    ("broker.append_ms", "ms", "lower", "mb_per_s@large_stream, cpu_ms_per_msg@small_stream; - model_iforest"),
    ("broker.residency_ms", "ms", "lower", "latency_p50_ms@paced_kmeans, msgs_per_s@small_stream (8 in flight / residency); - large_stream"),
    ("pipeline.cloud_self_ms", "ms", "lower", "mb_per_s@large_stream"),
    ("ml.process_ms", "ms", "lower", "mb_per_s@model_iforest, latency_p50_ms@paced_kmeans; - *_stream"),
    ("params.set_ms", "ms", "lower", "latency_p50_ms@paced_kmeans"),
    ("serde.decode_ms", "ms", "lower", "mb_per_s@replay_sealed (read outside the program only there)"),
    # Traced pass, per operation.
    ("broker.fetch_ms", "ms", "lower", "msgs_per_s@small_stream, mb_per_s@replay_sealed"),
    ("broker.fetch_empty_share", "share", "lower", "cpu_ms_per_msg@small_stream"),
    ("broker.records_per_fetch", "count", "higher", "cpu_ms_per_msg@small_stream, mb_per_s@replay_sealed"),
    ("broker.commit_ms", "ms", "lower", "cpu_ms_per_msg@small_stream"),
    ("group.ops_ms", "ms", "lower", "cpu_ms_per_msg@small_stream"),
    ("wire.requests_per_msg", "1/msg", "lower", "cpu_ms_per_msg@small_stream, msgs_per_s@small_stream"),
    ("compute.startup_ms", "ms", "lower", "setup_s@all"),
    ("pilot.acquire_ms", "ms", "lower", "setup_s@all"),
    ("cluster.start_ms", "ms", "lower", "setup_s@deployed workloads"),
    ("cluster.stop_ms", "ms", "lower", "- (teardown is outside every end-to-end metric)"),
    ("setup.import_ms", "ms", "lower", "setup_s@all"),
    # Traced pass, shard counters via telemetry=True + metrics_snapshots().
    ("storage.fsyncs_per_msg", "1/msg", "lower", "mb_per_s@large_stream"),
    ("storage.flushed_bytes_per_user_byte", "B/B", "lower", "mb_per_s@large_stream (2.0 = one replica, no other amplification)"),
    ("storage.fsync_p50_ms", "ms", "lower", "mb_per_s@large_stream"),
    ("storage.segments_sealed", "count", "lower", "mb_per_s@large_stream"),
    ("storage.decode_cache_hit_share", "share", "higher", "mb_per_s@replay_sealed"),
    ("storage.recovery_ms", "ms", "lower", "setup_s@replay_sealed"),
    ("replication.ack_p50_ms", "ms", "lower", "broker.residency_ms"),
    ("replication.hwm_lag_end", "count", "lower", "must be 0"),
    ("server.requests_per_msg", "1/msg", "lower", "cpu_ms_per_msg@small_stream"),
    ("server.long_polls_parked_per_msg", "1/msg", "lower", "broker.residency_ms"),
    ("broker.duplicates_dropped", "count", "lower", "must be 0 without retries"),
    # The layer ladder: the same encoded payload through each successive
    # layer's public call, single thread, median us/op.
    *((f"ladder.{rung}.{size}_us", "us", "lower", moves)
      for rung, _, moves in RUNGS for size in SIZES),
    *((name, "us", "lower", moves) for name, _, moves in FIXED_RUNGS),
    # Harness.
    ("gen.late_share", "share", "lower", "validity of latency_*@paced_kmeans (must stay < 0.01)"),
    ("gen.max_late_ms", "ms", "lower", "validity of latency_*@paced_kmeans"),
    ("mem.client_peak_rss_mb", "MB", "lower", "peak_rss_mb"),
    ("mem.shard_peak_rss_mb", "MB", "lower", "peak_rss_mb"),
    ("trace.overhead_share", "share", "lower", "how far traced numbers are from untraced ones"),
    ("trace.coverage", "share", "higher", "must be >= 0.95"),
    ("trace.waterfall_error_share", "share", "lower", "stages sum to the measured latency; must be < 0.05"),
    ("check.failed_share", "share", "lower", "must be 0"),
    ("latency.tail_ms", "ms", "lower", "latency at the highest percentile with ten samples beyond it (p99 at most)"),
    ("latency.tail_quantile", "share", "higher", "which percentile latency.tail_ms is"),
    ("latency.samples", "count", "higher", "sample count behind latency.*"),
    ("cpu_ms_per_msg", "ms", "lower", "user + system CPU of client and shards per message, untraced pass; "
     "the cost that still moves where a timer pins msgs_per_s (small_stream)"),
    ("host.speed", "share", "higher", "the host's speed during the untraced pass over the reference speed "
     "(harness.HostSpeed; 0 where not sampled): a host-bound workload's rate as measured = msgs_per_s x this"),
    ("calib.crc32_mb_per_s", "MB/s", "higher", "machine speed, for comparing runs across boxes"),
    ("calib.memcpy_mb_per_s", "MB/s", "higher", "machine speed"),
    ("calib.pyloop_ns", "ns", "lower", "machine speed"),
)

E2E_NAMES = tuple(name for name, *_ in END_TO_END)
LAYER_NAMES = tuple(name for name, *_ in PER_LAYER)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> dict:
    """The contract file, from the tables above and the workload specs."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    import os
    import sys

    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from bench.workloads import WORKLOADS

    print(json.dumps(benchmark_json(WORKLOADS.values()), indent=2))
