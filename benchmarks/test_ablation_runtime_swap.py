"""Ablation — runtime function replacement (section II-D).

"The processing functions can be programmatically replaced at runtime
(without the need to allocate a new pilot), allowing, e.g., the
exchanging [of] low vs high fidelity models."

This bench runs one live pipeline that starts with the auto-encoder
(high fidelity) and hot-swaps to k-means (low fidelity) mid-stream. It
measures per-message processing latency before and after the swap and
verifies the swap itself costs no pipeline downtime (no gap larger than
a normal inter-message interval).
"""

import numpy as np
import pytest

from harness import acquire_pilots, print_table
from repro import (
    EdgeToCloudPipeline,
    PilotComputeService,
    PipelineConfig,
    make_block_producer,
    make_model_processor,
)
from repro.ml import AutoEncoder, StreamingKMeans

POINTS = 2000
MESSAGES = 30


def _run_with_swap():
    service = PilotComputeService(time_scale=0.0)
    try:
        edge, cloud = acquire_pilots(2, service)
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=POINTS, features=32),
            process_cloud_function_handler=make_model_processor(
                lambda: AutoEncoder(epochs=10)
            ),
            config=PipelineConfig(
                num_devices=2, messages_per_device=MESSAGES,
                produce_interval=0.001, max_duration=600.0,
            ),
        )
        handle = pipeline.run(wait=False)
        assert handle.wait_for_processed(10, timeout=300)
        pipeline.replace_cloud_function(
            make_model_processor(lambda: StreamingKMeans(n_clusters=25))
        )
        result = handle.join()
        assert result.completed, result.errors
        return pipeline, result
    finally:
        service.close()


def test_runtime_model_swap(benchmark):
    pipeline, result = benchmark.pedantic(_run_with_swap, rounds=1, iterations=1)

    by_model: dict = {}
    for r in result.results:
        by_model.setdefault(r["model"], 0)
        by_model[r["model"]] += 1
    assert by_model.get("AutoEncoder", 0) > 0, "high-fidelity phase missing"
    assert by_model.get("StreamingKMeans", 0) > 0, "swap never took effect"

    # Per-message processing times before vs after the swap.
    rows = pipeline.collector.columns()
    complete = ~(np.isnan(rows["produce"]) | np.isnan(rows["process_end"]))
    starts, ends = rows["process_start"][complete], rows["process_end"][complete]
    order = np.argsort(starts, kind="stable")
    starts, proc = starts[order], (ends - starts)[order]
    n_ae = by_model["AutoEncoder"]
    ae_mean = float(np.mean(proc[:n_ae]))
    km_mean = float(np.mean(proc[n_ae:]))
    print_table(
        "Ablation — runtime model swap (auto-encoder -> k-means)",
        ["phase", "messages", "proc_mean_ms"],
        [
            ("auto-encoder", by_model["AutoEncoder"], round(ae_mean * 1e3, 2)),
            ("kmeans", by_model["StreamingKMeans"], round(km_mean * 1e3, 2)),
        ],
    )
    # The low-fidelity model must be substantially cheaper per message.
    assert km_mean < ae_mean / 3

    # No downtime: the stream never stalls for longer than a generous
    # multiple of the heavy model's own processing time.
    gaps = np.diff(starts)
    assert gaps.max() < max(10 * ae_mean, 1.0)
