"""Ready-made FaaS functions for the paper's workloads.

These factories build the ``produce_edge`` / ``process_edge`` /
``process_cloud`` functions used throughout the evaluation: the Mini-App
block producer, the streaming-outlier-detection processors for each model
(k-means / isolation forest / auto-encoder), a pass-through processor for
the baseline runs, and the compression edge processor discussed for
hybrid transatlantic deployments.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from repro.core.context import FunctionContext
from repro.data.generator import DataBlockGenerator, GeneratorConfig
from repro.ml.base import BaseOutlierDetector
from repro.util.validation import ValidationError, check_positive


def make_block_producer(
    points: int = 1000,
    features: int = 32,
    clusters: int = 25,
    outlier_fraction: float = 0.01,
    seed: int = 42,
) -> Callable:
    """Producer factory: each call to the returned function emits a block.

    The generator is created lazily *per device* (keyed by the context's
    device id) with a device-derived seed, so every simulated edge device
    produces an independent, reproducible stream.
    """
    check_positive("points", points)
    check_positive("features", features)
    generators: dict[str, DataBlockGenerator] = {}

    def produce_edge(context: dict):
        device = FunctionContext.DEVICE_ID
        device_id = context.get(device, "device-0") if context else "device-0"
        gen = generators.get(device_id)
        if gen is None:
            device_seed = seed + (zlib.crc32(device_id.encode()) % 10_000)
            gen = DataBlockGenerator(
                GeneratorConfig(
                    points=points,
                    features=features,
                    clusters=clusters,
                    outlier_fraction=outlier_fraction,
                    seed=device_seed,
                )
            )
            generators[device_id] = gen
        return gen.next_block()

    produce_edge.__name__ = f"produce_blocks_{points}x{features}"
    return produce_edge


def passthrough_processor(context: dict = None, data=None):
    """Baseline processing: validate and summarise, no model.

    Reproduces the paper's "baseline performance" runs, where throughput
    is bounded by data movement rather than computation.
    """
    block = np.asarray(data)
    return {
        "points": int(block.shape[0]),
        "features": int(block.shape[1]) if block.ndim > 1 else 1,
        "mean_norm": float(np.linalg.norm(block.mean(axis=0))),
    }


def make_model_processor(model_factory: Callable, share_key: str | None = None) -> Callable:
    """Processor factory for streaming outlier detection.

    The returned ``process_cloud(context, data)`` scores each incoming
    block with the model, then updates the model on it — the paper's "the
    model is updated based on the incoming data" pattern. With
    ``share_key`` set, updated weights are published to the parameter
    service after every block ("model updates are managed via the
    parameter service").

    The model instance is *per consumer task*: the pipeline deploys one
    long-running consumer per partition (each on its own worker thread),
    and every deployed task trains its own replica — matching how state
    captured in a Dask task closure is replicated per task. Thread-local
    storage implements that here, and also makes the processor safe when
    several consumers share one Python process. Cross-replica weight
    sharing goes through the parameter service (``share_key``).
    """
    import threading

    state = threading.local()

    def process_cloud(context: dict = None, data=None):
        model: BaseOutlierDetector | None = getattr(state, "model", None)
        if model is None:
            model = model_factory()
            state.model = model
        block = np.asarray(data)
        if model.fitted:
            scores = model.decision_function(block)
            n_outliers = int((scores > model.threshold).sum()) if model.threshold is not None else 0
        else:
            scores = None
            n_outliers = 0
        model.partial_fit(block)
        if share_key is not None and context is not None:
            params = FunctionContext(context).params if isinstance(context, dict) else None
            if params is not None and hasattr(model, "get_weights"):
                params.set(share_key, model.get_weights())
        return {
            "model": type(model).__name__,
            "points": int(block.shape[0]),
            "outliers": n_outliers,
            "max_score": float(scores.max()) if scores is not None else 0.0,
        }

    process_cloud.__name__ = f"process_{model_factory.__name__}"
    return process_cloud


def make_compression_edge_processor(factor: int = 4) -> Callable:
    """Edge pre-processing: block-mean pooling as lossy compression.

    Reduces a block to ``points // factor`` rows by averaging groups of
    *factor* consecutive rows — the "data compression step before the data
    transfer" the paper suggests for bandwidth-bound geographic runs.
    """
    check_positive("factor", factor)
    if int(factor) < 1:
        raise ValidationError("factor must be >= 1")

    def process_edge(context: dict = None, data=None):
        block = np.asarray(data, dtype=np.float64)
        n = (block.shape[0] // factor) * factor
        if n == 0:
            return block
        trimmed = block[:n]
        return trimmed.reshape(n // factor, factor, block.shape[1]).mean(axis=1)

    process_edge.__name__ = f"compress_mean_pool_{factor}x"
    process_edge.compression_ratio = 1.0 / factor
    return process_edge
