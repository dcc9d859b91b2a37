"""Headline quantitative claims from the paper's conclusion.

1. "k-means can achieve five times the throughput of isolation forests
   for large message sizes (10,000 points)" — we assert k-means wins by
   a large factor and report the measured multiple. Our isolation forest
   is NumPy where the paper's (sklearn via PyOD) is Cython, and since
   PR 24 it scores a block in a fifth of the time it did, so the factor
   has no fixed side of 5x to be on (6x - 14x on a 2-core box, where the
   two consumers' tree refreshes contend for the GIL; EXPERIMENTS.md);
   the ordering and the who-wins structure hold.
2. "auto-encoders proved unsuitable for the investigated resource
   configurations due to their high computational demands" — the
   auto-encoder must be the slowest model by throughput and latency.
"""

import pytest

from harness import print_table, run_live

POINTS = 10_000


def _run_models():
    results = {}
    for model in ("kmeans", "iforest", "autoencoder"):
        messages = 6 if model != "kmeans" else 12
        result = run_live(points=POINTS, devices=2, model=model, messages=messages)
        assert result.completed, result.errors
        results[model] = result
    rows = [
        (m, results[m].report.row()["MB/s"], results[m].report.row()["lat_mean_ms"])
        for m in results
    ]
    print_table(
        "Headline claims — 10,000-point messages",
        ["model", "MB/s", "lat_mean_ms"],
        rows,
    )
    factor = results["kmeans"].report.throughput_mb_s / results["iforest"].report.throughput_mb_s
    print(f"\nmeasured k-means / isolation-forest throughput factor: {factor:.1f}x "
          f"(paper: ~5x with sklearn-backed PyOD)")
    return results


def test_kmeans_beats_iforest_by_large_factor(benchmark):
    results = benchmark.pedantic(_run_models, rounds=1, iterations=1)
    factor = (
        results["kmeans"].report.throughput_mb_s
        / results["iforest"].report.throughput_mb_s
    )
    # Paper: ~5x. Which side of that this reads on depends on the box and
    # on how the two model implementations' constants compare with
    # sklearn's, so assert the claim's direction and a minimum magnitude.
    assert factor >= 3.0


def test_autoencoder_is_unsuitable_for_streaming(benchmark):
    results = benchmark.pedantic(
        lambda: {
            m: run_live(points=POINTS, devices=2, model=m, messages=6)
            for m in ("kmeans", "iforest", "autoencoder")
        },
        rounds=1,
        iterations=1,
    )
    ae = results["autoencoder"].report
    assert ae.throughput_mb_s < results["kmeans"].report.throughput_mb_s
    assert ae.throughput_mb_s < results["iforest"].report.throughput_mb_s
    assert ae.latency_mean_s > results["kmeans"].report.latency_mean_s
