"""The metric names other code reads are a contract, checked here.

``bench/run.py`` reads a fixed list of names out of
``ClusterBroker.metrics_snapshots()`` and reads a missing one as ``0.0``
— silently. This module drives the traffic that benchmark drives
(durable rf=2 cluster, ``acks="all"`` produce, a long-poll that parks, a
replayed idempotent batch, one restart, sealed segments read back twice)
and asserts every name, section and histogram key of that list, so a
rename fails tier-1 instead of zeroing a per-layer metric. The same
cluster then checks ``docs/API.md`` §"Metric reference": the families it
exports are exactly the documented rows, name and type.
"""

import re
from pathlib import Path

import pytest

from repro.broker import ClusterBroker, ClusterBrokerSupervisor
from repro.broker.storage import StorageConfig
from repro.monitoring import ClusterMetricsAggregator

TOPIC = "t"

#: What bench/run.py::layer_metrics sums or averages, by snapshot section.
BENCH_COUNTERS = (
    "storage.fsyncs",
    "storage.flushed_bytes",
    "storage.segments_sealed",
    "storage.decode_cache_hits",
    "storage.decode_cache_misses",
)
BENCH_GAUGES = ("server.requests_served",)
BENCH_HISTOGRAMS = (
    "storage.fsync_latency_seconds",
    "storage.recovery_seconds",
    "replication.ack_latency_seconds",
)
BENCH_HISTOGRAM_KEYS = ("count", "sum", "p50", "buckets", "bounds")


def _cluster(log_dir):
    supervisor = ClusterBrokerSupervisor(
        num_shards=2,
        replication_factor=2,
        log_dir=log_dir,
        topics=[(TOPIC, 2)],
        # Small segments: a few hundred records seal several of them.
        storage=StorageConfig(segment_bytes=8 * 1024),
    ).start()
    return supervisor, ClusterBroker(supervisor.bootstrap)


def _total(snapshots, section, name):
    return sum(snap[section][name] for snap in snapshots.values())


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """Snapshots and stats of the cluster before and after its restart."""
    log_dir = str(tmp_path_factory.mktemp("contract-logs"))
    out = {}
    supervisor, broker = _cluster(log_dir)
    try:
        for partition in (0, 1):
            for _ in range(20):
                broker.append_many(TOPIC, partition, [b"x" * 512] * 4, acks="all")
        pid, epoch = broker.register_producer("contract-client")
        for _ in range(2):  # the second one is a replay
            broker.append_many(
                TOPIC, 0, [b"y"], acks="all",
                producer_id=pid, producer_epoch=epoch, base_sequence=0,
            )
        end = broker.latest_offset(TOPIC, 1)
        assert broker.fetch(TOPIC, 1, end, timeout=0.2) == []  # parks, times out
        out["written"] = broker.metrics_snapshots()
        out["stats"] = broker.stats()
        out["requests_sent"] = broker.requests_sent
        out["replication"] = broker.replication_status()
    finally:
        broker.close()
        supervisor.stop()
    supervisor, broker = _cluster(log_dir)
    try:
        for _ in range(2):  # second pass hits the decode cache
            for partition in (0, 1):
                assert len(broker.fetch(TOPIC, partition, 0, max_records=500)) >= 80
        out["replayed"] = broker.metrics_snapshots()
        aggregator = ClusterMetricsAggregator(broker)
        aggregator.scrape()
        out["exposition"] = aggregator.snapshot()
    finally:
        broker.close()
        supervisor.stop()
    return out


class TestTheNamesTheBenchmarkReads:
    @pytest.mark.parametrize("phase", ["written", "replayed"])
    def test_every_shard_answers_a_populated_typed_snapshot(self, observed, phase):
        snapshots = observed[phase]
        assert sorted(snapshots) == [0, 1]
        for snap in snapshots.values():
            assert "enabled" not in snap  # the registry is always there
            for name in BENCH_COUNTERS:
                assert name in snap["counters"], name
            for name in BENCH_GAUGES:
                assert name in snap["gauges"], name
            for name in BENCH_HISTOGRAMS:
                for key in BENCH_HISTOGRAM_KEYS:
                    assert key in snap["histograms"][name], (name, key)

    def test_the_write_path_counts(self, observed):
        snapshots = observed["written"]
        for name in ("storage.fsyncs", "storage.flushed_bytes", "storage.segments_sealed"):
            assert _total(snapshots, "counters", name) > 0, name
        assert _total(snapshots, "gauges", "server.requests_served") > 0
        for name in ("storage.fsync_latency_seconds", "replication.ack_latency_seconds"):
            hists = [snap["histograms"][name] for snap in snapshots.values()]
            assert sum(h["count"] for h in hists) > 0, name
            assert sum(h["sum"] for h in hists) > 0, name
            assert all(len(h["buckets"]) == len(h["bounds"]) + 1 for h in hists)

    def test_the_read_path_counts_after_a_restart(self, observed):
        snapshots = observed["replayed"]
        assert _total(snapshots, "counters", "storage.decode_cache_misses") > 0
        assert _total(snapshots, "counters", "storage.decode_cache_hits") > 0
        recovery = [s["histograms"]["storage.recovery_seconds"] for s in snapshots.values()]
        assert all(h["count"] == 2 for h in recovery)  # one per partition store
        assert sum(h["sum"] for h in recovery) > 0

    def test_the_client_side_surface(self, observed):
        stats = observed["stats"]
        assert stats["long_polls_parked"] == 1
        assert stats["duplicates_dropped"] == 1  # PipelineResult.broker_stats is this dict
        assert observed["requests_sent"] > 0
        partitions = observed["replication"]["partitions"]
        assert len(partitions) == 2
        assert all({"log_end", "high_watermark"} <= set(p) for p in partitions)


PLACEHOLDERS = {"<topic>": r"[^.]+", "<partition>": r"\d+", "<Type>": r"\w+"}


def _documented_families():
    """``{family: type}`` from the rows of docs/API.md §"Metric reference"."""
    text = (Path(__file__).parents[2] / "docs" / "API.md").read_text()
    section = text.split("#### Metric reference", 1)[1].split("\n#### ", 1)[0]
    families = {}
    for names, kind in re.findall(r"^\| (`.+?) \| (counter|gauge|histogram) \|", section, re.M):
        for family in re.findall(r"`([^`]+)`", names):
            families[family] = kind
    return families


def _family_pattern(family):
    pattern = re.escape(family)
    for placeholder, regex in PLACEHOLDERS.items():
        pattern = pattern.replace(re.escape(placeholder), regex)
    return re.compile(pattern)


class TestDocsFollowTheRegistry:
    def test_metric_reference_matches_what_a_cluster_exports(self, observed):
        documented = _documented_families()
        assert documented, "docs/API.md metric reference table not found"
        patterns = {family: _family_pattern(family) for family in documented}
        exported = {
            name: kind[:-1]  # "counters" -> "counter"
            for kind in ("counters", "gauges", "histograms")
            for name in observed["exposition"][kind]
        }
        seen = set()
        for name, kind in sorted(exported.items()):
            family = name if name in documented else next(
                (f for f, pattern in patterns.items() if pattern.fullmatch(name)), None
            )
            assert family is not None, f"{name} ({kind}) is exported but not documented"
            assert documented[family] == kind, f"{name}: documented as {documented[family]}"
            seen.add(family)
        # Only the per-error-type counters may be absent from a healthy run.
        unseen = {family for family in documented if family not in seen}
        assert all("<Type>" in family for family in unseen), sorted(unseen)
