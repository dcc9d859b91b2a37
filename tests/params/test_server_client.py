"""Tests for the parameter server and client."""

import threading

import numpy as np
import pytest

from repro.netem import Link, LinkProfile
from repro.params import CasConflict, KeyNotFound, ParameterClient, ParameterServer


class TestParameterServer:
    def test_set_get(self, param_server):
        param_server.set("weights", [1, 2, 3])
        assert param_server.get("weights").value == [1, 2, 3]

    def test_get_value_default(self, param_server):
        assert param_server.get_value("missing", default="d") == "d"

    def test_cas_surface(self, param_server):
        param_server.set("k", 1)
        param_server.compare_and_set("k", 2, expected_version=1)
        with pytest.raises(CasConflict):
            param_server.compare_and_set("k", 3, expected_version=1)

    def test_watch_returns_newer_version(self, param_server):
        param_server.set("k", "v1")

        def writer():
            param_server.set("k", "v2")

        threading.Timer(0.02, writer).start()
        entry = param_server.watch("k", after_version=1, timeout=5.0)
        assert entry.value == "v2"
        assert entry.version == 2

    def test_watch_immediate_when_already_newer(self, param_server):
        param_server.set("k", "v")
        entry = param_server.watch("k", after_version=0, timeout=0.1)
        assert entry.value == "v"

    def test_watch_timeout(self, param_server):
        assert param_server.watch("never", timeout=0.05) is None

    def test_subscribe_callback(self, param_server):
        seen = []
        unsubscribe = param_server.subscribe("k", lambda e: seen.append(e.value))
        param_server.set("k", 1)
        param_server.set("k", 2)
        unsubscribe()
        param_server.set("k", 3)
        assert seen == [1, 2]

    def test_subscriber_error_isolated(self, param_server):
        param_server.subscribe("k", lambda e: 1 / 0)
        param_server.set("k", 1)  # must not raise

    def test_subscriber_error_counted(self, param_server):
        seen = []
        param_server.subscribe("k", lambda e: 1 / 0)
        param_server.subscribe("k", lambda e: seen.append(e.version))
        assert param_server.stats()["callback_errors"] == {}
        param_server.set("k", 1)
        param_server.compare_and_set("k", 2, expected_version=1)
        assert seen == [1, 2]  # the next subscriber still ran
        assert param_server.stats()["callback_errors"] == {"ZeroDivisionError": 2}

    def test_concurrent_cas_single_winner(self, param_server):
        param_server.set("counter", 0)
        wins = []

        def contender(tag):
            try:
                param_server.compare_and_set("counter", tag, expected_version=1)
                wins.append(tag)
            except CasConflict:
                pass

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert param_server.get("counter").version == 2

    def test_stats(self, param_server):
        param_server.set("k", 1)
        stats = param_server.stats()
        assert stats["keys"] == 1
        assert stats["total_sets"] == 1


class TestParameterClient:
    def test_namespace_isolation(self, param_server):
        a = ParameterClient(param_server, namespace="run-a")
        b = ParameterClient(param_server, namespace="run-b")
        a.set("model", 1)
        b.set("model", 2)
        assert a.get("model").value == 1
        assert b.get("model").value == 2
        assert a.keys() == ["model"]

    def test_no_namespace_passthrough(self, param_server):
        client = ParameterClient(param_server)
        client.set("k", "v")
        assert param_server.get("k").value == "v"

    def test_link_charges_network_time(self, param_server):
        profile = LinkProfile("slow", 10.0, 10.0, 100.0, 100.0)
        link = Link(profile, time_scale=0.0)  # report, don't sleep
        client = ParameterClient(param_server, link=link)
        weights = np.zeros((100, 100))  # 80 KB
        client.set("w", weights)
        assert client.network_seconds > 0
        assert link.bytes_moved == weights.nbytes

    def test_numpy_list_payload_size(self, param_server):
        link = Link(LinkProfile("l", 0.0, 0.0, 1.0, 1.0), time_scale=0.0)
        client = ParameterClient(param_server, link=link)
        arrays = [np.zeros(10), np.zeros(20)]
        client.set("w", arrays)
        assert link.bytes_moved == 30 * 8

    def test_watch_through_client(self, param_server):
        client = ParameterClient(param_server, namespace="ns")
        client.set("k", 1)
        entry = client.watch("k", after_version=0, timeout=1.0)
        assert entry.value == 1

    def test_delete_contains(self, param_server):
        client = ParameterClient(param_server, namespace="ns")
        client.set("k", 1)
        assert client.contains("k")
        assert client.delete("k")
        assert not client.contains("k")

    def test_get_missing_raises(self, param_server):
        client = ParameterClient(param_server)
        with pytest.raises(KeyNotFound):
            client.get("missing")


class TestModelWeightSharing:
    """End-to-end: share model weights across 'sites' via the server."""

    def test_kmeans_weights_roundtrip(self, param_server, small_block):
        from repro.ml import StreamingKMeans

        trainer = ParameterClient(param_server, namespace="run")
        inference = ParameterClient(param_server, namespace="run")

        model = StreamingKMeans(n_clusters=4, seed=0).fit(small_block)
        trainer.set("kmeans", model.get_weights())

        replica = StreamingKMeans(n_clusters=4)
        replica.set_weights(inference.get_value("kmeans"))
        np.testing.assert_allclose(
            replica.decision_function(small_block),
            model.decision_function(small_block),
        )

    def test_autoencoder_weights_roundtrip(self, param_server, small_block):
        from repro.ml import AutoEncoder

        model = AutoEncoder(epochs=2, seed=0).fit(small_block)
        client = ParameterClient(param_server)
        client.set("ae", model.get_weights())
        replica = AutoEncoder()
        replica.set_weights(client.get_value("ae"))
        np.testing.assert_allclose(
            replica.decision_function(small_block),
            model.decision_function(small_block),
        )
