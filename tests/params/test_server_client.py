"""Tests for the parameter server and client."""

import threading

import numpy as np
import pytest

from repro.netem import Link, LinkProfile
from repro.params import KeyNotFound, ParameterClient


class TestParameterServer:
    def test_set_get(self, param_server):
        param_server.set("weights", [1, 2, 3])
        assert param_server.get("weights").value == [1, 2, 3]

    def test_concurrent_sets_each_get_a_version(self, param_server):
        # The version is read and bumped under the server's lock, so no
        # two writers are handed the same one.
        versions = []

        def writer():
            versions.extend(param_server.set("k", 0).version for _ in range(200))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sorted(versions) == list(range(1, 801))
        assert param_server.get("k").version == 800

    def test_stats(self, param_server):
        param_server.set("k", 1)
        param_server.set("k", 2)
        assert param_server.stats() == {"server": "test-params", "keys": 1}


class TestParameterClient:
    def test_namespace_isolation(self, param_server):
        a = ParameterClient(param_server, namespace="run-a")
        b = ParameterClient(param_server, namespace="run-b")
        a.set("model", 1)
        b.set("model", 2)
        assert a.get("model").value == 1
        assert b.get("model").value == 2
        assert param_server.keys() == ["run-a/model", "run-b/model"]

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

    def test_unpicklable_value_charged_a_nominal_size(self, param_server):
        link = Link(LinkProfile("l", 0.0, 0.0, 1.0, 1.0), time_scale=0.0)
        client = ParameterClient(param_server, link=link)
        client.set("lock", threading.Lock())
        client.set("fn", lambda: None)
        assert link.bytes_moved == 2 * 64

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
        replica.set_weights(inference.get("kmeans").value)
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
        replica.set_weights(client.get("ae").value)
        np.testing.assert_allclose(
            replica.decision_function(small_block),
            model.decision_function(small_block),
        )
