"""Unit tests for the deterministic fault injector."""

import time

import pytest

from repro.broker import Broker, Producer
from repro.faults import FaultInjected, FaultInjector, FaultyBroker
from repro.netem.link import LAN, CELLULAR_EDGE, Link


class TestPlans:
    def test_drop_next_consumes_budget(self):
        injector = FaultInjector()
        injector.drop_next(2, op="append")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                injector.on_broker_op("append")
        injector.on_broker_op("append")  # budget exhausted: passes
        assert injector.fired == {"drop": 2}
        assert injector.pending == 0

    def test_op_filter(self):
        injector = FaultInjector().drop_next(5, op="fetch")
        injector.on_broker_op("append")  # unmatched op: untouched
        with pytest.raises(FaultInjected):
            injector.on_broker_op("fetch")

    def test_delay_rule_sleeps(self):
        injector = FaultInjector().delay_next(0.05, n=1)
        start = time.monotonic()
        injector.on_broker_op("append")
        assert time.monotonic() - start >= 0.04
        start = time.monotonic()
        injector.on_broker_op("append")  # consumed: no further delay
        assert time.monotonic() - start < 0.04

    def test_pause_expires(self):
        injector = FaultInjector().pause(0.05)
        start = time.monotonic()
        injector.on_broker_op("anything")
        assert time.monotonic() - start >= 0.04
        time.sleep(0.01)
        assert injector.pending == 0  # deadline passed: rule pruned

    def test_seeded_probability_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(seed=7).drop_next(
                1000, op=None, probability=0.5
            )
            hits = 0
            for _ in range(100):
                try:
                    injector.on_broker_op("x")
                except FaultInjected:
                    hits += 1
            outcomes.append(hits)
        assert outcomes[0] == outcomes[1]
        assert 20 < outcomes[0] < 80

    def test_clear_disarms(self):
        injector = FaultInjector().drop_next(5)
        injector.clear()
        injector.on_broker_op("append")
        assert injector.stats()["fired"] == {}


class TestFaultyBroker:
    def test_proxy_passthrough(self):
        broker = Broker()
        broker.create_topic("t", 2)
        faulty = FaultyBroker(broker, FaultInjector())
        assert faulty.topic("t").num_partitions == 2
        assert faulty.list_topics() == ["t"]
        assert faulty.coordinator is broker.coordinator

    def test_faulted_ops_come_from_the_op_table(self):
        """Every broker-face op routed to a partition's leader or a
        group's coordinator, plus the ``append`` wrapper."""
        assert FaultyBroker._FAULTED_OPS == {
            "append", "append_many", "fetch", "earliest_offset", "latest_offset",
            "committed_offset", "consumer_lag", "register_producer",
        }
        broker = Broker()
        broker.create_topic("t", 1)
        injector = FaultInjector()
        faulty = FaultyBroker(broker, injector)
        for method in sorted(FaultyBroker._FAULTED_OPS - {"append"}):
            injector.drop_next(1, op=method)
            with pytest.raises(ConnectionError):
                getattr(faulty, method)()
        assert injector.pending == 0

    def test_injected_drop_surfaces_as_connection_error(self):
        broker = Broker()
        broker.create_topic("t", 1)
        faulty = FaultyBroker(broker, FaultInjector().drop_next(1, op="append_many"))
        producer = Producer(faulty)
        with pytest.raises(ConnectionError):
            producer.send("t", b"x", partition=0)
        assert producer.send("t", b"y", partition=0).offset == 0


class TestLinkHook:
    def test_scripted_drop_counts_as_loss(self):
        link = Link(LAN, seed=0, time_scale=0.0)
        link.injector = FaultInjector().drop_next(1, op="transfer")
        with pytest.raises(ConnectionError):
            link.transfer(1000)
        assert link.losses == 1
        link.transfer(1000)  # plan exhausted: clean transfer
        assert link.transfers == 1

    def test_injector_composes_with_profile_loss(self):
        link = Link(CELLULAR_EDGE, seed=1, time_scale=0.0)
        link.injector = FaultInjector().drop_next(2, op="transfer")
        losses = 0
        for _ in range(400):
            try:
                link.transfer(100)
            except ConnectionError:
                losses += 1
        # Scripted drops plus the profile's own 1% random loss.
        assert losses >= 3
        assert link.losses == losses
