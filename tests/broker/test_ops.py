"""The op table is the one definition of every broker op: the client
stubs, the cluster routing, the replay rule, parkability and the docs
must all agree with it — and ShardBroker's hand-written ownership
guards must agree with its routing keys."""

import inspect
import re
import socket
import threading
from pathlib import Path

import pytest

from repro.broker import (
    Broker,
    BrokerError,
    BrokerServer,
    ClusterBroker,
    DisconnectedError,
    GroupCoordinator,
    NotOwnerError,
    RemoteBroker,
    ShardBroker,
    coordinator_shard,
    shard_for_partition,
)
from repro.broker.cluster import _HAND_ROUTED
from repro.broker.ops import OPS, REQUIRED, CoordinatorClient
from repro.broker.wire import encode_frame, recv_frame, sendall_vectored
from repro.faults import FaultInjector
from repro.monitoring import MetricsRegistry

BROKER_OPS = [op for op in OPS.values() if op.on == "broker"]
COORDINATOR_OPS = [op for op in OPS.values() if op.on == "coordinator"]


def _public_methods(cls) -> set:
    return {
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(attr)
    }


class TestSurfacesComeFromTheTable:
    def test_remote_broker_is_the_table_plus_three(self):
        table = {op.method for op in BROKER_OPS}
        # append is the batch-of-one wrapper, committed_offsets an alias
        # onto the coordinator face, close is lifecycle.
        assert _public_methods(RemoteBroker) - table == {
            "append", "committed_offsets", "close",
        }
        assert table <= _public_methods(RemoteBroker)

    def test_coordinator_face_is_exactly_the_table(self):
        assert _public_methods(CoordinatorClient) == {op.method for op in COORDINATOR_OPS}
        with BrokerServer() as server, RemoteBroker(server.host, server.port) as remote:
            assert type(remote.coordinator) is CoordinatorClient
            # Unknown attributes still raise: Consumer probes
            # ``partition_log`` with getattr-with-default, and the
            # benchmark's proxies pass such probes through. The consumer
            # no longer probes the coordinator's ``session_timeout_ms``.
            assert getattr(remote, "partition_log", None) is None
            assert getattr(remote.coordinator, "session_timeout_ms", 0.0) == 0.0

    def test_cluster_broker_routes_the_table(self):
        routed = {op.method for op in BROKER_OPS if op.route != "shard-index"}
        assert set(_HAND_ROUTED) <= routed
        assert routed <= _public_methods(ClusterBroker)
        # What is left is lifecycle, the two wrappers RemoteBroker also
        # has, and the per-shard views of the shard-index ops.
        assert _public_methods(ClusterBroker) - routed == {
            "append", "committed_offsets", "close", "refresh_metadata",
            "metrics_snapshots", "shard_events",
            "events_snapshots", "shard_spans", "span_snapshots",
        }
        for op in BROKER_OPS:
            if op.route == "shard-index":
                assert not hasattr(ClusterBroker, op.method), op.name
            if op.route == "every-shard" and op.method not in _HAND_ROUTED:
                assert op.merge is not None, op.name

    @pytest.mark.parametrize("op", list(OPS.values()), ids=lambda op: op.name)
    def test_fields_match_the_serving_method(self, op):
        """Parameter names and defaults are the in-process method's."""
        owner = GroupCoordinator if op.on == "coordinator" else ShardBroker
        method = getattr(owner, op.method)
        if any(
            p.kind is p.VAR_KEYWORD for p in inspect.signature(method).parameters.values()
        ):
            method = getattr(Broker, op.method)  # a guard wrapper: see through it
        params = inspect.signature(method).parameters
        for field in op.fields:
            name = field.param or field.name
            assert name in params, f"{op.name}: {name}"
            default = params[name].default
            if field.default is REQUIRED:
                assert default is inspect.Parameter.empty, f"{op.name}: {name}"
            elif default is not inspect.Parameter.empty:
                assert default == field.default, f"{op.name}: {name}"


#: A value for every required field, by field name.
_VALUES = {
    "topic": "t", "partition": 0, "offset": 0, "values": [b"x"], "topics": ["t"],
    "group": "g", "group_id": "g", "member_id": "m", "client_id": "c",
    "base_offset": 0, "records": [], "offsets": [],
}


def _request(op, **override) -> tuple:
    """A minimal well-formed (request frame, blobs) for *op*."""
    bound = {
        (f.param or f.name): _VALUES[f.name]
        for f in op.fields
        if f.default is REQUIRED
    }
    bound.update(override)
    return op.request(op.bind((), bound))


class TestRoutingKeysMatchShardGuards:
    @pytest.fixture
    def shards(self):
        shards = [ShardBroker(shard_index=i, num_shards=2) for i in range(2)]
        for shard in shards:
            shard.set_cluster([("h", 1), ("h", 2)], epoch=1)
            shard.create_topic("t", 4)
        return shards

    @pytest.mark.parametrize(
        "op", [op for op in OPS.values() if op.route == "partition"], ids=lambda op: op.name
    )
    def test_partition_routed_ops_are_owner_guarded(self, shards, op):
        partition = next(p for p in range(4) if shard_for_partition("t", p, 2) == 1)
        frame, blobs = _request(op, partition=partition)
        with pytest.raises(NotOwnerError):
            op.invoke(shards[0], frame, blobs)
        op.invoke(shards[1], frame, blobs)  # the owner serves it

    @pytest.mark.parametrize(
        "op", [op for op in OPS.values() if op.route == "group"], ids=lambda op: op.name
    )
    def test_group_routed_ops_are_coordinator_guarded(self, shards, op):
        key = op.fields[0].param or op.fields[0].name
        group = next(f"g{i}" for i in range(64) if coordinator_shard(f"g{i}", 2) == 1)
        frame, blobs = _request(op, **{key: group})
        if op.name == "register_producer":
            # Routed like a group so one client id always fences on one
            # shard, but not guarded: strided producer ids make any
            # shard's answer safe, so direct single-shard clients work.
            pid, _ = op.invoke(shards[0], frame, blobs)[0]
            assert pid % 2 == 0
            return
        with pytest.raises(NotOwnerError):
            op.invoke(shards[0], frame, blobs)
        if op.raises is None:  # nobody joined: the member ops raise
            op.invoke(shards[1], frame, blobs)


class TestReplayAndParking:
    def test_exactly_the_with_producer_id_ops_are_never_resent(self):
        """Driven through a real client whose socket dies under each op:
        those ops sent without a producer id fail instead of being
        resent; every other op is resent once, on a fresh socket."""
        shard = ShardBroker(shard_index=0, num_shards=1)
        shard.create_topic("t", 1)
        injector = FaultInjector()
        with BrokerServer(shard) as server:
            shard.set_cluster([(server.host, server.port)], epoch=1)
            with RemoteBroker(server.host, server.port, reconnect_backoff_ms=0.0) as remote:
                remote.fault_injector = injector
                sent_once = set()
                for producer_id in (None, 7):
                    for op in OPS.values():
                        override = {}
                        if any(f.name == "producer_id" for f in op.fields):
                            override = {"producer_id": producer_id, "base_sequence": 0}
                        frame, blobs = _request(op, **override)
                        injector.kill_socket_once(op.name)
                        before = remote.requests_sent
                        try:
                            remote._roundtrip(op, frame, blobs)
                        except DisconnectedError:
                            sent_once.add((op.name, producer_id))
                        except BrokerError:
                            pass  # resent and refused: the resend is under test
                        writes = remote.requests_sent - before
                        ahead = getattr(remote._local, op.name, None)
                        if ahead is not None and ahead.ahead is not None:
                            # An answered heartbeat's follow-on is a new
                            # request, not a resend: take it back out.
                            remote._drop(ahead, op.name)
                            writes -= 1
                        assert writes == (1 if (op.name, producer_id) in sent_once else 2), op.name
        guarded = {op.name for op in OPS.values() if op.replay == "with_producer_id"}
        assert guarded == {"append_batch"}
        assert sent_once == {(name, None) for name in guarded}

    def test_the_timed_fetch_and_heartbeat_are_parkable(self):
        parkable = {op.name for op in OPS.values() if op.parkable}
        assert parkable == {"fetch_batch", "group_heartbeat"}
        fetch = OPS["fetch_batch"]
        assert fetch.park_seconds({"timeout": 1.5}) == 1.5
        for untimed in ({}, {"timeout": 0}, {"timeout": None}, {"timeout": "soon"}):
            assert fetch.park_seconds(untimed) == 0.0
        assert OPS["append_batch"].park_seconds({"timeout": 9.0}) == 0.0


class _NotesItsThread:
    """A broker (and coordinator) whose every method notes the thread it
    was called on, then fails: only the dispatch is under test."""

    name = "stub"

    def __init__(self):
        self.registry = MetricsRegistry()
        self.coordinator = self
        self.served_on: dict = {}

    def __getattr__(self, method):
        def serve(**kwargs):
            self.served_on[method] = threading.current_thread().name
            raise LookupError(method)

        return serve


class TestDispatchFollowsTheTable:
    def test_exactly_the_ops_that_can_wait_are_declared_waiting(self):
        """The acks / fsync wait and the recovery scan. A new op is
        served on the loop unless it says it waits — and one that can
        wait there stalls every connection, so this set is pinned."""
        assert {op.name for op in OPS.values() if op.waits} == {
            "append_batch", "create_topic",
        }

    def test_the_loop_serves_what_cannot_wait_and_workers_what_can(self):
        broker = _NotesItsThread()
        with BrokerServer(broker) as server:
            for op in OPS.values():
                # A connection each: its strand is idle when the op arrives.
                with socket.create_connection((server.host, server.port), timeout=10) as sock:
                    frame, blobs = _request(op)
                    sendall_vectored(sock, encode_frame({"op": op.name, **frame}, blobs))
                    response, _ = recv_frame(sock)
                    assert response["error"] == "LookupError", op.name
        for op in OPS.values():
            thread = broker.served_on[op.method]
            expected = "broker-worker-" if op.waits else "broker-reactor:"
            assert thread.startswith(expected), (op.name, thread)


class TestDocsFollowTheTable:
    def test_api_op_reference_matches_the_registry(self):
        text = (Path(__file__).parents[2] / "docs" / "API.md").read_text()
        section = text.split("#### Op reference", 1)[1].split("\n### ", 1)[0]
        rows = re.findall(
            r"^\| `(\w+)` \| `([\w.]+)` \| ([\w-]+) \| (\w+) \| (\S+) \| (\S+) \| (\w+) \|$",
            section,
            re.MULTILINE,
        )
        documented = {row[0]: row[1:] for row in rows}
        assert list(documented) == list(OPS)
        for name, (serves, route, replay, blobs, parkable, served_on) in documented.items():
            op = OPS[name]
            assert serves.split(".")[-1] == op.method
            assert serves.startswith("coordinator.") == (op.on == "coordinator")
            assert (route, replay) == (op.route, op.replay)
            assert ("in" in blobs) == any(
                f.kind in ("blobs", "records") for f in op.fields
            )
            assert ("out" in blobs) == op.codec.blobs
            assert (parkable == "yes") == bool(op.parkable)
            assert served_on == ("worker" if op.waits else "loop")
