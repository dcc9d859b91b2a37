"""The broker op table: every wire op declared exactly once.

One :class:`Op` entry names an op's wire name, the broker (or group
coordinator) method that serves it, its request fields with their
defaults, how its arguments and result cross the wire, which shard a
cluster client sends it to, whether a reconnect may replay it, and
whether the server may park it. Everything that used to spell the ops
out again is derived from :data:`OPS`:

* the server's dispatch (:meth:`Op.invoke`, used by the reactor),
* the :class:`~repro.broker.remote.RemoteBroker` / coordinator stubs
  (:meth:`Op.bind` → :meth:`Op.request` → :meth:`Op.response`),
* the :class:`~repro.broker.cluster.ClusterBroker` routing
  (:attr:`Op.route`, :attr:`Op.merge`),
* the replay decision after a transport failure (:meth:`Op.replayable`),
  long-poll parking and deadlines (:meth:`Op.park_seconds`) and which
  thread serves the op (:attr:`Op.waits`).

Adding an op is one entry here plus the broker method. A method the
served broker does not have (``describe_cluster`` on a plain
:class:`~repro.broker.broker.Broker`, say) answers ``unknown op`` — one
rule in :meth:`Op.invoke` instead of a probe per op.
:class:`~repro.broker.shard.ShardBroker`'s ownership guards are *not*
derived: they are hand-written safety code the routing keys here are
tested against.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.broker.errors import UnknownMemberError
from repro.broker.message import BatchMetadata, Record
from repro.broker.wire import b64, unb64
from repro.util.validation import ValidationError

#: Default of a field the caller must supply.
REQUIRED = object()


class Field(NamedTuple):
    """One request field of an op.

    *name* is the wire field and, unless *param* overrides it, the
    keyword both the serving method and the client stub take. *kind*
    says how the value crosses the wire:

    ``json``
        as is, inside the JSON frame;
    ``blobs``
        a list of payloads, as the frame's binary blobs (no base64);
    ``b64s``
        a list of optional byte strings, base64 inside the frame;
    ``records``
        a :class:`Record` list — metadata in the frame, values as blobs.
    """

    name: str
    default: object = REQUIRED
    param: str | None = None
    kind: str = "json"


class Codec(NamedTuple):
    """How an op's result crosses the wire.

    ``encode(result) -> (wire result, out blobs)`` runs server-side;
    ``decode(wire result, blobs, request frame) -> value`` client-side.
    """

    encode: Callable
    decode: Callable
    blobs: bool = False


class RemoteTopic:
    """What a remote client knows of a topic: its name and width."""

    def __init__(self, name: str, num_partitions: int) -> None:
        self.name = name
        self.num_partitions = num_partitions

    @property
    def partitions(self) -> tuple:
        return tuple(range(self.num_partitions))


def records_to_wire(records) -> tuple:
    """``(metadata list, value blobs)``: values never pay base64."""
    metas = [
        {
            "offset": r.offset,
            "key": b64(r.key),
            "headers": r.headers,
            "produce_ts": r.produce_ts,
            "append_ts": r.append_ts,
        }
        for r in records
    ]
    return metas, [r.value for r in records]


def records_from_wire(topic, partition, metas, blobs) -> list:
    return [
        Record(
            topic=topic,
            partition=partition,
            offset=m["offset"],
            value=blobs[i],
            key=unb64(m.get("key")),
            headers=m.get("headers") or {},
            produce_ts=m.get("produce_ts", 0.0),
            append_ts=m.get("append_ts", 0.0),
        )
        for i, m in enumerate(metas)
    ]


PLAIN = Codec(lambda r: (r, ()), lambda w, blobs, req: w)
TOPIC = Codec(
    lambda topic: (topic.num_partitions, ()),
    lambda w, blobs, req: RemoteTopic(req["topic"], w),
)
BATCH_ACK = Codec(
    lambda md: ({"base_offset": md.base_offset, "count": md.count}, ()),
    lambda w, blobs, req: BatchMetadata(
        topic=req["topic"],
        partition=req["partition"],
        base_offset=w["base_offset"],
        count=w["count"],
    ),
)
RECORDS = Codec(
    records_to_wire,
    lambda w, blobs, req: records_from_wire(req["topic"], req["partition"], w, blobs),
    blobs=True,
)
PAIR = Codec(lambda r: (list(r), ()), lambda w, blobs, req: tuple(w))
ASSIGNMENT = Codec(
    lambda r: (list(r), ()),
    lambda w, blobs, req: (w[0], [tuple(tp) for tp in w[1]]),
)
#: ``{(topic, partition): value}`` — JSON has no tuple keys.
BY_PARTITION = Codec(
    lambda d: ([[t, p, v] for (t, p), v in d.items()], ()),
    lambda w, blobs, req: {(t, p): v for t, p, v in w},
)
NAME_SET = Codec(lambda r: (sorted(r), ()), lambda w, blobs, req: set(w))


@dataclass(eq=False)
class Op:
    """One broker op; see the module docstring for what derives from it.

    *route* is where a cluster client sends the op: ``partition`` (the
    leader of the first two fields), ``group`` (the coordinator shard
    of the first field), ``any`` (whichever shard answers),
    ``every-shard`` (all of them, answers folded by *merge*) or
    ``shard-index`` (the caller names the shard). *replay* is
    ``always`` when a reconnect may resend the op blindly, or
    ``with_producer_id`` when only the broker's dedup window makes a
    resend safe — without a producer id such an op fails fast on a
    transport failure instead of being resent.
    *parkable* ops wait server-side for up to their ``timeout`` field.
    *waits* says serving the op can wait on something other than the
    CPU (a disk, a follower's ack): the server runs it on a worker, and
    every other op on its event loop, where it was read.
    *ahead* says a client sends the op's follow-on before it is asked
    for: a parked request answered with records is followed at once by
    the same request from where those records end (:meth:`follow_on`).
    *raises* names a server-side error the client re-raises as that
    typed class, built from the op's leading fields, one per argument
    the error takes.
    """

    name: str
    method: str
    fields: tuple = ()
    doc: str = ""
    on: str = "broker"
    route: str = "any"
    replay: str = "always"
    parkable: bool = False
    waits: bool = False
    ahead: bool = False
    codec: Codec = PLAIN
    merge: Callable | None = None
    raises: type | None = None

    def __post_init__(self) -> None:
        #: (wire name, parameter, kind, default) per field, unpacked once:
        #: the per-request loops below are on the data path.
        self._plan = tuple((f.name, f.param or f.name, f.kind, f.default) for f in self.fields)
        self._params = tuple(param for _, param, _, _ in self._plan)
        self._defaults = {param: default for _, param, _, default in self._plan}

    # -- client side ---------------------------------------------------------

    def bind(self, args: tuple, kwargs: dict) -> dict:
        """Python call arguments → ``{param: value}`` with defaults
        applied; wrong arity raises :class:`TypeError` like a ``def``."""
        params = self._params
        if len(args) > len(params):
            raise TypeError(
                f"{self.method}() takes {len(params)} arguments, got {len(args)}"
            )
        bound = dict(zip(params, args))
        for key, value in kwargs.items():
            if key not in self._defaults or key in bound:
                raise TypeError(f"{self.method}() got an unexpected argument {key!r}")
            bound[key] = value
        for key, default in self._defaults.items():
            if key not in bound:
                if default is REQUIRED:
                    raise TypeError(f"{self.method}() missing argument {key!r}")
                bound[key] = default
        return bound

    def request(self, bound: dict) -> tuple:
        """Bound arguments → ``(request frame fields, request blobs)``."""
        frame: dict = {}
        blobs: list = []
        for name, param, kind, _ in self._plan:
            value = bound[param]
            if kind == "json":
                frame[name] = value
            elif kind == "blobs":
                blobs = list(value)
            elif kind == "b64s":
                frame[name] = None if value is None else [b64(v) for v in value]
            elif kind == "records":
                frame[name], blobs = records_to_wire(value)
        return frame, blobs

    def response(self, result, blobs, frame: dict):
        return self.codec.decode(result, blobs, frame)

    def replayable(self, frame: dict) -> bool:
        return self.replay == "always" or frame.get("producer_id") is not None

    def park_seconds(self, frame: dict) -> float:
        """How long the server may hold this request before answering."""
        if not self.parkable:
            return 0.0
        try:
            return max(0.0, float(frame.get("timeout") or 0.0))
        except (TypeError, ValueError):
            return 0.0

    def follow_on(self, frame: dict, result) -> dict | None:
        """The request a client sends ahead after *frame* was answered
        with the wire *result*: the same request, starting where its
        records end. ``None`` unless the op fetches ahead, *frame* may
        park and the answer holds records."""
        if not (self.ahead and result and self.park_seconds(frame)):
            return None
        return {**frame, "offset": result[-1]["offset"] + 1}

    def typed_error(self, error_name: str, frame: dict) -> Exception | None:
        cls = self.raises
        if cls is None or cls.__name__ != error_name:
            return None
        arity = len(inspect.signature(cls).parameters)
        return cls(*(frame[f.name] for f in self.fields[:arity]))

    # -- server side ---------------------------------------------------------

    def arguments(self, request: dict, blobs: list) -> dict:
        """Decoded request → keyword arguments for the serving method."""
        kwargs = {}
        for name, param, kind, default in self._plan:
            value = blobs if kind == "blobs" else request.get(name, default)
            if value is REQUIRED:
                raise ValidationError(f"{self.name}: missing field {name!r}")
            if kind == "b64s" and value is not None:
                value = [unb64(v) for v in value]
            elif kind == "records":
                value = records_from_wire(
                    request["topic"], request["partition"], value, blobs
                )
            kwargs[param] = value
        return kwargs

    def invoke(self, broker, request: dict, blobs: list) -> tuple:
        """Serve one request: ``(wire result, out blobs)``."""
        target = broker.coordinator if self.on == "coordinator" else broker
        handler = getattr(target, self.method, None)
        if handler is None:
            # Capability-gated ops (cluster, replication, observability)
            # do not exist on a plain broker; clients tell the two apart
            # by this answer.
            raise ValidationError(f"unknown op {self.name!r}")
        return self.codec.encode(handler(**self.arguments(request, blobs)))


# -- folding every-shard answers ({shard index: result}, live shards only) ---


def _union_sorted(cluster, results: dict) -> list:
    return sorted(set().union(*results.values()))


def _union_dict(cluster, results: dict) -> dict:
    out: dict = {}
    for part in results.values():
        out.update(part)
    return out


def _merge_replication(cluster, results: dict) -> dict:
    out: dict = {"replication_factor": 1, "partitions": []}
    for status in results.values():
        out["replication_factor"] = max(
            out["replication_factor"], status.get("replication_factor", 1)
        )
        out["partitions"].extend(status.get("partitions", ()))
    return out


_SUMMED_STATS = ("duplicates_dropped", "long_polls_parked", "members_evicted")
_SUMMED_TOPIC_STATS = (
    "records_in",
    "bytes_in",
    "bytes_retained",
    "duplicates_dropped",
    "long_polls_parked",
)


def _merge_stats(cluster, results: dict) -> dict:
    """Per-shard stats merged: counters summed, topics unioned."""
    merged: dict = {
        "broker": cluster.name,
        "epoch": cluster.epoch,
        "shards": {},
        "topics": {},
        **dict.fromkeys(_SUMMED_STATS, 0),
    }
    for index, stats in results.items():
        merged["shards"][index] = stats.get("broker")
        for key in _SUMMED_STATS:
            merged[key] += stats.get(key, 0)
        for name, topic in stats.get("topics", {}).items():
            agg = merged["topics"].setdefault(
                name,
                {"partitions": topic["partitions"], **dict.fromkeys(_SUMMED_TOPIC_STATS, 0)},
            )
            for key in _SUMMED_TOPIC_STATS:
                agg[key] += topic.get(key, 0)
    return merged


# -- the table ---------------------------------------------------------------

F = Field
_TP = (F("topic"), F("partition"))
_GROUP = (F("group_id"),)
_MEMBER = (F("group_id"), F("member_id"))
_PRODUCER = (F("producer_id", None), F("producer_epoch", 0))

_OPS = (
    # topics
    Op("create_topic", "create_topic",
       (F("topic", param="name"), F("num_partitions", 1), F("exist_ok", False)),
       "Create a topic (on every shard, each with the full partition set). "
       "Waits on the disk: directory creation and the recovery scan.",
       route="every-shard", waits=True, codec=TOPIC),
    Op("num_partitions", "topic", (F("topic", param="name"),),
       "Look a topic up; remote clients learn its partition count.",
       codec=TOPIC),
    Op("list_topics", "list_topics", (), "Sorted topic names."),
    # produce / fetch
    Op("register_producer", "register_producer", (F("client_id"),),
       "Idempotent-producer identity ``(producer_id, epoch)``; hashed like a "
       "group id so a client re-registers (and epoch-fences) on one shard.",
       route="group", codec=PAIR),
    Op("append_batch", "append_many",
       (*_TP, F("values", kind="blobs"), F("keys", None, kind="b64s"),
        F("headers", None), F("produce_ts", None), *_PRODUCER,
        F("base_sequence", None), F("acks", None)),
       "Batched append: one round-trip, values as binary blobs. Waits for "
       "the high-watermark under ``acks=\"all\"`` and the fsync under ``fsync_acks``.",
       route="partition", replay="with_producer_id", waits=True, codec=BATCH_ACK),
    Op("fetch_batch", "fetch",
       (*_TP, F("offset"), F("max_records", 64), F("timeout", 0.0), F("min_bytes", 1)),
       "Fetch records, values as binary blobs. With ``timeout > 0`` the "
       "server long-polls: it parks the request until *min_bytes* of payload "
       "(or a full batch) is available instead of answering empty. A timed "
       "fetch answered with records is followed at once by the next one.",
       route="partition", parkable=True, ahead=True, codec=RECORDS),
    Op("earliest_offset", "earliest_offset", _TP, route="partition"),
    Op("latest_offset", "latest_offset", _TP, route="partition"),
    # committed offsets and lag (group-affine: the coordinator shard owns them)
    Op("committed_offset", "committed_offset", (F("group"), *_TP), route="group"),
    Op("committed_offsets", "committed_offsets", _GROUP,
       "``{(topic, partition): offset}`` for one group.",
       on="coordinator", route="group", codec=BY_PARTITION),
    Op("consumer_lag", "consumer_lag", (F("group"),),
       "Per-partition committed-offset lag for a group.",
       route="group", codec=BY_PARTITION),
    # group coordination
    Op("group_join", "join",
       (*_MEMBER, F("topics"), F("session_timeout_ms", None)),
       on="coordinator", route="group"),
    Op("group_heartbeat", "heartbeat", _MEMBER,
       "Refresh a member's lease; answers the group generation.",
       on="coordinator", route="group", raises=UnknownMemberError),
    Op("group_commit", "commit", (*_MEMBER, F("offsets")),
       "Commit ``[(topic, partition, offset), ...]`` for a member (``None`` "
       "outside a subscription); a non-member is refused under the lock "
       "that writes the offsets.",
       on="coordinator", route="group", raises=UnknownMemberError),
    Op("group_leave", "leave", _MEMBER, on="coordinator", route="group"),
    Op("group_assignment", "assignment", _MEMBER,
       "``(generation, [(topic, partition), ...])`` for one member.",
       on="coordinator", route="group", codec=ASSIGNMENT),
    Op("group_members", "members", _GROUP, on="coordinator", route="group"),
    Op("group_topics", "group_topics", _GROUP,
       on="coordinator", route="group", codec=NAME_SET),
    Op("group_ids", "group_ids", (),
       "Live group ids (each shard only knows the groups it hosts).",
       on="coordinator", route="every-shard", merge=_union_sorted),
    # monitoring
    Op("partition_depths", "partition_depths", (),
       "Per-partition depth / end-offset / bytes snapshot.",
       route="every-shard", codec=BY_PARTITION, merge=_union_dict),
    Op("stats", "stats", (), route="every-shard", merge=_merge_stats),
    # cluster metadata (sharded brokers only)
    Op("describe_cluster", "describe_cluster", (), "Shard address map + epoch."),
    Op("find_coordinator", "find_coordinator", (F("group"),),
       "Which shard coordinates *group*."),
    # replication (replicated shards only; leader -> one named follower)
    Op("replicate_append", "replicate_append",
       (*_TP, F("base_offset"), F("records", kind="records"), F("leader", 0),
        F("leader_epoch", 0), F("high_watermark", 0), F("batches", ())),
       "Leader->follower push of whole batches at exact offsets, with the "
       "identities of the idempotent ones.",
       route="shard-index"),
    Op("replica_ack", "replica_ack", _TP,
       "A follower's replication progress for one partition.",
       route="shard-index"),
    Op("replication_status", "replication_status", (),
       "ISR / high-watermark state for every partition a shard leads.",
       route="every-shard", merge=_merge_replication),
    # observability plane (shard brokers only)
    Op("metrics_snapshot", "metrics_snapshot", (),
       "The shard's typed registry snapshot for federated aggregation.",
       route="shard-index"),
    Op("events_since", "events_since", (F("since", 0),),
       "Drain the shard's control-plane event journal past *since*.",
       route="shard-index"),
    Op("trace_spans", "trace_spans", (F("since", 0),),
       "Drain the shard tracer's finished spans past cursor *since*.",
       route="shard-index"),
)

#: wire op name -> :class:`Op`.
OPS: dict[str, Op] = {op.name: op for op in _OPS}


def find(name) -> Op | None:
    """The op a request frame names, if any (the field is outside input:
    any JSON value may arrive)."""
    return OPS.get(name) if isinstance(name, str) else None


def lookup(name) -> Op:
    op = find(name)
    if op is None:
        raise ValidationError(f"unknown op {name!r}")
    return op


def install_stubs(cls, on: str = "broker", unless: tuple = ()) -> None:
    """Give *cls* a method per op served on that face (``broker`` or
    ``coordinator``), except the methods named in *unless*; *cls*
    supplies ``_call_op(op, bound)``, which sends the op and decodes it."""

    def stub(op: Op):
        def call(self, *args, **kwargs):
            return self._call_op(op, op.bind(args, kwargs))

        call.__name__ = op.method
        call.__doc__ = op.doc or None
        return call

    for op in OPS.values():
        if op.on == on and op.method not in unless:
            setattr(cls, op.method, stub(op))


class CoordinatorClient:
    """Client-side face of the group coordinator: every coordinator op,
    sent through the owning client (which decides where each one goes)."""

    def __init__(self, owner) -> None:
        self._call_op = owner._call_op


install_stubs(CoordinatorClient, on="coordinator")
