"""Scripted fault plans for the broker, the TCP transport, and netem links.

A :class:`FaultInjector` holds an ordered list of *rules*. Each rule
matches a channel/op, carries a budget of uses, and applies one effect:

- ``drop`` — the operation fails with :class:`ConnectionError` before it
  reaches the target (a lost request),
- ``delay`` — the operation is held for a fixed time first (congestion),
- ``kill`` — the underlying socket is shut down mid-operation, so the
  in-flight request dies and the client must reconnect (a server crash
  or NAT timeout),
- ``pause`` — every matching operation stalls until a deadline passes
  (a broker GC pause / overload window),
- ``link`` — inter-shard replication traffic between one pair of shards
  is dropped until healed (a partitioned network link), so ISR eviction
  can be exercised without killing any process.

Rules are evaluated first-match per call and consumed deterministically;
probabilistic rules draw from a seeded RNG so a plan with randomness is
still replayable. The same injector instance can be installed into all
three layers at once:

- in-proc :class:`~repro.broker.broker.Broker` — wrap it in
  :class:`FaultyBroker` (hands the wrapper to producers/consumers),
- :class:`~repro.broker.remote.RemoteBroker` — assign to its
  ``fault_injector`` attribute (consulted before every request),
- :class:`~repro.netem.link.Link` — assign to its ``injector``
  attribute (consulted on every transfer).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.broker.ops import OPS
from repro.util.validation import check_in_range, check_non_negative


class FaultInjected(ConnectionError):
    """A failure manufactured by the injector (subclasses ConnectionError
    so existing loss-handling paths treat it like a real network drop)."""


@dataclass
class _Rule:
    kind: str  # "drop" | "delay" | "kill" | "pause" | "call" | "link"
    op: str | None = None  # op-name filter; None matches every op
    remaining: int = 1  # uses left; negative = unlimited
    seconds: float = 0.0  # delay length / pause deadline horizon
    probability: float = 1.0  # applied per matching call (seeded RNG)
    until: float = 0.0  # monotonic deadline for "pause" rules
    callback: object = None  # side effect for "call" rules

    def matches(self, op: str) -> bool:
        return self.op is None or self.op == op


@dataclass
class FaultInjector:
    """A deterministic, seeded fault plan shared across layers."""

    seed: int = 0
    _rules: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: kind -> number of times that fault fired.
    fired: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # -- plan construction ----------------------------------------------------

    def drop_next(self, n: int = 1, op: str | None = None, probability: float = 1.0) -> "FaultInjector":
        """Fail the next *n* matching operations with :class:`FaultInjected`."""
        check_non_negative("n", n)
        check_in_range("probability", probability, 0.0, 1.0)
        with self._lock:
            self._rules.append(_Rule("drop", op=op, remaining=n, probability=probability))
        return self

    def delay_next(self, seconds: float, n: int = 1, op: str | None = None) -> "FaultInjector":
        """Hold the next *n* matching operations for *seconds* first."""
        check_non_negative("seconds", seconds)
        with self._lock:
            self._rules.append(_Rule("delay", op=op, remaining=n, seconds=seconds))
        return self

    def kill_socket_once(self, op: str | None = None) -> "FaultInjector":
        """Shut down the transport socket under the next matching request.

        Unlike ``drop`` (which fails before sending), the kill lands
        mid-operation: the request goes out over a socket that is already
        dead, so the client sees a broken connection and must reconnect.
        Only the remote-transport hook honours this rule.
        """
        with self._lock:
            self._rules.append(_Rule("kill", op=op, remaining=1))
        return self

    def call_after(self, fn, n: int = 1, op: str | None = None) -> "FaultInjector":
        """Run ``fn()`` when the *n*-th matching operation fires.

        The callback runs in the operating thread *before* the request
        proceeds, so chaos plans can trigger an environmental failure —
        e.g. SIGKILL a shard process — at a deterministic point in the
        client's op stream rather than on a wall-clock timer. The op
        itself is not failed; whatever ``fn`` broke fails it naturally.
        """
        check_non_negative("n", n)
        with self._lock:
            if n > 1:
                # Skip the first n-1 matches with an inert countdown rule.
                self._rules.append(
                    _Rule("call", op=op, remaining=n - 1, callback=None)
                )
            self._rules.append(_Rule("call", op=op, remaining=1, callback=fn))
        return self

    def pause(self, seconds: float, op: str | None = None) -> "FaultInjector":
        """Stall every matching operation until *seconds* from now."""
        check_non_negative("seconds", seconds)
        with self._lock:
            self._rules.append(
                _Rule("pause", op=op, remaining=-1, until=time.monotonic() + seconds)
            )
        return self

    @staticmethod
    def _link_key(shard_a: int, shard_b: int) -> str:
        a, b = sorted((int(shard_a), int(shard_b)))
        return f"link:{a}:{b}"

    def partition_link(self, shard_a: int, shard_b: int) -> "FaultInjector":
        """Sever the replication link between two shards (both directions).

        Every :meth:`on_replication` push between the pair fails with
        :class:`FaultInjected` until :meth:`heal_link` — the leader's ISR
        tracking sees a follower that is alive but unreachable, exactly
        the failure mode process kills cannot produce.
        """
        with self._lock:
            self._rules.append(
                _Rule("link", op=self._link_key(shard_a, shard_b), remaining=-1)
            )
        return self

    def heal_link(self, shard_a: int, shard_b: int) -> "FaultInjector":
        """Remove every link fault between the pair (traffic resumes)."""
        key = self._link_key(shard_a, shard_b)
        with self._lock:
            self._rules = [
                r for r in self._rules if not (r.kind == "link" and r.op == key)
            ]
        return self

    def clear(self) -> None:
        with self._lock:
            self._rules.clear()

    @property
    def pending(self) -> int:
        """Rules still armed (unlimited/pause rules count as one each)."""
        with self._lock:
            self._prune_locked()
            return len(self._rules)

    def stats(self) -> dict:
        with self._lock:
            return {"seed": self.seed, "fired": dict(self.fired), "pending": len(self._rules)}

    # -- rule evaluation ------------------------------------------------------

    def _prune_locked(self) -> None:
        now = time.monotonic()
        self._rules = [
            r
            for r in self._rules
            if (r.kind == "pause" and r.until > now) or (r.kind != "pause" and r.remaining != 0)
        ]

    def _take(self, op: str, kinds: tuple) -> _Rule | None:
        """Consume and return the first armed rule matching *op*."""
        with self._lock:
            self._prune_locked()
            for rule in self._rules:
                if rule.kind not in kinds or not rule.matches(op):
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                if rule.remaining > 0:
                    rule.remaining -= 1
                # Countdown placeholders for call_after(n) skip matches
                # without running anything; they are not fired faults.
                if rule.kind != "call" or rule.callback is not None:
                    self.fired[rule.kind] = self.fired.get(rule.kind, 0) + 1
                return rule
        return None

    def _apply(self, op: str, sock: socket.socket | None = None) -> None:
        rule = self._take(op, ("pause", "delay", "kill", "drop", "call"))
        if rule is None:
            return
        if rule.kind == "call":
            if rule.callback is not None:
                rule.callback()
        elif rule.kind == "pause":
            remaining = rule.until - time.monotonic()
            if remaining > 0:
                time.sleep(remaining)
        elif rule.kind == "delay":
            time.sleep(rule.seconds)
        elif rule.kind == "kill":
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            else:
                # No socket at this layer — fail the op outright instead.
                raise FaultInjected(f"injected kill on op {op!r}")
        elif rule.kind == "drop":
            raise FaultInjected(f"injected drop on op {op!r}")

    # -- layer hooks ----------------------------------------------------------

    def on_remote_op(self, op: str, sock: socket.socket) -> None:
        """RemoteBroker hook: runs before each request is framed."""
        self._apply(op, sock=sock)

    def on_broker_op(self, op: str) -> None:
        """In-proc broker hook (via :class:`FaultyBroker`)."""
        self._apply(op)

    def on_transfer(self, link) -> None:
        """netem :class:`~repro.netem.link.Link` hook: runs per transfer."""
        self._apply("transfer")

    def on_replication(self, src_shard: int, dst_shard: int) -> None:
        """Replicator hook: runs before each leader->follower push."""
        rule = self._take(self._link_key(src_shard, dst_shard), ("link",))
        if rule is not None:
            raise FaultInjected(
                f"injected link partition between shards {src_shard} and {dst_shard}"
            )


class FaultyBroker:
    """Proxy over an in-proc broker that routes ops through an injector.

    Hand the proxy to producers/consumers in place of the real broker;
    every data-path call first consults the injector, so a ``drop`` rule
    surfaces exactly like a network failure between client and broker.
    The faulted calls are derived from the op table: every broker-face op
    routed to a partition's leader or a group's coordinator, plus the
    ``append`` wrapper. Everything else (the coordinator, the topic
    registry, stats) passes straight through.
    """

    _FAULTED_OPS = frozenset(
        {"append"}
        | {
            op.method
            for op in OPS.values()
            if op.on == "broker" and op.route in ("partition", "group")
        }
    )

    def __init__(self, broker, injector: FaultInjector) -> None:
        self._broker = broker
        self.injector = injector

    def __getattr__(self, name):
        target = getattr(self._broker, name)
        if name in self._FAULTED_OPS:
            injector = self.injector

            def faulted(*args, __op=name, __fn=target, **kwargs):
                injector.on_broker_op(__op)
                return __fn(*args, **kwargs)

            return faulted
        return target

    def __repr__(self) -> str:
        return f"FaultyBroker({self._broker!r})"
