"""Span-based distributed tracing for the edge-to-cloud continuum.

A :class:`Tracer` produces :class:`Span` objects carrying
``(trace_id, span_id, parent_id)``.  Context is propagated between
components (producer -> wire -> broker log -> consumer -> processor) as a
single compact string header, ``headers["trace"] = "<trace_id>:<span_id>"``,
so one message's produce -> uplink -> broker -> long-poll -> downlink ->
process path reconstructs as a span tree even when the hops happened on
different threads, sockets, or sites.

Design constraints (mirroring the rest of ``repro.monitoring``):

* **Disabled by default, near-zero cost when off.**  Every integration
  point guards on ``tracer is not None``; components never construct a
  tracer themselves.
* **Cheap when sampled out.**  ``sample_rate < 1.0`` makes
  :meth:`Tracer.start_trace` return the shared :data:`NOOP_SPAN`, whose
  child spans and injections are all no-ops, so long runs can keep a
  statistical sample of full trees without per-message allocation.
* **Bounded retention.**  At most :data:`MAX_SPANS` finished spans are
  kept; further spans are counted in ``dropped`` rather than stored.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time

TRACE_HEADER = "trace"
#: Finished spans one tracer retains; later ones are counted as dropped.
MAX_SPANS = 100_000
#: Seed of the sampling decisions; ``None`` seeds from the OS.
SAMPLE_SEED = None

_tracer_seq = itertools.count(1)


class Span:
    """One timed operation within a trace.

    Spans are recorded into their tracer on :meth:`finish` (or on context
    manager exit).  ``parent_id`` is ``""`` for root spans.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "site",
        "start",
        "end",
        "_attrs",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer | None",
        trace_id: str,
        span_id: str,
        parent_id: str,
        name: str,
        site: str = "",
        start: float | None = None,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site = site
        self.start = time.monotonic() if start is None else float(start)
        self.end: float | None = None
        # Allocated on first use: most spans on the data path carry no
        # attributes, and the empty-dict churn showed up in the enabled-
        # telemetry overhead benchmark.
        self._attrs: dict | None = None

    @property
    def attrs(self) -> dict:
        if self._attrs is None:
            self._attrs = {}
        return self._attrs

    @attrs.setter
    def attrs(self, value: dict) -> None:
        self._attrs = value

    # -- lifecycle -------------------------------------------------------

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def recording(self) -> bool:
        return True

    def set_attr(self, key: str, value) -> "Span":
        if self._attrs is None:
            self._attrs = {}
        self._attrs[key] = value
        return self

    def finish(self, end: float | None = None) -> None:
        if self.end is not None:  # already finished; keep first end time
            return
        self.end = time.monotonic() if end is None else float(end)
        if self._tracer is not None:
            self._tracer._record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()

    # -- context ---------------------------------------------------------

    @property
    def context(self) -> str:
        """Wire form of this span's context: ``"trace_id:span_id"``."""
        return f"{self.trace_id}:{self.span_id}"

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self._attrs) if self._attrs else {},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            None,
            data["trace_id"],
            data["span_id"],
            data.get("parent_id", ""),
            data.get("name", ""),
            site=data.get("site", ""),
            start=data.get("start", 0.0),
        )
        span.end = data.get("end")
        span.attrs = dict(data.get("attrs", {}))
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id or None!r}, site={self.site!r})"
        )


class _NoopSpan:
    """Shared placeholder returned for sampled-out traces.

    Every operation is a no-op and every child is the same object, so an
    unsampled message pays one attribute check per hop and nothing else.
    """

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = ""
    name = ""
    site = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: dict = {}
    context = ""

    @property
    def recording(self) -> bool:
        return False

    def set_attr(self, key, value):
        return self

    def finish(self, end=None) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return "NoopSpan()"


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates, samples, and retains spans for one process.

    All components of a deployment may share one tracer (the integration
    tests do exactly that: pipeline, remote client, and broker server all
    record into the same instance, so the cross-site span tree assembles
    in memory without a collection backend).
    """

    def __init__(self, service: str = "", sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.service = service
        self.sample_rate = float(sample_rate)
        self._rng = random.Random(SAMPLE_SEED)
        self._prefix = f"{next(_tracer_seq):x}{os.urandom(3).hex()}"
        self._seq = itertools.count(1)
        self._spans: list[Span] = []
        self._dropped = 0
        # Lock-free sampled-out counter: next() on an itertools.count is
        # a single C call, so the sampled-out fast path pays no lock —
        # the whole point of sampling is that unsampled traffic is free.
        self._sampled_out = itertools.count()
        self._sampled_out_base = 0
        self._lock = threading.Lock()

    # -- span creation ---------------------------------------------------

    def _new_id(self) -> str:
        return f"{self._prefix}-{next(self._seq):x}"

    def _sampled_out_total(self) -> int:
        # itertools.count has no non-consuming read; its pickle form
        # carries the next value, which is exactly the increment count.
        return self._sampled_out.__reduce__()[1][0] - self._sampled_out_base

    def start_trace(self, name: str, site: str = "", start: float | None = None):
        """Start a new root span, applying the sampling decision."""
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            next(self._sampled_out)
            return NOOP_SPAN
        trace_id = self._new_id()
        return Span(self, trace_id, self._new_id(), "", name, site=site, start=start)

    def start_span(
        self,
        name: str,
        parent=None,
        site: str = "",
        start: float | None = None,
    ):
        """Start a child span of *parent* (a Span, context string, or None).

        ``parent=None`` starts a new (sampled) trace; a noop parent yields
        the noop span; a context string (e.g. extracted from headers)
        continues that remote trace.
        """
        if parent is None:
            return self.start_trace(name, site=site, start=start)
        if isinstance(parent, _NoopSpan):
            return NOOP_SPAN
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            ctx = parse_context(parent)
            if ctx is None:
                return self.start_trace(name, site=site, start=start)
            trace_id, parent_id = ctx
        return Span(self, trace_id, self._new_id(), parent_id, name, site=site, start=start)

    # -- propagation -----------------------------------------------------

    def inject(self, span, headers: dict | None) -> dict | None:
        """Write *span*'s context into a headers dict (returned).

        Noop spans leave headers untouched, so sampled-out messages carry
        no trace header at all.
        """
        if not span.recording:
            return headers
        if headers is None:
            headers = {}
        headers[TRACE_HEADER] = span.context
        return headers

    @staticmethod
    def extract(headers: dict | None) -> str | None:
        """Read a propagated context string from headers (or ``None``)."""
        if not headers:
            return None
        ctx = headers.get(TRACE_HEADER)
        return ctx if isinstance(ctx, str) and ctx else None

    # -- retention -------------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= MAX_SPANS:
                self._dropped += 1
                return
            self._spans.append(span)

    def record_hops(
        self,
        name: str,
        hops,
        site: str = "",
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Record a batch of already-finished leaf spans in one pass.

        *hops* is an iterable of ``(context, attrs)`` pairs: *context* is
        a propagated ``"trace_id:span_id"`` string (pairs with an
        unparsable context are skipped) and *attrs* an attribute dict or
        ``None``. Every span gets the same *name*, *site*, *start* and
        *end* — the shape of the broker-append and consumer-poll hops,
        where a whole poll/append batch shares one timestamp anyway.

        This is the data path's bulk alternative to
        ``start_span(...).finish()`` per record: the retention lock is
        taken once per batch instead of once per span, which is most of
        what the enabled-telemetry overhead gate measures.
        """
        end = time.monotonic() if end is None else float(end)
        start = end if start is None else float(start)
        spans: list[Span] = []
        prefix, seq = self._prefix, self._seq
        new = Span.__new__
        for ctx, attrs in hops:
            # Inlined parse_context + Span construction: this loop runs
            # once per record on the consume path, so it skips the
            # constructor's clock check and the helper-call overhead.
            if not ctx:
                continue
            trace_id, sep, parent_id = ctx.partition(":")
            if not sep or not trace_id or not parent_id:
                continue
            span = new(Span)
            span._tracer = None
            span.trace_id = trace_id
            span.span_id = f"{prefix}-{next(seq):x}"
            span.parent_id = parent_id
            span.name = name
            span.site = site
            span.start = start
            span.end = end
            span._attrs = attrs or None
            spans.append(span)
        if not spans:
            return
        with self._lock:
            room = MAX_SPANS - len(self._spans)
            if room >= len(spans):
                self._spans.extend(spans)
            elif room > 0:
                self._spans.extend(spans[:room])
                self._dropped += len(spans) - room
            else:
                self._dropped += len(spans)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def trace_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        with self._lock:
            for span in self._spans:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def stats(self) -> dict:
        with self._lock:
            return {
                "spans_retained": len(self._spans),
                "spans_dropped": self._dropped,
                "traces_sampled_out": self._sampled_out_total(),
            }

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0
            self._sampled_out_base = self._sampled_out.__reduce__()[1][0]


def parse_context(context: str) -> tuple[str, str] | None:
    """Split a wire context string into ``(trace_id, span_id)``."""
    if not isinstance(context, str) or ":" not in context:
        return None
    trace_id, _, span_id = context.partition(":")
    if not trace_id or not span_id:
        return None
    return trace_id, span_id
