"""In-memory span store, timing proxies and the per-message waterfall.

Every span is taken from outside the program: the benchmark wraps the
user FaaS functions and puts a :class:`TimingProxy` around the objects it
injects (``broker=``, ``parameter_server=``), so ``src/`` is untouched.
Spans live in a list until the pass ends, then :meth:`Trace.write` dumps
them as rows of ``[id, name, start, end, parent, msg]``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

#: The per-message waterfall, in order. The stages are contiguous
#: intervals between six stamps, so their sum equals ``process_cloud``
#: return minus ``produce_edge`` return by construction.
WATERFALL = (
    "pipeline.edge_self",  # produce_edge return -> append_many call
    "broker.append",  # append_many call -> return
    "broker.residency",  # append_many return -> return of the delivering fetch
    "pipeline.cloud_self",  # fetch return -> process_cloud call
    "ml.process",  # process_cloud call -> return
)

COLUMNS = ("id", "name", "start", "end", "parent", "msg")


class Trace:
    """Append-only span list shared by all threads.

    A span is ``[name, start, end, parent, msg]``; its id is its index.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def begin(self, name: str, start: float, parent: int | None = None, msg=None) -> int:
        """Open a span whose end is not known yet; close it with :meth:`finish`."""
        with self._lock:
            self.spans.append([name, start, None, parent, msg])
            return len(self.spans) - 1

    def finish(self, sid: int, end: float) -> None:
        self.spans[sid][2] = end

    def span(self, name: str, start: float, end: float, parent: int | None = None,
             msg=None) -> int:
        """Record one finished span and return its id."""
        sid = self.begin(name, start, parent, msg)
        self.spans[sid][2] = end
        return sid

    # The span a thread is currently inside: lets a proxied call made from
    # within ``process_cloud`` (a parameter-server set) name its parent.
    def enter(self, sid: int | None) -> None:
        self._open.sid = sid

    def current(self) -> int | None:
        return getattr(self._open, "sid", None)

    def finished(self):
        """``(id, span)`` for every span that was closed."""
        return [(sid, s) for sid, s in enumerate(self.spans) if s[2] is not None]

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for _, s in self.finished() if s[0] == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover.

        Children are clipped to the parent's interval and overlapping
        children are merged first, so time two children share is
        subtracted once.
        """
        children = defaultdict(list)
        finished = self.finished()
        for _, (_, start, end, parent, _) in finished:
            if parent is not None:
                children[parent].append((start, end))
        return {
            sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, (_, start, end, _, _) in finished
        }

    def self_times_by_name(self) -> dict[str, list[float]]:
        by_name = defaultdict(list)
        for sid, self_time in self.self_times().items():
            by_name[self.spans[sid][0]].append(self_time)
        return by_name

    def write(self, path: str) -> None:
        rows = [[sid, *span] for sid, span in self.finished()]
        with open(path, "w") as fh:
            json.dump({"columns": COLUMNS, "spans": rows}, fh)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* inside ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class TimingProxy:
    """Forwards every attribute to *target*, timing the calls.

    A callable attribute becomes a wrapper that records a
    ``<layer>.<method>`` span under the calling thread's current span;
    *hooks* maps a method name to ``hook(args, kwargs, result, start,
    end)``, called instead, for per-message attribution; *children* maps
    an attribute that is itself proxied (``coordinator``) to its layer.
    Missing attributes raise ``AttributeError`` as on the target, so the
    program's ``getattr(obj, name, default)`` probes behave as before.
    """

    def __init__(self, target, trace: Trace, layer: str, hooks: dict | None = None,
                 children: dict | None = None) -> None:
        self._target = target
        self._trace = trace
        self._layer = layer
        self._hooks = hooks or {}
        self._children = children or {}
        self._wrapped: dict = {}

    def __getattr__(self, name: str):
        wrapped = self._wrapped.get(name)
        if wrapped is not None:
            return wrapped
        attr = getattr(self._target, name)
        if name in self._children:
            wrapped = TimingProxy(attr, self._trace, self._children[name])
        elif callable(attr):
            wrapped = self._wrap(name, attr)
        else:
            return attr  # plain data (counters, names): always read live
        self._wrapped[name] = wrapped
        return wrapped

    def _wrap(self, name: str, fn):
        span_name = f"{self._layer}.{name}"
        trace = self._trace
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            if hook is not None:
                hook(args, kwargs, result, start, end)
            else:
                trace.span(span_name, start, end, trace.current())
            return result

        timed.__name__ = name
        return timed


class MessageStamps:
    """The per-message stamps the waterfall is cut from.

    ``due``/``produced`` come from the benchmark's ``produce_edge``
    wrapper, ``append_start``/``append_end`` from the proxied
    ``append_many`` (message ids read from its ``headers=``),
    ``fetched`` from the proxied ``fetch`` that returned the record, and
    ``process_start``/``process_end`` from the ``process_cloud`` wrapper.
    """

    FIELDS = ("due", "produced", "append_start", "append_end", "fetched",
              "process_start", "process_end")

    def __init__(self) -> None:
        self._stamps: dict = defaultdict(dict)

    def stamp(self, msg, field: str, t: float) -> None:
        # First stamp wins: a redelivered record must not move a boundary.
        self._stamps[msg].setdefault(field, t)

    def get(self, msg) -> dict:
        return self._stamps[msg]

    def __len__(self) -> int:
        return len(self._stamps)

    def __iter__(self):
        return iter(self._stamps)

    def waterfall(self, msg) -> dict | None:
        """Stage name -> seconds for one message; None if a stamp is missing."""
        s = self._stamps.get(msg)
        if s is None or any(f not in s for f in self.FIELDS):
            return None
        cuts = (s["produced"], s["append_start"], s["append_end"], s["fetched"],
                s["process_start"], s["process_end"])
        return {name: cuts[i + 1] - cuts[i] for i, name in enumerate(WATERFALL)}

    def emit(self, trace: Trace) -> int:
        """Record the stage spans of every complete message under its root
        span (``ml.process`` was recorded live, so that calls made inside
        it could name it as parent). Returns the number of complete messages."""
        complete = 0
        for msg, s in self._stamps.items():
            stages = self.waterfall(msg)
            if stages is None or "root" not in s:
                continue
            complete += 1
            trace.span("gen.wait", s["due"], s["produced"], s["root"], msg)
            cursor = s["produced"]
            for name in WATERFALL[:-1]:
                end = cursor + stages[name]
                trace.span(name, cursor, end, s["root"], msg)
                cursor = end
        return complete


def parse_message_id(message_id) -> tuple | None:
    """``<run>/d<device>/m<seq>``, the id the pipeline puts in headers -> (device, seq)."""
    try:
        _, dev, seq = str(message_id).rsplit("/", 2)
        return int(dev[1:]), int(seq[1:])
    except (ValueError, IndexError):
        return None
