"""Typed metric instruments and the registry that names them.

Three instrument types, mirroring the Prometheus data model the paper's
monitoring section assumes:

* :class:`Counter` — monotonically increasing rate (records in, retries).
* :class:`Gauge` — a level that can go up and down (log depth, lag).
* :class:`Histogram` — log-bucketed latency distribution with live
  p50/p95/p99, so percentiles are available *during* a run instead of
  only from full trace retention afterwards.

A :class:`MetricsRegistry` hands out instruments by name (get-or-create,
thread-safe) and calls the *readers* components register for numbers
they keep in a plain field of their own. Every exporter —
:meth:`MetricsRegistry.to_prometheus`, the sampler's series, a
component's ``stats()``, the cluster scrape — is a view of
:meth:`MetricsRegistry.snapshot`; nothing is copied into the registry.
"""

from __future__ import annotations

import math
import threading

#: Every histogram's bucket layout: ``BUCKET_BASE * BUCKET_GROWTH**i``
#: for i in [0, BUCKETS) — 1 µs .. ~1100 s. One layout for every
#: instrument is what makes a cross-shard merge an elementwise add.
BUCKET_BASE = 1e-6
BUCKET_GROWTH = 2.0
BUCKETS = 31
#: Prefix of every name in a Prometheus exposition.
NAMESPACE = "repro"


def _check_name(name: str) -> str:
    if not name or not isinstance(name, str):
        raise ValueError(f"instrument name must be a non-empty string, got {name!r}")
    return name


class Counter:
    """Monotonic counter. Negative increments are rejected."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A settable level; also supports delta updates."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value = (self._value or 0.0) + amount

    @property
    def value(self) -> float:
        """Current level; an untouched gauge reads 0."""
        with self._lock:
            return 0.0 if self._value is None else self._value


class Histogram:
    """Log-bucketed histogram for latency-style observations.

    Buckets are geometric (:data:`BUCKET_BASE`, :data:`BUCKET_GROWTH`,
    :data:`BUCKETS`): 1 µs .. ~1100 s with x2 growth — wide enough for
    in-proc microseconds and WAN-emulated seconds alike while staying
    O(30) memory per instrument.  Percentiles are estimated by log-linear
    interpolation inside the winning bucket, which is exact to within one
    bucket's resolution (a factor of the growth).
    """

    __slots__ = ("name", "_bounds", "_buckets", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._bounds = [BUCKET_BASE * BUCKET_GROWTH**i for i in range(BUCKETS)]
        self._buckets = [0] * (BUCKETS + 1)  # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def _bucket_index(self, value: float) -> int:
        if value <= self._bounds[0]:
            return 0
        if value > self._bounds[-1]:
            return len(self._bounds)
        # log-time lookup: bounds are geometric so the index is a log
        base, growth = self._bounds[0], self._bounds[1] / self._bounds[0]
        idx = int(math.ceil(math.log(value / base, growth) - 1e-9))
        # guard float slop at bucket edges
        while idx > 0 and value <= self._bounds[idx - 1]:
            idx -= 1
        while idx < len(self._bounds) and value > self._bounds[idx]:
            idx += 1
        return idx

    def observe(self, value: float) -> None:
        value = float(value)
        idx = self._bucket_index(value) if value > 0 else 0
        with self._lock:
            self._buckets[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values) -> None:
        """Record a batch of observations under one lock acquisition.

        The pipeline completes messages in poll-sized batches; observing
        them one lock round-trip at a time showed up in the enabled-
        telemetry overhead benchmark.
        """
        if not values:
            return
        bucket_index = self._bucket_index
        indexed = [(bucket_index(v) if v > 0 else 0, v) for v in map(float, values)]
        with self._lock:
            buckets = self._buckets
            for idx, value in indexed:
                buckets[idx] += 1
                self._sum += value
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += len(indexed)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]) from bucket counts."""
        return bucket_percentile(self._raw(), q)

    def _raw(self) -> dict:
        with self._lock:
            count = self._count
            return {
                "count": count,
                "sum": self._sum,
                "min": self._min if count else 0.0,
                "max": self._max if count else 0.0,
                "buckets": list(self._buckets),
                "bounds": list(self._bounds),
            }

    def snapshot(self) -> dict:
        return with_percentiles(self._raw())


def bucket_percentile(snap: dict, q: float) -> float:
    """Estimated q-th percentile (q in [0, 100]) of a histogram snapshot
    (``count`` / ``buckets`` / ``bounds`` / ``min`` / ``max``): log-linear
    interpolation inside the winning bucket, clamped to the observed
    range — the one estimator live instruments and merged cross-shard
    snapshots share."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    count = snap["count"]
    if not count:
        return 0.0
    bounds, lo_seen, hi_seen = snap["bounds"], snap["min"], snap["max"]
    target = q / 100.0 * count
    seen = 0
    for idx, n in enumerate(snap["buckets"]):
        if n == 0:
            continue
        if seen + n >= target:
            lo = max(bounds[idx - 1] if idx > 0 else 0.0, lo_seen)
            hi = min(bounds[idx], hi_seen) if idx < len(bounds) else hi_seen
            if hi <= lo:
                return hi
            return lo + (target - seen) / n * (hi - lo)
        seen += n
    return hi_seen


def with_percentiles(snap: dict) -> dict:
    """Fill in the derived keys (``mean``, ``p50``/``p95``/``p99``) of a
    histogram snapshot from its counts."""
    snap["mean"] = snap["sum"] / snap["count"] if snap["count"] else 0.0
    for q in (50, 95, 99):
        snap[f"p{q}"] = bucket_percentile(snap, q)
    return snap


class MetricsRegistry:
    """Named instruments plus read callbacks: where every number is read.

    A number has one writer. Either a component bumps an instrument it
    got from :meth:`counter` / :meth:`gauge` / :meth:`histogram`
    (get-or-create; a name is bound to a single instrument type for the
    registry's lifetime, so a counter sampled as a gauge fails loudly),
    or it keeps a plain field and hands :meth:`add_reader` a callback
    that reports it. :meth:`snapshot` reads both; every exporter is a
    view of it.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._readers: list[tuple[str, str, object]] = []
        self._lock = threading.Lock()
        #: Reader calls that raised — a dying component must not take
        #: the exposition (or a sampling loop) down with it.
        self.reader_errors = 0

    def _get_or_create(self, name: str, cls):
        # Lock-free hit: callers that cannot resolve an instrument once
        # (per-error-type counters, the collector's named counters) pay
        # a dict lookup, not the registry lock.
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = self._instruments[name] = cls(name)
        if not isinstance(inst, cls):
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def add_reader(self, kind: str, fn, prefix: str = "") -> None:
        """Report numbers a component keeps itself: ``fn() -> {name:
        value}`` is called at every :meth:`snapshot` and its names land
        under *prefix*; *kind* is ``"counters"`` (monotonic totals) or
        ``"gauges"`` (levels)."""
        if kind not in ("counters", "gauges"):
            raise ValueError(f"reader kind must be 'counters' or 'gauges', got {kind!r}")
        with self._lock:
            self._readers.append((kind, prefix, fn))

    def snapshot(self) -> dict:
        """Every number, typed and JSON-serialisable: ``{"counters":
        {name: total}, "gauges": {name: level}, "histograms": {name:
        Histogram.snapshot()}}``.

        The types matter downstream: across shards counters sum, gauges
        get a ``shard`` label and histograms bucket-merge.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
            readers = list(self._readers)
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in instruments:
            if isinstance(inst, Counter):
                out["counters"][name] = inst.value
            elif isinstance(inst, Gauge):
                out["gauges"][name] = inst.value
            else:
                out["histograms"][name] = inst.snapshot()
        for kind, prefix, fn in readers:
            try:
                out[kind].update({prefix + name: value for name, value in fn().items()})
            except Exception:  # noqa: BLE001 — counted, see reader_errors
                self.reader_errors += 1
        return out

    def to_prometheus(self) -> str:
        """Render every number in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition of one typed snapshot — a registry's
    own, or the cluster aggregator's merge, whose gauges are ``{shard:
    value}`` dicts and render with a ``shard`` label."""
    lines: list[str] = []
    for name, value in sorted(snapshot["counters"].items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in sorted(snapshot["gauges"].items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        if isinstance(value, dict):
            for shard in sorted(value, key=str):
                lines.append(f'{metric}{{shard="{shard}"}} {_prom_value(value[shard])}')
        else:
            lines.append(f"{metric} {_prom_value(value)}")
    for name, snap in sorted(snapshot["histograms"].items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, n in zip(snap["bounds"], snap["buckets"]):
            cumulative += n
            lines.append(f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {snap["count"]}')
        lines.append(f"{metric}_sum {_prom_value(snap['sum'])}")
        lines.append(f"{metric}_count {snap['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{NAMESPACE}_{safe}"


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
