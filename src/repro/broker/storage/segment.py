"""On-disk segment format: length-prefixed, CRC-guarded record batches.

A segment file is a flat concatenation of *batches*. Each batch is::

    [4B body length][4B CRC32 of body][body]

and the body is::

    [Q base_offset][I count][i producer_id][I producer_epoch]
    [q base_sequence][d write_ts]
    count * ([I value_len][i key_len][I headers_len][d produce_ts]
             [d append_ts][value][key][headers-json])

``producer_id``/``base_sequence`` are ``-1`` when the batch was not an
idempotent produce (e.g. a follower-side replica install); storing them
per batch lets recovery rebuild the producer dedup windows by replaying
the active segment, without a separate transaction log.

The length prefix makes a segment scannable without an index; the CRC
makes a *torn tail* (power loss mid-``write``) detectable: recovery
truncates the file at the first batch whose length prefix runs past EOF
or whose CRC does not match, exactly the LogCabin/Kafka rule.

The codec operates on buffers (``bytes``, ``mmap``, ``memoryview``)
and stays allocation-light: decoding a batch from an ``mmap`` yields
records whose values are ``memoryview`` slices of the page cache — zero
copies until the consumer touches the bytes. :class:`_SealedSegment`
and :class:`_DecodeCache` are the read path built on it: a rolled
segment is immutable and served from its mapping.
"""

from __future__ import annotations

import json
import mmap
import struct
import threading
import zlib
from bisect import bisect_right
from collections import OrderedDict
from typing import NamedTuple

from repro.broker.message import Record

#: [body_len][crc32]
BATCH_HEADER = struct.Struct(">II")
#: [base_offset][count][producer_id][producer_epoch][base_sequence][write_ts]
BODY_HEADER = struct.Struct(">QIiIqd")
#: [value_len][key_len][headers_len][produce_ts][append_ts]
RECORD_HEADER = struct.Struct(">IiIdd")

#: Segment data files are named by their base offset, zero-padded so
#: lexicographic order is offset order.
LOG_SUFFIX = ".log"


def segment_filename(base_offset: int) -> str:
    return f"{base_offset:020d}{LOG_SUFFIX}"


class BatchInfo(NamedTuple):
    """Location + header of one batch inside a segment buffer."""

    pos: int  # file position of the batch header
    body_start: int
    body_len: int
    base_offset: int
    count: int
    producer_id: int  # -1 = non-idempotent batch
    producer_epoch: int
    base_sequence: int  # -1 = non-idempotent batch
    write_ts: float

    @property
    def end_offset(self) -> int:
        return self.base_offset + self.count

    @property
    def end_pos(self) -> int:
        return self.body_start + self.body_len


def encode_batch(
    records,
    producer_id: int | None = None,
    producer_epoch: int = 0,
    base_sequence: int | None = None,
    write_ts: float = 0.0,
) -> tuple[list, int]:
    """Encode *records* into a batch as a buffer list (writev-ready).

    Returns ``(buffers, total_bytes)``. Record values are referenced,
    not copied — the produce path hands the same buffers straight to
    ``writev``, so the only per-byte work before the disk is the CRC.
    """
    n = len(records)
    head = BODY_HEADER.pack(
        records[0].offset,
        n,
        -1 if producer_id is None else int(producer_id),
        int(producer_epoch),
        -1 if base_sequence is None else int(base_sequence),
        write_ts,
    )
    body: list = [head]
    add = body.append
    # CRC and length accumulate inline as buffers are gathered — one
    # pass over the batch, no second walk of the buffer list. Hot
    # produce path: bind the per-record callables once.
    crc32 = zlib.crc32
    pack = RECORD_HEADER.pack
    header_size = RECORD_HEADER.size
    crc = crc32(head)
    body_len = len(head)
    for record in records:
        value = record.value
        key = record.key
        headers = record.headers
        header_bytes = (
            json.dumps(headers, separators=(",", ":")).encode("utf-8")
            if headers
            else b""
        )
        value_len = len(value)
        key_len = -1 if key is None else len(key)
        headers_len = len(header_bytes)
        packed = pack(value_len, key_len, headers_len,
                      record.produce_ts, record.append_ts)
        add(packed)
        crc = crc32(packed, crc)
        body_len += header_size + value_len + headers_len
        if value_len:
            add(value)
            crc = crc32(value, crc)
        if key:
            add(key)
            crc = crc32(key, crc)
            body_len += key_len
        if header_bytes:
            add(header_bytes)
            crc = crc32(header_bytes, crc)
    body.insert(0, BATCH_HEADER.pack(body_len, crc))
    return body, BATCH_HEADER.size + body_len


def encoded_batch_size(records) -> int:
    """Exact on-disk size :func:`encode_batch` would produce, without
    packing or checksumming anything.

    The produce hot path uses this to account for a batch (group-commit
    window sizing, ``size_bytes``) while deferring the actual encode —
    headers, CRC and all — to the flusher thread, off the ack critical
    path.
    """
    size = BATCH_HEADER.size + BODY_HEADER.size
    header_size = RECORD_HEADER.size
    for record in records:
        size += header_size + len(record.value)
        key = record.key
        if key:
            size += len(key)
        headers = record.headers
        if headers:
            size += len(
                json.dumps(headers, separators=(",", ":")).encode("utf-8")
            )
    return size


def read_batch_info(buf, pos: int, end: int, verify_crc: bool = False) -> BatchInfo | None:
    """Parse the batch header at *pos*; ``None`` on a torn/corrupt batch.

    ``None`` means "the segment ends here": a truncated length prefix, a
    body running past *end*, or (with *verify_crc*) a CRC mismatch — all
    the shapes a crash mid-write can leave behind.
    """
    if pos + BATCH_HEADER.size > end:
        return None
    body_len, crc = BATCH_HEADER.unpack_from(buf, pos)
    body_start = pos + BATCH_HEADER.size
    if body_len < BODY_HEADER.size or body_start + body_len > end:
        return None
    if verify_crc and zlib.crc32(buf[body_start : body_start + body_len]) != crc:
        return None
    base_offset, count, pid, epoch, base_seq, write_ts = BODY_HEADER.unpack_from(
        buf, body_start
    )
    return BatchInfo(
        pos, body_start, body_len, base_offset, count, pid, epoch, base_seq, write_ts
    )


def scan_batches(buf, start: int, end: int, verify_crc: bool = False):
    """Yield every valid :class:`BatchInfo` in ``buf[start:end]`` in order.

    Stops silently at the first invalid batch — the caller learns the
    valid prefix length from the last yielded batch's ``end_pos``.
    """
    pos = start
    while True:
        info = read_batch_info(buf, pos, end, verify_crc=verify_crc)
        if info is None:
            return
        yield info
        pos = info.end_pos


def shorten_batch(buf, count: int) -> tuple[bytes, int]:
    """Cut the batch at the start of *buf* to its first *count* records.

    Returns the batch's new headers (batch header + body header: count,
    body length and CRC over the surviving body) and its new length.
    The records stay where they are, so writing the headers back over
    the old ones and cutting the file after the length shortens the
    batch in place.
    """
    info = read_batch_info(buf, 0, len(buf))
    start = pos = info.body_start + BODY_HEADER.size
    for _ in range(count):
        value_len, key_len, headers_len, _, _ = RECORD_HEADER.unpack_from(buf, pos)
        pos += RECORD_HEADER.size + value_len + max(key_len, 0) + headers_len
    head = BODY_HEADER.pack(
        info.base_offset, count, info.producer_id, info.producer_epoch,
        info.base_sequence, info.write_ts,
    )
    crc = zlib.crc32(memoryview(buf)[start:pos], zlib.crc32(head))
    return BATCH_HEADER.pack(len(head) + pos - start, crc) + head, pos


def decode_batch(buf, info: BatchInfo, topic: str, partition: int, copy: bool = False):
    """Decode one batch into :class:`Record` objects.

    With ``copy=False`` and a ``memoryview``/``mmap`` buffer, record
    values are zero-copy slices of *buf* — they stay valid exactly as
    long as the underlying mapping does (the mapping cannot be closed
    while views on it are alive, so this is safe, merely pins pages).
    Keys are always materialized as ``bytes``: they are tiny and used as
    dict keys downstream (``memoryview`` is unhashable).
    """
    pos = info.body_start + BODY_HEADER.size
    offset = info.base_offset
    out = []
    add = out.append
    for _ in range(info.count):
        value_len, key_len, headers_len, produce_ts, append_ts = RECORD_HEADER.unpack_from(
            buf, pos
        )
        pos += RECORD_HEADER.size
        value = buf[pos : pos + value_len]
        if copy and not isinstance(value, bytes):
            value = bytes(value)
        pos += value_len
        if key_len < 0:
            key = None
        else:
            key = bytes(buf[pos : pos + key_len])
            pos += key_len
        if headers_len:
            headers = json.loads(bytes(buf[pos : pos + headers_len]))
            pos += headers_len
        else:
            headers = {}
        add(Record(topic, partition, offset, value, key, headers, produce_ts, append_ts))
        offset += 1
    return out


#: Records the per-partition LRU of decoded sealed batches may hold.
_DECODE_CACHE_RECORDS = 16384


class _DecodeCache:
    """Record-count-bounded LRU of decoded sealed batches.

    Decoding a batch off the mmap costs ~1µs of struct/object work per
    record; the deque (hot tail) pays none of that because its records
    are born decoded. This cache gives re-read sealed data the same
    property: the first fetch decodes, every later fetch of the batch —
    another consumer in the group, a replay, a lagging follower — is a
    dict hit. Values inside cached records stay zero-copy
    ``memoryview`` slices (they pin their segment's mapping, which is
    why the cache is cleared whenever segments are truncated or evicted).
    """

    __slots__ = ("_entries", "_records", "_lock", "counters")

    def __init__(self, counters: dict) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._records = 0
        self._lock = threading.Lock()
        self.counters = counters

    def get(self, key) -> list | None:
        with self._lock:
            records = self._entries.get(key)
            if records is None:
                self.counters["decode_cache_misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.counters["decode_cache_hits"] += 1
            return records

    def put(self, key, records: list) -> None:
        if not records:
            return
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = records
            self._records += len(records)
            while self._records > _DECODE_CACHE_RECORDS and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._records -= len(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._records = 0


class _SealedSegment:
    """An immutable, memory-mapped segment of the log."""

    __slots__ = (
        "base",
        "end",
        "size",
        "path",
        "last_write_ts",
        "_mmap",
        "_view",
        "_dense",
        "_open_lock",
    )

    def __init__(self, path: str, base: int, end: int, size: int,
                 last_write_ts: float, batches: list | None = None):
        self.path = path
        self.base = base
        self.end = end
        self.size = size
        #: The store's ``now()`` of the newest record (age retention).
        self.last_write_ts = last_write_ts
        self._mmap = None
        self._view = None
        #: Dense ``[(base_offset, file_pos)]`` for every batch — handed
        #: over for free at roll time, or rebuilt by one lazy header
        #: scan for segments adopted at boot. Lets a read jump straight
        #: to its batch (and, on a decode-cache hit, skip parsing the
        #: batch header entirely).
        self._dense = batches
        self._open_lock = threading.Lock()

    def open_map(self):
        with self._open_lock:
            if self._view is None:
                with open(self.path, "rb") as fh:
                    self._mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                self._view = memoryview(self._mmap)
            return self._view

    def dense_index(self) -> list:
        """Dense per-batch positions, built by one header scan if absent."""
        with self._open_lock:
            if self._dense is not None:
                return self._dense
        view = self.open_map()
        dense = [
            (info.base_offset, info.pos)
            for info in scan_batches(view, 0, self.size)
        ]
        with self._open_lock:
            self._dense = dense
        return dense

    def read(self, offset: int, max_count: int, topic: str, partition: int,
             cache: _DecodeCache) -> list:
        """Records in ``[offset, offset+max_count)`` held by this segment."""
        dense = self._dense
        if dense is None:
            dense = self.dense_index()
        # (offset,) sorts before (offset, pos): lands on the first batch
        # whose base is >= offset, step back to the one containing it.
        i = max(0, bisect_right(dense, (offset,)) - 1)
        n = len(dense)
        end_cap = offset + max_count
        seg_base = self.base
        view = None
        out: list = []
        while i < n:
            base, pos = dense[i]
            if base >= end_cap:
                break
            records = cache.get((seg_base, pos))
            if records is None:
                if view is None:
                    view = self.open_map()
                info = read_batch_info(view, pos, self.size)
                if info is None:
                    break
                records = decode_batch(view, info, topic, partition)
                cache.put((seg_base, pos), records)
            if base + len(records) <= offset:
                i += 1
                continue
            if base < offset:
                records = records[offset - base :]
            out.extend(records)
            if len(out) >= max_count:
                del out[max_count:]
                break
            i += 1
        return out

    def close(self) -> None:
        with self._open_lock:
            view, self._view = self._view, None
            mapped, self._mmap = self._mmap, None
        try:
            if view is not None:
                view.release()
            if mapped is not None:
                mapped.close()
        except (BufferError, ValueError):
            # Zero-copy views are still in flight; the mapping dies with
            # its last reference instead.
            pass

