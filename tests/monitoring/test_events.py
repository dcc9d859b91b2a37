"""Unit tests for the control-plane event journal."""

import json
import re
from pathlib import Path

import pytest

from repro.monitoring import ClusterEventCollector, events
from repro.monitoring.events import (
    EVENT_TYPES,
    Event,
    EventJournal,
    merge_timeline,
    read_jsonl,
)


class TestEventJournal:
    def test_emit_assigns_monotonic_seq(self):
        journal = EventJournal(origin="sup")
        first = journal.emit("shard_started", shard=0)
        second = journal.emit("shard_died", shard=0)
        assert (first.seq, second.seq) == (1, 2)
        assert journal.next_seq == 3
        assert [e.type for e in journal.events()] == ["shard_started", "shard_died"]

    def test_unknown_event_type_raises(self):
        journal = EventJournal()
        with pytest.raises(ValueError, match="unknown event type"):
            journal.emit("made_up_event")

    def test_every_declared_type_is_emittable(self):
        journal = EventJournal()
        for event_type in EVENT_TYPES:
            journal.emit(event_type)
        assert len(journal) == len(EVENT_TYPES)

    def test_events_since_returns_only_the_delta(self):
        journal = EventJournal(origin="shard-0")
        for shard in range(5):
            journal.emit("shard_started", shard=shard)
        cursor = journal.events()[2].seq
        delta = journal.events_since(cursor)
        assert [e.fields["shard"] for e in delta] == [3, 4]
        assert journal.events_since(journal.events()[-1].seq) == []

    def test_ring_bound_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(events, "MAX_EVENTS", 3)
        journal = EventJournal()
        for shard in range(6):
            journal.emit("shard_started", shard=shard)
        kept = journal.events()
        assert len(kept) == 3
        # Sequence numbers keep counting even as old events fall off.
        assert [e.seq for e in kept] == [4, 5, 6]

    def test_boot_token_differs_per_instance(self):
        assert EventJournal().boot != EventJournal().boot

    def test_event_dict_round_trip(self):
        journal = EventJournal(origin="shard-1")
        original = journal.emit("leader_elected", topic="t", partition=0, epoch=2)
        restored = Event.from_dict(json.loads(json.dumps(original.to_dict())))
        assert restored == original

    def test_format_mentions_type_origin_and_fields(self):
        journal = EventJournal(origin="sup")
        line = journal.emit("isr_evict", follower=1, topic="t").format()
        assert "isr_evict" in line
        assert "[sup:1]" in line
        assert "follower=1" in line

    def test_jsonl_round_trip_via_file(self, tmp_path):
        journal = EventJournal(origin="shard-0")
        journal.emit("recovery_completed", topic="t", partition=0, records=7)
        journal.emit("flush_stall", topic="t", partition=0, duration_ms=300.0)
        collector = ClusterEventCollector(journals=[journal])
        collector.poll()
        path = tmp_path / "events.jsonl"
        assert collector.write_jsonl(path) == 2
        assert read_jsonl(path) == journal.events()


class TestMergeTimeline:
    def test_orders_by_wall_clock_then_origin_seq(self):
        a = Event(seq=1, ts=10.0, type="shard_died", origin="sup")
        b = Event(seq=1, ts=5.0, type="shard_started", origin="shard-0")
        c = Event(seq=2, ts=10.0, type="shard_respawned", origin="sup")
        merged = merge_timeline([a, c], [b])
        assert merged == [b, a, c]

    def test_accepts_journals_dicts_and_events(self):
        journal = EventJournal(origin="sup")
        journal.emit("shard_started", shard=0)
        as_dict = {"seq": 1, "ts": 0.0, "type": "isr_join", "origin": "shard-1"}
        merged = merge_timeline(journal, [as_dict])
        assert [e.type for e in merged] == ["isr_join", "shard_started"]
        assert all(isinstance(e, Event) for e in merged)

    def test_same_origin_never_reorders_on_ts_tie(self):
        first = Event(seq=1, ts=7.0, type="isr_evict", origin="shard-0")
        second = Event(seq=2, ts=7.0, type="isr_join", origin="shard-0")
        assert merge_timeline([second, first]) == [first, second]


class TestDocsFollowTheTypes:
    def test_api_event_schema_matches_event_types(self):
        text = (Path(__file__).parents[2] / "docs" / "API.md").read_text()
        section = text.split("#### Event journal schema", 1)[1].split("\n**CLI.**", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \| [^|]+ \| [^|]+ \|$", section, re.MULTILINE)
        assert documented == list(EVENT_TYPES)
