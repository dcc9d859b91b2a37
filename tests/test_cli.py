"""Tests for the command-line interface."""

import json

import pytest

from repro.broker import ClusterBrokerSupervisor
from repro.cli import build_parser, main
from repro.monitoring.events import read_jsonl
from repro.monitoring.sampler import series_from_jsonl


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_baseline_defaults(self):
        args = build_parser().parse_args(["baseline"])
        assert args.points == 1000
        assert args.devices == 2

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "--model", "svm"])

    def test_geo_link_choices(self):
        args = build_parser().parse_args(["geo", "--link", "lan"])
        assert args.link == "lan"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["geo", "--link", "warp"])


class TestInfo:
    def test_info_lists_plugins(self, capsys):
        assert main(["info"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "ssh" in out["resource_plugins"]
        assert "kafka" in out["broker_plugins"]
        assert out["instance_catalog"]["lrz.large"]["cores"] == 10


class TestRuns:
    def test_baseline_run(self, capsys):
        rc = main(
            ["baseline", "--points", "50", "--devices", "1", "--messages", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed=True" in out
        assert "MB/s=" in out

    def test_model_run_json(self, capsys):
        rc = main(
            ["model", "--model", "kmeans", "--points", "50",
             "--devices", "1", "--messages", "3", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] is True
        assert payload["messages"] == 3

    def test_geo_run(self, capsys):
        rc = main(
            ["geo", "--model", "baseline", "--points", "100",
             "--devices", "2", "--messages", "8", "--link", "lan", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 16
        assert "virtual_duration_s" in payload
        assert payload["bottleneck"] in ("processing", "transfer")


class TestClusterArtifacts:
    def test_telemetry_dir_holds_both_sides_of_the_wire(self, tmp_path, capsys):
        out = tmp_path / "telemetry"
        rc = main(
            ["baseline", "--points", "100", "--devices", "2", "--messages", "8",
             "--broker-workers", "2", "--telemetry", str(out), "--json"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["completed"] is True

        spans = json.loads((out / "spans.json").read_text())
        appends = [s for s in spans if s["name"] == "broker.append"]
        assert appends
        assert all(s["site"].startswith("shard-") for s in appends)
        sends = {s["trace_id"] for s in spans if s["name"] == "producer.send"}
        assert all(s["trace_id"] in sends for s in appends)
        ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in ids for s in spans if s["parent_id"])

        text = (out / "telemetry.jsonl").read_text()
        series = series_from_jsonl(text)
        assert any(name.startswith("consumer_lag.") for name in series)
        points = [
            (name, (r["t"], value))
            for r in map(json.loads, text.splitlines())
            for name, value in r["values"].items()
        ]
        assert sorted(points) == sorted(
            (name, point) for name, pts in series.items() for point in pts
        )

        timeline = read_jsonl(out / "events.jsonl")
        assert timeline == sorted(timeline, key=lambda e: (e.ts, e.origin, e.seq))
        running = [
            e for e in timeline
            if e.type == "pilot_state" and e.fields["state"] == "running"
        ]
        assert len({e.origin for e in running}) == 2
        started = [e for e in timeline if e.type == "shard_started"]
        assert {e.origin for e in started} == {"supervisor"}
        assert {e.fields["shard"] for e in started} == {0, 1}

    def test_top_prints_one_panel(self, capsys):
        with ClusterBrokerSupervisor(num_shards=2, topics=[("t", 2)]) as supervisor:
            bootstrap = ",".join(f"{host}:{port}" for host, port in supervisor.bootstrap)
            assert main(["top", "--bootstrap", bootstrap]) == 0
        assert "shards up: 2" in capsys.readouterr().out
