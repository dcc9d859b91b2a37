"""Command-line interface for Pilot-Edge experiments.

Usage (also available as ``python -m repro.cli``)::

    # baseline pipeline run (Fig. 2 point)
    python -m repro.cli baseline --points 1000 --devices 4 --messages 32

    # model workload (Fig. 3 point)
    python -m repro.cli model --model kmeans --points 10000 --messages 16

    # simulated geographic run (Fig. 3 geo point)
    python -m repro.cli geo --model kmeans --points 10000 --link transatlantic

    # inspect the registered plugins / resource classes
    python -m repro.cli info

Every experiment subcommand prints the monitoring report as a flat
key=value list (machine-greppable) plus the bottleneck attribution.
"""

from __future__ import annotations

import argparse
import json
import sys

MODELS = ("baseline", "kmeans", "iforest", "autoencoder")
LINKS = ("loopback", "lan", "regional-wan", "transatlantic", "cellular-edge")


def _link_profile(name: str):
    from repro import netem

    return {
        "loopback": netem.LOOPBACK,
        "lan": netem.LAN,
        "regional-wan": netem.REGIONAL_WAN,
        "transatlantic": netem.TRANSATLANTIC,
        "cellular-edge": netem.CELLULAR_EDGE,
    }[name]


def _model_processor(name: str):
    from repro.core import make_model_processor, passthrough_processor
    from repro.ml import AutoEncoder, IsolationForest, StreamingKMeans

    if name == "baseline":
        return passthrough_processor
    factory = {
        "kmeans": lambda: StreamingKMeans(n_clusters=25),
        "iforest": lambda: IsolationForest(n_estimators=100),
        "autoencoder": lambda: AutoEncoder(epochs=10),
    }[name]
    return make_model_processor(factory)


def _print_report(result, as_json: bool) -> None:
    payload = {
        "completed": result.completed,
        **result.report.row(),
        "bottleneck": result.bottleneck.get("bottleneck"),
        "bottleneck_reason": result.bottleneck.get("reason"),
        "errors": len(result.errors) + result.errors_left_out,
    }
    if result.report.lag:
        payload["lag_peak"] = result.report.lag["peak"]
        payload["lag_returned_to_zero"] = result.report.lag["returned_to_zero"]
    if result.report.spans:
        payload["span_bottleneck"] = result.report.spans.get("slowest")
        payload["traces"] = result.report.spans.get("traces")
        payload["spans_dropped"] = result.report.spans.get("spans_dropped")
        payload["traces_sampled_out"] = result.report.spans.get("traces_sampled_out")
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}={value}")


def _make_telemetry(args: argparse.Namespace):
    """(registry, tracer, sampler) when ``--telemetry DIR`` was given."""
    if getattr(args, "telemetry", None) is None:
        return None, None, None
    from repro.monitoring import MetricsRegistry, TelemetrySampler, Tracer

    registry = MetricsRegistry()
    tracer = Tracer("cli", sample_rate=args.trace_sample)
    sampler = TelemetrySampler(registry=registry, interval_s=args.sample_interval)
    return registry, tracer, sampler


def _dump_telemetry(
    args: argparse.Namespace, registry, tracer, sampler, broker, journals
) -> None:
    """Write telemetry.jsonl / spans.json / metrics.prom / events.jsonl
    into the dir.

    ``spans.json`` holds the client tracer's spans and, with *broker* a
    :class:`ClusterBroker`, every shard's, drained over the wire;
    ``events.jsonl`` is one timeline of the local *journals* and, with a
    cluster, every shard's journal.
    """
    from pathlib import Path

    from repro.monitoring import ClusterEventCollector, ClusterTraceCollector

    out = Path(args.telemetry)
    out.mkdir(parents=True, exist_ok=True)
    sampler.write_jsonl(out / "telemetry.jsonl")
    spans = ClusterTraceCollector(cluster=broker, tracers=[tracer])
    spans.poll()
    spans.write_json(out / "spans.json")
    events = ClusterEventCollector(cluster=broker, journals=journals)
    events.poll()
    events.write_jsonl(out / "events.jsonl")
    (out / "metrics.prom").write_text(registry.to_prometheus())
    print(f"telemetry_dir={out}", file=sys.stderr)


def cmd_baseline(args: argparse.Namespace) -> int:
    return cmd_model(args)


def cmd_model(args: argparse.Namespace) -> int:
    from repro import (
        EdgeToCloudPipeline,
        PilotComputeService,
        PilotDescription,
        PipelineConfig,
        ResourceSpec,
        make_block_producer,
    )
    from repro.pilot.plugins.ssh_edge import SshEdgePlugin

    model = getattr(args, "model", "baseline")
    service = PilotComputeService(time_scale=0.0)
    service.register_plugin("ssh", SshEdgePlugin(devices=max(args.devices, 8)))
    try:
        edge = service.submit_pilot(
            PilotDescription(resource="ssh", site="edge", nodes=args.devices,
                             node_spec=ResourceSpec(cores=1, memory_gb=4))
        )
        cloud = service.submit_pilot(
            PilotDescription(resource="cloud", site="cloud",
                             instance_type="lrz.large")
        )
        if not service.wait_all(timeout=60):
            print("error: pilot acquisition failed", file=sys.stderr)
            return 1
        registry, tracer, sampler = _make_telemetry(args)
        supervisor, broker = _make_cluster(args, sampler)
        try:
            pipeline = EdgeToCloudPipeline(
                pilot_edge=edge,
                pilot_cloud_processing=cloud,
                produce_function_handler=make_block_producer(
                    points=args.points, features=args.features, clusters=25
                ),
                process_cloud_function_handler=_model_processor(model),
                config=PipelineConfig(
                    num_devices=args.devices,
                    messages_per_device=args.messages,
                    max_duration=args.max_duration,
                    log_dir=getattr(args, "log_dir", None),
                    log_fsync_acks=getattr(args, "log_fsync_acks", False),
                ),
                broker=broker,
                registry=registry,
                tracer=tracer,
                sampler=sampler,
            )
            result = pipeline.run()
            if sampler is not None:
                # While the cluster is up: the exposition is read live.
                journals = [pipeline.events, edge.events, cloud.events]
                if supervisor is not None:
                    journals.append(supervisor.events)
                _dump_telemetry(args, registry, tracer, sampler, broker, journals)
        finally:
            if broker is not None:
                broker.close()
            if supervisor is not None:
                supervisor.stop()
        _print_report(result, args.json)
        return 0 if result.completed else 1
    finally:
        service.close()


def _make_cluster(args: argparse.Namespace, sampler):
    """(supervisor, cluster broker) when ``--broker-workers N`` (N > 0).

    Spawns N shard processes and hands the pipeline a cluster-aware
    client; with the flag absent/0 the pipeline keeps its in-process
    broker and nothing extra runs.
    """
    workers = getattr(args, "broker_workers", 0) or 0
    if workers <= 0:
        return None, None
    from repro.broker import ClusterBroker, ClusterBrokerSupervisor

    replication = getattr(args, "replication_factor", 1) or 1
    log_dir = getattr(args, "log_dir", None)
    storage = None
    if log_dir and getattr(args, "log_fsync_acks", False):
        from repro.broker.storage import StorageConfig

        storage = StorageConfig(fsync_acks=True)
    supervisor = ClusterBrokerSupervisor(
        num_shards=workers,
        topics=[("pilot-edge-data", args.devices)],
        restart=True,
        replication_factor=min(replication, workers),
        log_dir=log_dir,
        storage=storage,
        telemetry=sampler is not None,
        trace_sample=getattr(args, "trace_sample", 1.0),
    ).start()
    broker = ClusterBroker(supervisor.bootstrap)
    if sampler is not None:
        from repro.monitoring.cluster import ClusterMetricsAggregator

        sampler.watch_cluster(broker)
        ClusterMetricsAggregator(broker).attach(sampler)
    return supervisor, broker


def cmd_geo(args: argparse.Namespace) -> int:
    from repro.sim import (
        SimConfig,
        SimulatedPipeline,
        calibrate_model_cost,
        calibrate_produce_cost,
    )

    produce = calibrate_produce_cost(points=args.points, reps=3)
    process = calibrate_model_cost(_model_processor(args.model), points=args.points, reps=3)
    cfg = SimConfig(
        num_devices=args.devices,
        messages_per_device=args.messages,
        points=args.points,
        features=args.features,
        uplink=_link_profile(args.link),
        num_consumers=args.consumers,
        produce_cost=produce,
        process_cost=process,
        seed=args.seed,
    )
    result = SimulatedPipeline(cfg).run()
    payload = {
        **result.report.row(),
        "virtual_duration_s": round(result.virtual_duration_s, 3),
        "bottleneck": result.bottleneck.get("bottleneck"),
        "energy_joules": round(result.energy_joules["total_joules"], 1),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}={value}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live aggregated dashboard of a running sharded cluster."""
    import time

    from repro.broker import ClusterBroker
    from repro.monitoring.cluster import (
        ClusterEventCollector,
        ClusterMetricsAggregator,
        render_dashboard,
    )

    bootstrap = []
    for part in args.bootstrap.split(","):
        host, _, port = part.strip().rpartition(":")
        bootstrap.append((host or "127.0.0.1", int(port)))
    broker = ClusterBroker(bootstrap)
    aggregator = ClusterMetricsAggregator(broker)
    events = ClusterEventCollector(cluster=broker)
    rate_history: list[float] = []
    last_records = None
    last_t = 0.0
    try:
        while True:
            merged = aggregator.scrape()
            events.poll()
            now = time.monotonic()
            records = merged["counters"].get("broker.records_in", 0.0)
            if last_records is not None and now > last_t:
                rate_history.append(max(0.0, records - last_records) / (now - last_t))
                del rate_history[:-60]
            last_records, last_t = records, now
            panel = render_dashboard(
                merged,
                events=events.events(),
                rate_history=rate_history,
                scrape_s=aggregator.last_scrape_s,
            )
            if not args.watch:
                print(panel)
                return 0
            sys.stdout.write("\x1b[2J\x1b[H" + panel + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        broker.close()


def cmd_info(args: argparse.Namespace) -> int:
    from repro.broker.plugins import available_plugins
    from repro.pilot.plugins.cloud_vm import DEFAULT_CATALOG
    from repro.pilot.registry import available_resource_plugins

    info = {
        "version": __import__("repro").__version__,
        "resource_plugins": available_resource_plugins(),
        "broker_plugins": available_plugins(),
        "instance_catalog": {
            name: {"cores": spec.cores, "memory_gb": spec.memory_gb}
            for name, spec in DEFAULT_CATALOG.items()
        },
        "link_profiles": list(LINKS),
        "models": list(MODELS),
    }
    print(json.dumps(info, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Pilot-Edge reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_model: bool) -> None:
        p.add_argument("--points", type=int, default=1000, help="points per message")
        p.add_argument("--features", type=int, default=32)
        p.add_argument("--devices", type=int, default=2, help="edge devices (= partitions)")
        p.add_argument("--messages", type=int, default=16, help="messages per device")
        p.add_argument("--json", action="store_true", help="JSON output")
        if with_model:
            p.add_argument("--model", choices=MODELS, default="kmeans")

    def telemetry_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry",
            metavar="DIR",
            default=None,
            help="enable tracing + sampling; write telemetry.jsonl, "
            "spans.json and metrics.prom into DIR",
        )
        p.add_argument(
            "--trace-sample", type=float, default=1.0,
            help="fraction of messages to trace (default 1.0)",
        )
        p.add_argument(
            "--sample-interval", type=float, default=0.25,
            help="telemetry sampling period in seconds",
        )

    def broker_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--broker-workers",
            type=int,
            default=0,
            metavar="N",
            help="shard the broker across N worker processes (multi-core "
            "scaling); 0 keeps the in-process broker",
        )
        p.add_argument(
            "--replication-factor",
            type=int,
            default=1,
            metavar="R",
            help="replicate each partition across R shards with leader "
            "election on failure (capped at --broker-workers); 1 "
            "disables replication",
        )
        p.add_argument(
            "--log-dir",
            metavar="DIR",
            default=None,
            help="durable partition logs: persist segment files under DIR "
            "(per shard when combined with --broker-workers) and recover "
            "them on restart; omit for in-memory logs",
        )
        p.add_argument(
            "--log-fsync-acks",
            action="store_true",
            help="with --log-dir: block each produce ack until its batch "
            "is group-commit fsynced (single-node durability); default "
            "acks in memory and fsyncs on the flush timer",
        )

    p_base = sub.add_parser("baseline", help="pass-through pipeline run (Fig. 2 point)")
    common(p_base, with_model=False)
    p_base.add_argument("--max-duration", type=float, default=600.0)
    telemetry_opts(p_base)
    broker_opts(p_base)
    p_base.set_defaults(func=cmd_baseline)

    p_model = sub.add_parser("model", help="ML workload run (Fig. 3 point)")
    common(p_model, with_model=True)
    p_model.add_argument("--max-duration", type=float, default=600.0)
    telemetry_opts(p_model)
    broker_opts(p_model)
    p_model.set_defaults(func=cmd_model)

    p_geo = sub.add_parser("geo", help="simulated geographic run (Fig. 3 geo point)")
    common(p_geo, with_model=True)
    p_geo.add_argument("--link", choices=LINKS, default="transatlantic")
    p_geo.add_argument("--consumers", type=int, default=0, help="0 = one per device")
    p_geo.add_argument("--seed", type=int, default=0)
    p_geo.set_defaults(func=cmd_geo)

    p_top = sub.add_parser("top", help="live dashboard of a running sharded cluster")
    p_top.add_argument(
        "--bootstrap", required=True, metavar="HOST:PORT[,HOST:PORT]",
        help="shard addresses to bootstrap from",
    )
    p_top.add_argument(
        "--watch", action="store_true",
        help="refresh continuously until interrupted instead of printing once",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (with --watch)",
    )
    p_top.set_defaults(func=cmd_top)

    p_info = sub.add_parser("info", help="list plugins, catalogues and profiles")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
