"""The repo benchmark.

One workload, as the driver runs it (the last line printed is the result)::

    python3 bench/run.py --workload small_stream --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing of the
benchmark's inside the data path but its two FaaS functions; ``--trace
1`` runs one reference pass and one traced pass (timing proxies in,
shard telemetry on), the layer ladder and the machine calibration, and
reports the per-layer metrics.

Everything, each workload in a process of its own, into one file::

    python3 bench/run.py --seed 1 --out results/a.json [--history-line]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Import the benchmark as the package ``bench``: with the script's own
# directory on the path, bench/trace.py would shadow the standard library's
# ``trace`` for everything in this process.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from bench.harness import pin_blas  # noqa: E402

pin_blas()  # before numpy is imported, here or by the program

clock = time.perf_counter
#: An open-loop message generated this long after it was due counts as late:
#: the interpreter's thread switch interval (5 ms), the precision an
#: in-process generator thread can be held to while consumers compute.
LATE_S = sys.getswitchinterval()


def parse_args(argv=None) -> argparse.Namespace:
    from bench.metrics import RUN_SECONDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload; omit to run all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch-dir", default=os.path.join(os.getcwd(), ".bench_scratch"),
                        help="parent of the run's temporary directory (removed on exit)")
    parser.add_argument("--detail", help="also write this run's result, with spreads, here")
    parser.add_argument("--trace-out", help="keep the traced pass's spans in this file")
    parser.add_argument("--out", help="all workloads: write the combined result here")
    parser.add_argument("--history-line", action="store_true",
                        help="all workloads: print one compact JSON line for a trajectory file")
    # Gate self-test only: stretch every process_cloud call by this share.
    parser.add_argument("--inject-slowdown", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one workload ----------------------------------------------------------------


def per_device_count(wl, seconds: float) -> int:
    """Messages each device sends in a pass meant to last *seconds*.

    Sized from the workload's nominal rate, not from a measured one: every
    run then does the same work, and a change that makes the program
    faster shortens the pass instead of feeding it more messages.
    """
    return max(3, round(wl.nominal_rate * seconds / wl.devices))


def run_passes(wl, pool, scratch, seconds: float, slowdown: float = 0.0):
    """The discarded warm-up pass (a fifth of *seconds*), then ``wl.passes``
    measured passes that together measure for about *seconds*. Returns
    (warm-up, measured)."""
    from bench.workloads import run_pipeline_pass, run_replay_pass

    length = seconds / wl.passes
    if wl.prefill:
        # Each replay pass warms itself up with one untimed replay.
        return None, [run_replay_pass(wl, pool, scratch, length) for _ in range(wl.passes)]
    warm = run_pipeline_pass(wl, pool, scratch, per_device_count(wl, seconds / 5))
    count = per_device_count(wl, length)
    return warm, [run_pipeline_pass(wl, pool, scratch, count, slowdown=slowdown)
                  for _ in range(wl.passes)]


#: The rate reported is this quantile of the window rates. A disturbance
#: (a stall of the disk, a preemption, a burst of a neighbour the speed
#: samples missed) only ever slows a window down, so the windows of unchanged
#: code pile up against a fast edge and trail off on the slow side: the upper
#: quartile sits near the edge, the median wanders with the length of the tail.
RATE_QUANTILE = 0.75


def steady_rate(passes) -> float:
    """Messages per second: the upper quartile of the window rates of all
    *passes*; 0.0 when they were too short to have a steady state."""
    from bench.stats import quantile

    rates = [r for p in passes for r in p.rates]
    return quantile(rates, RATE_QUANTILE) if rates else 0.0


def end_to_end(passes, setups, import_s: float) -> tuple[dict, dict]:
    """(metric -> value, metric -> spread across passes) from measured passes.

    The rate comes from the ~1 s windows of the passes' steady states, the
    latency is the median over the messages of those steady states
    (``workloads.steady_state``); on a workload the processor bounds, both
    are stated at the host's reference speed (``harness.HostSpeed``). A
    single pass has no spread.
    """
    from bench.harness import client_peak_rss_mb
    from bench.stats import median, percentile, spread

    latencies = [s for p in passes for s in p.steady_latencies]
    rate = steady_rate(passes)
    if not rate or not latencies:  # passes of a few messages: no steady state
        latencies = [s for p in passes for s in p.latencies]
        rate = sum(p.messages for p in passes) / sum(p.wall_s for p in passes)
    block_bytes = passes[0].payload_bytes / passes[0].messages
    values = {
        "msgs_per_s": rate,
        "mb_per_s": rate * block_bytes / 1e6,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        # The client's peak is one number for the whole run; a shard lives
        # for one pass, so the median pass stands for the shards.
        "peak_rss_mb": max(client_peak_rss_mb(), median(p.shard_peak_rss_mb for p in passes)),
        "setup_s": import_s + median(setups),
    }
    spreads = {"setup_s": (max(setups) - min(setups)) / values["setup_s"]}
    per_pass = [steady_rate([p]) for p in passes]
    if len(passes) > 1 and all(per_pass):
        spreads["msgs_per_s"] = spreads["mb_per_s"] = spread(per_pass)
    return values, spreads


def snapshot_sum(snapshots: dict, kind: str, name: str) -> float:
    return sum((snap or {}).get(kind, {}).get(name, 0.0) for snap in snapshots.values())


def snapshot_p50(snapshots: dict, name: str) -> float:
    """Count-weighted mean of the shards' p50 for one histogram, in seconds."""
    total = weight = 0.0
    for snap in snapshots.values():
        hist = (snap or {}).get("histograms", {}).get(name)
        if hist and hist.get("count"):
            total += hist["p50"] * hist["count"]
            weight += hist["count"]
    return total / weight if weight else 0.0


def layer_metrics(wl, reference, traced, trace, import_s: float) -> dict:
    """The per-layer metrics one traced pass gives (ladder and calibration
    are added by the caller). A metric that does not apply to this
    workload reads 0."""
    from bench.harness import client_peak_rss_mb
    from bench.stats import median, tail
    from bench.trace import WATERFALL

    def med_ms(samples) -> float:
        samples = list(samples)
        return median(samples) * 1e3 if samples else 0.0

    out = {}
    counts = traced.counts
    msgs = max(1, traced.messages)
    stamps = traced.stamps
    stages = [w for w in map(stamps.waterfall, stamps) if w] if stamps is not None else []
    self_times = trace.self_times_by_name()
    for name in WATERFALL[:-1]:
        out[f"{name}_ms"] = med_ms(w[name] for w in stages)
    out["ml.process_ms"] = med_ms(self_times.get("ml.process", ()))
    out["params.set_ms"] = med_ms(trace.durations("params.set"))
    out["serde.decode_ms"] = med_ms(trace.durations("serde.decode"))
    out["broker.fetch_ms"] = med_ms(trace.durations("broker.fetch"))
    fetches = max(1, counts["fetches"])
    out["broker.fetch_empty_share"] = counts["fetches_empty"] / fetches
    out["broker.records_per_fetch"] = counts["fetched_records"] / fetches
    out["broker.commit_ms"] = med_ms(trace.durations("broker.commit_offset"))
    out["group.ops_ms"] = med_ms(
        s[2] - s[1] for _, s in trace.finished() if s[0].startswith("group."))
    out["wire.requests_per_msg"] = counts.get("requests_sent", 0) / msgs
    for stage in ("compute.startup", "pilot.acquire", "cluster.start", "cluster.stop"):
        out[f"{stage}_ms"] = traced.timings.get(stage, 0.0) * 1e3
    out["setup.import_ms"] = import_s * 1e3

    snaps = counts.get("snapshots", {})
    out["storage.fsyncs_per_msg"] = snapshot_sum(snaps, "counters", "storage.fsyncs") / msgs
    out["storage.flushed_bytes_per_user_byte"] = (
        snapshot_sum(snaps, "counters", "storage.flushed_bytes") / max(1, traced.payload_bytes)
        if not wl.prefill else 0.0)
    out["storage.fsync_p50_ms"] = snapshot_p50(snaps, "storage.fsync_latency_seconds") * 1e3
    out["storage.segments_sealed"] = snapshot_sum(snaps, "counters", "storage.segments_sealed")
    hits = snapshot_sum(snaps, "counters", "storage.decode_cache_hits")
    misses = snapshot_sum(snaps, "counters", "storage.decode_cache_misses")
    out["storage.decode_cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    out["storage.recovery_ms"] = sum(
        (snap or {}).get("histograms", {}).get("storage.recovery_seconds", {}).get("sum", 0.0)
        for snap in snaps.values()) * 1e3
    out["replication.ack_p50_ms"] = snapshot_p50(snaps, "replication.ack_latency_seconds") * 1e3
    out["replication.hwm_lag_end"] = sum(
        p["log_end"] - p["high_watermark"]
        for p in counts.get("replication", {}).get("partitions", ()))
    out["server.requests_per_msg"] = snapshot_sum(snaps, "gauges", "server.requests_served") / msgs
    out["server.long_polls_parked_per_msg"] = counts.get("long_polls_parked", 0) / msgs
    out["broker.duplicates_dropped"] = counts.get("duplicates_dropped", 0)

    late = traced.late
    out["gen.late_share"] = sum(1 for x in late if x > LATE_S) / len(late) if late else 0.0
    out["gen.max_late_ms"] = max(late) * 1e3 if late else 0.0
    out["mem.client_peak_rss_mb"] = client_peak_rss_mb()
    out["mem.shard_peak_rss_mb"] = traced.shard_peak_rss_mb
    out["trace.overhead_share"] = 1.0 - traced.msgs_per_s / reference.msgs_per_s
    if stamps is not None and len(stamps):
        out["trace.coverage"] = counts.get("complete", 0) / len(stamps)
        errors = [
            abs((s["process_end"] - s["due"]) - sum(w.values())) / (s["process_end"] - s["due"])
            for s, w in ((stamps.get(m), stamps.waterfall(m)) for m in stamps) if w]
        out["trace.waterfall_error_share"] = median(errors) if errors else 1.0
    else:
        # The replay has no produce side: a record is covered when it was
        # seen both by the proxied fetch and by the decode span.
        out["trace.coverage"] = min(1.0, len(trace.durations("serde.decode")) / msgs)
        out["trace.waterfall_error_share"] = 0.0
    out["check.failed_share"] = traced.verdict.failed_share
    out["latency.tail_quantile"], tail_s = tail(traced.latencies)
    out["latency.tail_ms"] = tail_s * 1e3
    out["latency.samples"] = len(traced.latencies)
    out["cpu_ms_per_msg"] = reference.cpu_s / max(1, reference.messages) * 1e3
    out["host.speed"] = reference.host_speed
    return out


def run_workload(args: argparse.Namespace) -> int:
    started = clock()
    from bench import calib, ladder
    from bench.check import merge
    from bench.harness import Scratch, filesystem_of, fresh_import_seconds
    from bench.metrics import E2E_NAMES, LAYER_NAMES, UNITS
    from bench.stats import median
    from bench.trace import Trace
    from bench.workloads import WORKLOADS, Pool, run_pipeline_pass, run_replay_pass

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    # What a user waits for before anything runs: a fresh interpreter's
    # import of numpy and the program, five times over for a median.
    import_s = median(fresh_import_seconds(ROOT, 5))
    spreads: dict = {}
    with Scratch(args.scratch_dir) as scratch:
        pool = Pool(args.seed, wl.points, wl.pool_blocks, wl.devices)
        if not args.trace:
            warm, passes = run_passes(wl, pool, scratch, args.seconds, args.inject_slowdown)
            setups = [p.setup_s for p in ([warm] if warm else []) + passes]
            values, spreads = end_to_end(passes, setups, import_s)
            names = E2E_NAMES
            for i, p in enumerate(passes):
                print(f"{wl.name}  pass {i}: {p.messages} msgs in {p.wall_s:.2f} s, "
                      f"{p.msgs_per_s:.1f} msgs/s, {p.cpu_s / p.messages * 1e3:.2f} cpu ms/msg, "
                      f"set-up {p.setup_s * 1e3:.0f} ms"
                      + (f", host speed {p.host_speed:.2f}" if p.host_speed else ""))
            verdict = merge(p.verdict for p in passes)
        else:
            trace = Trace()
            length = args.seconds / 4
            if wl.prefill:
                reference = run_replay_pass(wl, pool, scratch, length)
                traced = run_replay_pass(wl, pool, scratch, length, trace)
            else:
                # Warm-up, then the untraced reference the overhead is taken
                # against, then the traced pass: all three the same length.
                count = per_device_count(wl, length)
                run_pipeline_pass(wl, pool, scratch, count)
                reference = run_pipeline_pass(wl, pool, scratch, count)
                traced = run_pipeline_pass(wl, pool, scratch, count, trace)
            values = layer_metrics(wl, reference, traced, trace, import_s)
            values.update(ladder.run(scratch))
            values.update(calib.calibrate())
            names = LAYER_NAMES
            verdict = merge((reference.verdict, traced.verdict))
            trace.write(args.trace_out or os.path.join(scratch.path, f"trace-{wl.name}.json"))
        scratch_fs = filesystem_of(scratch.path)

    missing = set(names) - set(values)
    if missing:
        raise SystemExit(f"internal error: metrics not measured: {sorted(missing)}")
    runtime = clock() - started
    for name in names:
        note = f"  (spread {spreads[name]:.1%})" if name in spreads else ""
        print(f"{wl.name}  {name} = {values[name]:.6g} {UNITS[name]}{note}")
    print(f"{wl.name}  checked {verdict.attempted} messages, {verdict.failed} failed"
          f" {verdict.kinds or ''}; runtime {runtime:.1f} s")
    correct = verdict.failed == 0
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in names}
    if args.detail:
        detail = {
            "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
            "correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
            "kinds": verdict.kinds, "runtime_s": runtime,
            "metrics": {n: dict(m, spread=spreads.get(n)) for n, m in metrics.items()},
            "provenance": calib.provenance(ROOT, args.seed, scratch_fs),
        }
        with open(args.detail, "w") as fh:
            json.dump(detail, fh)
    print(json.dumps({"correct": correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0 if correct else 1


# -- all workloads ---------------------------------------------------------------


def run_suite(args: argparse.Namespace) -> int:
    """Each workload untraced, then traced, each in a fresh process; one file."""
    from bench.metrics import E2E_NAMES
    from bench.workloads import WORKLOADS

    started = clock()
    out_path = os.path.abspath(args.out) if args.out else None
    out_dir = os.path.dirname(out_path) if out_path else args.scratch_dir
    os.makedirs(out_dir, exist_ok=True)
    combined = {"seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = combined["workloads"][name] = {}
        for traced in (0, 1):
            detail = os.path.join(out_dir, f".detail-{os.getpid()}-{name}-{traced}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced), "--scratch-dir", args.scratch_dir,
                   "--detail", detail]
            if traced and out_path:
                cmd += ["--trace-out", os.path.join(out_dir, f"trace-{name}.json")]
            t0 = clock()
            code = subprocess.run(cmd).returncode
            print(f"{name}  trace={traced} took {clock() - t0:.1f} s, exit {code}", flush=True)
            status = status or code
            if not os.path.exists(detail):
                continue
            with open(detail) as fh:
                result = json.load(fh)
            os.remove(detail)
            combined.setdefault("provenance", result["provenance"])
            entry["per_layer" if traced else "end_to_end"] = result["metrics"]
            for key in ("attempted", "failed"):
                entry[key] = entry.get(key, 0) + result[key]
            entry.setdefault("kinds", {}).update(result["kinds"])
    print(f"total runtime {clock() - started:.1f} s")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(combined, fh, indent=1)
    if args.history_line:
        some_layers = next((w["per_layer"] for w in combined["workloads"].values()
                            if "per_layer" in w), {})
        print(json.dumps({
            **combined.get("provenance", {}),
            "calib": {k: round(v["value"], 1) for k, v in some_layers.items()
                      if k.startswith("calib.")},
            "workloads": {
                name: {m: [w["end_to_end"][m]["value"], w["end_to_end"][m]["spread"]]
                       for m in E2E_NAMES if m in w.get("end_to_end", {})}
                for name, w in combined["workloads"].items()},
        }, separators=(",", ":")))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"the program is not here: {ROOT}/src/repro does not exist", file=sys.stderr)
        return 2
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
