"""Span arithmetic, the timing proxy and the waterfall."""

import pytest

from bench.trace import WATERFALL, MessageStamps, TimingProxy, Trace, covered, parse_message_id


def test_self_time_subtracts_children_once():
    trace = Trace()
    root = trace.span("root", 0.0, 10.0)
    trace.span("a", 1.0, 4.0, parent=root)
    trace.span("b", 3.0, 6.0, parent=root)  # overlaps a for 1 s
    trace.span("c", 9.0, 12.0, parent=root)  # runs 2 s past the parent
    self_times = trace.self_times()
    assert self_times[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert trace.self_times_by_name()["a"] == [pytest.approx(3.0)]


def test_self_time_of_grandchildren_counts_against_their_parent_only():
    trace = Trace()
    root = trace.span("root", 0.0, 10.0)
    child = trace.span("child", 2.0, 8.0, parent=root)
    trace.span("grandchild", 3.0, 5.0, parent=child)
    self_times = trace.self_times()
    assert self_times[root] == pytest.approx(4.0)
    assert self_times[child] == pytest.approx(4.0)


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_open_span_is_not_reported_until_finished():
    trace = Trace()
    sid = trace.begin("open", 1.0)
    assert trace.finished() == []
    trace.finish(sid, 3.0)
    assert trace.durations("open") == [2.0]


class Target:
    flag = 7

    def __init__(self):
        self.coordinator = self

    def work(self, x, scale=1):
        return x * scale


def test_proxy_times_calls_and_passes_data_through():
    trace = Trace()
    proxy = TimingProxy(Target(), trace, "layer", children={"coordinator": "group"})
    assert proxy.work(3, scale=2) == 6
    assert proxy.flag == 7
    assert proxy.coordinator.work(1) == 1
    assert [s[0] for _, s in trace.finished()] == ["layer.work", "group.work"]
    # The program probes optional attributes with getattr(obj, name, default).
    assert getattr(proxy, "partition_log", None) is None


def test_proxy_hook_sees_arguments_result_and_times():
    seen = []
    proxy = TimingProxy(Target(), Trace(), "layer",
                        hooks={"work": lambda a, k, r, t0, t1: seen.append((a, k, r, t1 >= t0))})
    proxy.work(2, scale=5)
    assert seen == [((2,), {"scale": 5}, 10, True)]


def test_proxied_call_inside_a_span_becomes_its_child():
    trace = Trace()
    proxy = TimingProxy(Target(), trace, "params")
    parent = trace.begin("ml.process", 0.0)
    trace.enter(parent)
    proxy.work(1)
    trace.enter(None)
    trace.finish(parent, 1e9)
    child = next(s for _, s in trace.finished() if s[0] == "params.work")
    assert child[3] == parent


def test_waterfall_sums_to_end_to_end_latency():
    stamps = MessageStamps()
    times = {"due": 10.0, "produced": 10.001, "append_start": 10.003, "append_end": 10.010,
             "fetched": 10.030, "process_start": 10.031, "process_end": 10.050}
    for name, t in times.items():
        stamps.stamp((0, 0), name, t)
    stages = stamps.waterfall((0, 0))
    assert tuple(stages) == WATERFALL
    assert sum(stages.values()) == pytest.approx(times["process_end"] - times["produced"])
    latency = times["process_end"] - times["due"]
    assert abs(latency - sum(stages.values())) / latency < 0.05


def test_waterfall_needs_every_stamp_and_keeps_the_first():
    stamps = MessageStamps()
    stamps.stamp((0, 1), "due", 1.0)
    assert stamps.waterfall((0, 1)) is None
    stamps.stamp((0, 1), "due", 2.0)  # a redelivery must not move the boundary
    assert stamps.get((0, 1))["due"] == 1.0


def test_message_id_parsing():
    assert parse_message_id("run-abc/d1/m42") == (1, 42)
    assert parse_message_id("17") is None
    assert parse_message_id(None) is None
