"""Tests for the continuum topology (the file keeps its name: test ids)."""

import pytest

from repro.netem import (
    LAN,
    REGIONAL_WAN,
    TRANSATLANTIC,
    ContinuumTopology,
    RouteError,
)
from repro.util.validation import ValidationError


class TestContinuumTopology:
    @pytest.fixture
    def topo(self):
        t = ContinuumTopology(time_scale=0.0, seed=0)
        t.add_site("edge-us", tier="edge", region="us")
        t.add_site("jetstream", tier="cloud", region="us")
        t.add_site("lrz", tier="cloud", region="eu")
        t.connect("edge-us", "jetstream", LAN)
        t.connect("jetstream", "lrz", TRANSATLANTIC)
        return t

    def test_sites_listed(self, topo):
        assert [s.name for s in topo.sites] == ["edge-us", "jetstream", "lrz"]

    def test_sites_by_tier(self, topo):
        assert [s.name for s in topo.sites_by_tier("edge")] == ["edge-us"]
        assert len(topo.sites_by_tier("cloud")) == 2

    def test_duplicate_site_rejected(self, topo):
        with pytest.raises(ValidationError):
            topo.add_site("lrz")

    def test_invalid_tier(self, topo):
        with pytest.raises(ValidationError):
            topo.add_site("x", tier="orbit")

    def test_self_connection_rejected(self, topo):
        with pytest.raises(ValidationError):
            topo.connect("lrz", "lrz", LAN)

    def test_duplicate_link_rejected(self, topo):
        with pytest.raises(ValidationError):
            topo.connect("jetstream", "edge-us", LAN)

    def test_direct_link_symmetric(self, topo):
        assert topo.direct_link("edge-us", "jetstream") is topo.direct_link(
            "jetstream", "edge-us"
        )

    def test_route_direct(self, topo):
        assert topo.route("jetstream", "lrz") == ["jetstream", "lrz"]

    def test_route_multi_hop(self, topo):
        assert topo.route("edge-us", "lrz") == ["edge-us", "jetstream", "lrz"]

    def test_route_to_self(self, topo):
        assert topo.route("lrz", "lrz") == ["lrz"]

    def test_no_route(self, topo):
        topo.add_site("island")
        with pytest.raises(RouteError):
            topo.route("island", "lrz")

    def test_path_rtt_sums_hops(self, topo):
        rtt = topo.path_rtt_ms("edge-us", "lrz")
        assert rtt == pytest.approx(LAN.mean_rtt_ms + TRANSATLANTIC.mean_rtt_ms)

    def test_same_site_link_is_loopback(self, topo):
        link = topo.link("lrz", "lrz")
        assert link.profile.name == "loopback"

    def test_multi_hop_link_is_bottleneck(self, topo):
        link = topo.link("edge-us", "lrz")
        assert link.profile.name == "transatlantic"  # lowest bandwidth hop

    def test_transfer_time_estimate_zero_same_site(self, topo):
        assert topo.transfer_time_estimate("lrz", "lrz", 1_000_000) == 0.0

    def test_transfer_time_estimate_scales(self, topo):
        small = topo.transfer_time_estimate("jetstream", "lrz", 10_000)
        large = topo.transfer_time_estimate("jetstream", "lrz", 10_000_000)
        assert large > small

    def test_transfer_estimate_transatlantic_magnitude(self, topo):
        # 2.56 MB at 80 Mbit/s mean + 75 ms one-way = ~0.33 s.
        est = topo.transfer_time_estimate("jetstream", "lrz", 2_560_000)
        assert est == pytest.approx(0.075 + 2_560_000 * 8 / 80e6, rel=0.01)

    def test_dijkstra_prefers_lower_rtt(self):
        t = ContinuumTopology()
        for name in ("a", "b", "c"):
            t.add_site(name)
        t.connect("a", "c", TRANSATLANTIC)     # direct but slow (150 ms)
        t.connect("a", "b", LAN)               # two fast hops (~0.4 + 22.5)
        t.connect("b", "c", REGIONAL_WAN)
        assert t.route("a", "c") == ["a", "b", "c"]

    def test_unknown_site_operations(self, topo):
        with pytest.raises(ValidationError):
            topo.site("ghost")
        with pytest.raises(ValidationError):
            topo.connect("ghost", "lrz", LAN)

    def test_stats_shape(self, topo):
        topo.link("jetstream", "lrz").transfer_time(1000)
        stats = topo.stats()
        assert "jetstream<->lrz" in stats["links"]
