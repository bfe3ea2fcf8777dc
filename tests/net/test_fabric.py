"""Fabric topology generators and deterministic ECMP routing."""

import pytest

from repro.errors import TopologyError
from repro.net.fabric import (FabricLinkSpec, FabricTopology, build_fat_tree,
                              build_torus3d)


class TestFatTree:
    def test_k4_counts(self):
        topo = build_fat_tree(4)
        assert len(topo.hosts) == 16          # k^3/4
        assert len(topo.switches) == 20       # k^2 pod + (k/2)^2 core
        assert topo.n_links == 96             # 3k^3/2 directed

    def test_rejects_odd_or_small_arity(self):
        for k in (1, 3, 5, 0, -2):
            with pytest.raises(TopologyError):
                build_fat_tree(k)

    def test_hop_counts(self):
        topo = build_fat_tree(4)
        # same edge switch: host -> edge -> host
        assert topo.path_hops("host0.0.0", "host0.0.1") == 2
        # same pod, different edge: via aggregation
        assert topo.path_hops("host0.0.0", "host0.1.0") == 4
        # different pod: via core
        assert topo.path_hops("host0.0.0", "host3.1.1") == 6

    def test_route_follows_links(self):
        topo = build_fat_tree(4)
        route = topo.route("host0.0.0", "host3.1.1", flow_id=7)
        assert len(route) == 6
        node = "host0.0.0"
        for idx in route:
            spec = topo.links[idx]
            assert spec.src == node
            node = spec.dst
        assert node == "host3.1.1"

    def test_ecmp_spreads_flows_over_cores(self):
        topo = build_fat_tree(8)
        cores = set()
        for fid in range(64):
            for idx in topo.route("host0.0.0", "host7.3.3", flow_id=fid):
                if topo.links[idx].dst.startswith("core"):
                    cores.add(topo.links[idx].dst)
        # 16 equal-cost cores serve this pod pair; 64 flows must not
        # all collapse onto one of them
        assert len(cores) > 4


class TestTorus:
    def test_4x4x4_counts(self):
        topo = build_torus3d(4, 4, 4)
        n = 64
        assert len(topo.hosts) == n
        assert topo.switches == []
        assert topo.n_links == 3 * 2 * n      # 2 directed per dim per node

    def test_size2_dim_dedupes_wraparound(self):
        topo = build_torus3d(2, 1, 1)
        assert topo.n_links == 2              # one duplex pair, not two

    def test_rejects_bad_dimensions(self):
        with pytest.raises(TopologyError):
            build_torus3d(0, 4, 4)
        with pytest.raises(TopologyError):
            build_torus3d(1, 1, 1)

    def test_wraparound_shortens_paths(self):
        topo = build_torus3d(4, 1, 1)
        # 0 -> 3 is one hop backwards around the ring, not three forward
        assert topo.path_hops("t0.0.0", "t3.0.0") == 1


class TestRoutingDeterminism:
    def test_same_flow_same_path_across_rebuilds(self):
        # CRC-32 tie-breaks are stable across topology instances (and
        # across processes — unlike hash(), which is salted per run)
        a = build_fat_tree(4)
        b = build_fat_tree(4)
        for fid in range(16):
            assert a.route("host0.0.0", "host2.1.0", flow_id=fid) == \
                b.route("host0.0.0", "host2.1.0", flow_id=fid)

    def test_route_is_repeatable(self):
        topo = build_torus3d(3, 3, 3)
        r1 = topo.route("t0.0.0", "t2.2.2", flow_id=3)
        r2 = topo.route("t0.0.0", "t2.2.2", flow_id=3)
        assert r1 == r2

    def test_route_to_self_rejected(self):
        topo = build_fat_tree(4)
        with pytest.raises(TopologyError):
            topo.route("host0.0.0", "host0.0.0")


class TestTopologyConstruction:
    def test_duplicate_node_and_link_rejected(self):
        topo = FabricTopology(name="t")
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(TopologyError):
            topo.add_node("a")
        topo.add_link("a", "b")
        with pytest.raises(TopologyError):
            topo.add_link("a", "b")

    def test_unknown_node_rejected(self):
        topo = FabricTopology(name="t")
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "nowhere")

    def test_link_spec_validation(self):
        with pytest.raises(TopologyError):
            FabricLinkSpec("a", "b", rate_bps=0, delay_s=0, queue_packets=8)
        with pytest.raises(TopologyError):
            FabricLinkSpec("a", "b", rate_bps=1e9, delay_s=-1,
                           queue_packets=8)
        with pytest.raises(TopologyError):
            FabricLinkSpec("a", "b", rate_bps=1e9, delay_s=0,
                           queue_packets=0)

    def test_unreachable_destination(self):
        topo = FabricTopology(name="t")
        topo.add_node("a", host=True)
        topo.add_node("b", host=True)
        with pytest.raises(TopologyError):
            topo.path_hops("a", "b")
        with pytest.raises(TopologyError):
            topo.route("a", "b")
