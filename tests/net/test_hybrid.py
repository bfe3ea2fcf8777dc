"""Hybrid fluid+DES fabric simulation: fidelity, knobs, couplings."""

import pytest

from repro.errors import ProtocolError
from repro.net.coupling import QueueCoupling
from repro.net.fabric import build_fat_tree, build_torus3d
from repro.net.hybrid import (FabricSimulation, FluidCoupler, HYBRID_ENV,
                              alltoall_pairs, bisection_pairs,
                              hybrid_enabled, incast_pairs)


class TestWorkloadGenerators:
    def test_incast_targets_one_server(self):
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 40)
        assert len(pairs) == 40
        assert {dst for _, dst in pairs} == {topo.hosts[0]}
        assert topo.hosts[0] not in {src for src, _ in pairs}

    def test_alltoall_spreads_sources(self):
        topo = build_fat_tree(4)
        pairs = alltoall_pairs(topo, 16)
        assert len({src for src, _ in pairs}) == 16  # every host sends
        assert all(src != dst for src, dst in pairs)

    def test_alltoall_covers_all_ordered_pairs(self):
        topo = build_torus3d(2, 2, 1)
        n_hosts = len(topo.hosts)
        pairs = alltoall_pairs(topo, n_hosts * (n_hosts - 1))
        assert len(set(pairs)) == n_hosts * (n_hosts - 1)

    def test_bisection_crosses_the_cut(self):
        topo = build_torus3d(4, 2, 2)
        half = set(topo.hosts[:8])
        for src, dst in bisection_pairs(topo, 32):
            assert (src in half) != (dst in half)

    def test_generators_validate(self):
        topo = build_fat_tree(4)
        with pytest.raises(ProtocolError):
            incast_pairs(topo, 0)
        with pytest.raises(ProtocolError):
            alltoall_pairs(topo, -1)


class TestHybridKnobs:
    def test_hybrid_enabled_default_and_off(self, monkeypatch):
        monkeypatch.delenv(HYBRID_ENV, raising=False)
        assert hybrid_enabled()
        for off in ("0", "off", "false", "NO"):
            monkeypatch.setenv(HYBRID_ENV, off)
            assert not hybrid_enabled()
        monkeypatch.setenv(HYBRID_ENV, "1")
        assert hybrid_enabled()

    def test_auto_mode_respects_knob(self, monkeypatch):
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 16)
        monkeypatch.delenv(HYBRID_ENV, raising=False)
        assert FabricSimulation(topo, pairs, n_foreground=4).mode == "hybrid"
        monkeypatch.setenv(HYBRID_ENV, "0")
        assert FabricSimulation(topo, pairs, n_foreground=4).mode == "des"

    def test_tick_override(self):
        # the constructor's tick_s wins over the derived tick
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 16)
        assert FabricSimulation(topo, pairs,
                                tick_s=0.00025).coupling_tick() == 0.00025
        derived = FabricSimulation(topo, pairs).coupling_tick()
        assert 10e-6 <= derived <= 1e-3

    @pytest.mark.parametrize("tick", [0.0, -1.0, float("nan")])
    def test_tick_must_be_positive(self, tick):
        topo = build_fat_tree(4)
        with pytest.raises(ProtocolError, match="coupling tick"):
            FabricSimulation(topo, incast_pairs(topo, 16), tick_s=tick)

    def test_simulation_validates(self):
        topo = build_fat_tree(4)
        with pytest.raises(ProtocolError):
            FabricSimulation(topo, [])
        with pytest.raises(ProtocolError):
            FabricSimulation(topo, incast_pairs(topo, 4), n_foreground=0)
        with pytest.raises(ProtocolError):
            FabricSimulation(topo, incast_pairs(topo, 4), mode="quantum")
        sim = FabricSimulation(topo, incast_pairs(topo, 4))
        with pytest.raises(ProtocolError):
            sim.run(duration_s=0.0)
        with pytest.raises(ProtocolError):
            sim.run(duration_s=0.1, warmup_fraction=1.0)


class TestHybridFidelity:
    def test_empty_background_is_bit_identical_to_des(self):
        # The core determinism contract: with no background flows the
        # hybrid machinery must not exist at all — same event count,
        # same per-flow goodput, bit for bit.
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 6)
        des = FabricSimulation(topo, pairs, n_foreground=6,
                               mode="des").run(duration_s=0.02)
        hyb = FabricSimulation(topo, pairs, n_foreground=6,
                               mode="hybrid").run(duration_s=0.02)
        assert hyb.mode == "hybrid" and hyb.n_background == 0
        assert hyb.events_scheduled == des.events_scheduled
        assert hyb.per_flow_foreground_bps == des.per_flow_foreground_bps
        assert hyb.aggregate_goodput_bps == des.aggregate_goodput_bps
        assert hyb.coupler_ticks == 0 and hyb.fluid_losses == 0

    def test_hybrid_within_5pct_of_des_on_validation_fabric(self):
        # The ISSUE's validation envelope: <= 8 foreground + <= 32
        # background flows, aggregate goodput within 5% of all-DES.
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 32)
        des = FabricSimulation(topo, pairs, n_foreground=8,
                               mode="des").run(duration_s=0.05)
        hyb = FabricSimulation(topo, pairs, n_foreground=8,
                               mode="hybrid").run(duration_s=0.05)
        assert hyb.n_background == 24
        assert hyb.coupler_ticks > 0
        rel = abs(hyb.aggregate_goodput_bps - des.aggregate_goodput_bps) \
            / des.aggregate_goodput_bps
        assert rel <= 0.05, f"hybrid {rel:.2%} off all-DES"

    def test_hybrid_run_is_reproducible(self):
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 24)
        a = FabricSimulation(topo, pairs, mode="hybrid",
                             seed=7).run(duration_s=0.02)
        b = FabricSimulation(topo, pairs, mode="hybrid",
                             seed=7).run(duration_s=0.02)
        assert a.aggregate_goodput_bps == b.aggregate_goodput_bps
        assert a.events_scheduled == b.events_scheduled
        assert a.coupled_drops == b.coupled_drops

    def test_background_shares_the_bottleneck(self):
        # With background flows on, the foreground must give up part of
        # the incast bottleneck, and the fluid side must carry traffic.
        topo = build_fat_tree(4)
        pairs = incast_pairs(topo, 32)
        solo = FabricSimulation(topo, pairs[:8], mode="des") \
            .run(duration_s=0.05)
        hyb = FabricSimulation(topo, pairs, n_foreground=8,
                               mode="hybrid").run(duration_s=0.05)
        assert hyb.background_goodput_bps > 0
        assert hyb.foreground_goodput_bps < solo.aggregate_goodput_bps

    def test_des_state_holds_python_floats(self, monkeypatch):
        # The fluid hands its link state to the DES as Python floats, so
        # no NumPy scalar reaches the coin flips, the serializers'
        # free_at or the event times they schedule.
        couplers = []
        init = FluidCoupler.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            couplers.append(self)

        monkeypatch.setattr(FluidCoupler, "__init__", recording_init)
        topo = build_fat_tree(4)
        r = FabricSimulation(topo, incast_pairs(topo, 32), n_foreground=8,
                             mode="hybrid").run(duration_s=0.02)
        assert r.coupler_ticks > 0 and len(couplers) == 1
        links = list(couplers[0].shared_links.values())
        assert links and any(link.serviced for link in links)
        for link in links:
            assert type(link._free_at) is float
            assert type(link.coupling.background_utilization) is float
            assert type(link.coupling.background_drop_prob) is float


class TestQueueCoupling:
    def test_admit_is_free_with_no_background(self):
        c = QueueCoupling("q", seed=1)
        assert all(c.admit() for _ in range(100))
        assert c.coupled_drops == 0
        assert c.service_scale() == 1.0

    def test_set_background_smooths_and_clips(self):
        c = QueueCoupling("q", ema_alpha=0.5)
        c.set_background(2.0, 2.0)            # clipped to 0.95
        assert c.background_utilization == pytest.approx(0.475)
        c.set_background(0.95, 0.95)
        assert c.background_utilization == pytest.approx(0.7125)
        assert c.background_drop_prob <= 0.95

    def test_full_drop_pressure_drops_everything(self):
        c = QueueCoupling("q", ema_alpha=1.0)
        c.set_background(0.5, 0.95)
        dropped = sum(0 if c.admit() else 1 for _ in range(200))
        assert dropped > 150
        assert c.coupled_drops == dropped

    def test_foreground_accounting_drains(self):
        c = QueueCoupling("q")
        for _ in range(10):
            c.record_service(9000)
        assert c.take_foreground_pps(0.1) == pytest.approx(100.0)
        assert c.take_foreground_pps(0.1) == 0.0  # drained

    def test_seeded_streams_are_reproducible(self):
        a = QueueCoupling("q", seed=42, ema_alpha=1.0)
        b = QueueCoupling("q", seed=42, ema_alpha=1.0)
        a.set_background(0.0, 0.5)
        b.set_background(0.0, 0.5)
        assert [a.admit() for _ in range(64)] == \
            [b.admit() for _ in range(64)]
