"""The steppable multi-link FluidFabric model (hybrid-mode background)."""

import hashlib

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.net.fabric import build_fat_tree
from repro.net.hybrid import FabricSimulation, incast_pairs
from repro.tcp.fluid import FluidFabric

NAN = float("nan")
INF = float("inf")


def one_link_fabric(n_flows=4, cap_pps=10_000.0, queue=128.0,
                    base_rtt_s=1e-3, **kw):
    return FluidFabric(link_capacity_pps=[cap_pps],
                       link_queue_packets=[queue],
                       routes=[[0]] * n_flows,
                       base_rtt_s=base_rtt_s, mss=8948,
                       max_window_segments=64.0, **kw)


class TestValidation:
    def test_rejects_bad_links(self):
        with pytest.raises(ProtocolError):
            FluidFabric([], [], [[0]], 1e-3, 8948, 64.0)
        with pytest.raises(ProtocolError):
            FluidFabric([0.0], [10.0], [[0]], 1e-3, 8948, 64.0)
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [0.5], [[0]], 1e-3, 8948, 64.0)

    def test_rejects_bad_routes(self):
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [], 1e-3, 8948, 64.0)
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [[]], 1e-3, 8948, 64.0)
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [[1]], 1e-3, 8948, 64.0)

    def test_rejects_bad_flow_parameters(self):
        with pytest.raises(ProtocolError):
            one_link_fabric(base_rtt_s=0.0)  # via kwargs override
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [[0]], 1e-3, 0, 64.0)
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [[0]], 1e-3, 8948, 0.0)
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [[0]], 1e-3, 8948, 64.0,
                        initial_window_segments=0.0)
        with pytest.raises(ProtocolError):
            FluidFabric([1e4], [10.0], [[0]], 1e-3, 8948, 64.0,
                        start_times=[0.0, 1.0])  # wrong shape

    def test_rejects_bad_handoff_inputs(self):
        fabric = one_link_fabric()
        with pytest.raises(ProtocolError):
            fabric.set_cross_traffic([1.0, 2.0])
        with pytest.raises(ProtocolError):
            fabric.step(0.0)

    @pytest.mark.parametrize("dt", [NAN, INF, -INF])
    def test_rejects_non_finite_step(self, dt):
        with pytest.raises(ProtocolError):
            one_link_fabric().step(dt)

    @pytest.mark.parametrize("pps", [NAN, INF])
    def test_rejects_non_finite_cross_traffic(self, pps):
        fabric = one_link_fabric()
        with pytest.raises(ProtocolError):
            fabric.set_cross_traffic([pps])
        fabric.step(0.01)
        assert np.all(np.isfinite(fabric.queue_packets))
        assert np.all(np.isfinite(fabric.windows_segments))

    @pytest.mark.parametrize("field,value", [
        pytest.param("link_capacity_pps", [NAN], id="nan-capacity"),
        pytest.param("link_capacity_pps", [INF], id="inf-capacity"),
        pytest.param("link_queue_packets", [NAN], id="nan-queue"),
        pytest.param("base_rtt_s", NAN, id="nan-rtt"),
        pytest.param("base_rtt_s", INF, id="inf-rtt"),
        pytest.param("mss", NAN, id="nan-mss"),
        pytest.param("mss", INF, id="inf-mss"),
        pytest.param("max_window_segments", NAN, id="nan-window-cap"),
        pytest.param("initial_window_segments", NAN, id="nan-initial-window"),
        pytest.param("start_times", [0.0, NAN], id="nan-start"),
    ])
    def test_rejects_nan_and_infinite_parameters(self, field, value):
        kw = dict(link_capacity_pps=[1e4], link_queue_packets=[10.0],
                  routes=[[0], [0]], base_rtt_s=1e-3, mss=8948,
                  max_window_segments=64.0)
        kw[field] = value
        with pytest.raises(ProtocolError):
            FluidFabric(**kw)

    def test_rejects_route_crossing_a_link_twice(self):
        with pytest.raises(ProtocolError):
            FluidFabric([1e4, 1e4], [10.0, 10.0], [[0, 1, 0]], 1e-3, 8948,
                        64.0)


class TestDynamics:
    def test_converges_to_link_capacity(self):
        fabric = one_link_fabric(n_flows=4, cap_pps=10_000.0)
        fabric.step(0.5)
        base = fabric.aggregate_delivered_bits()
        fabric.step(0.5)
        goodput_pps = (fabric.aggregate_delivered_bits() - base) \
            / (8948 * 8.0) / 0.5
        assert goodput_pps == pytest.approx(10_000.0, rel=0.10)

    def test_cross_traffic_steals_capacity(self):
        quiet = one_link_fabric()
        loaded = one_link_fabric()
        loaded.set_cross_traffic([5_000.0])
        quiet.step(1.0)
        loaded.step(1.0)
        assert loaded.aggregate_delivered_bits() < \
            quiet.aggregate_delivered_bits()
        assert loaded.link_utilization[0] < quiet.link_utilization[0]

    def test_windows_respect_caps_and_losses_halve(self):
        fabric = one_link_fabric(n_flows=8, cap_pps=2_000.0, queue=16.0)
        fabric.step(2.0)
        assert fabric.losses > 0                   # overloaded queue
        assert np.all(fabric.windows_segments <= 64.0)
        assert np.all(fabric.windows_segments >= 0.0)
        assert np.all(fabric.queue_packets <= 16.0 + 1e-9)

    def test_started_flows_only(self):
        fabric = one_link_fabric(n_flows=2, start_times=[0.0, 10.0])
        fabric.step(0.5)
        assert fabric.delivered_bits[0] > 0
        assert fabric.delivered_bits[1] == 0.0

    def test_time_advances_and_diagnostics_are_bounded(self):
        fabric = one_link_fabric()
        fabric.step(0.25)
        assert fabric.now == pytest.approx(0.25)
        assert 0.0 <= fabric.link_utilization[0] <= 0.95
        assert 0.0 <= fabric.link_drop_prob[0] <= 0.95
        assert fabric.link_arrival_pps[0] >= 0.0

    def test_multi_link_routes_sum_per_link(self):
        # two flows share link 0; flow 1 continues over link 1
        fabric = FluidFabric(
            link_capacity_pps=[1_000.0, 1_000.0],
            link_queue_packets=[64.0, 64.0],
            routes=[[0], [0, 1]],
            base_rtt_s=1e-3, mss=8948, max_window_segments=32.0)
        fabric.step(1.0)
        assert fabric.link_arrival_pps[0] > fabric.link_arrival_pps[1]
        assert fabric.aggregate_delivered_bits() > 0


# ---------------------------------------------------------------------------
# Golden exactness: the step kernel's output, pinned to the float bit.
# ---------------------------------------------------------------------------

def state_digest(fabric):
    """sha256 over the exact float reprs of the fabric's visible state."""
    h = hashlib.sha256()
    for arr in (fabric.windows_segments, fabric.queue_packets,
                fabric.delivered_bits, fabric.link_utilization,
                fabric.link_drop_prob):
        h.update(",".join(repr(float(x)) for x in arr).encode() + b";")
    h.update(repr(fabric.losses).encode())
    return h.hexdigest()


def bottleneck_all_flows():
    """Link 0 is the only bottleneck and every flow ends on it; routes
    of one to four hops put it at every hop position."""
    routes = []
    for i in range(24):
        k = i % 4
        if k == 0:
            routes.append([0])
        elif k == 1:
            routes.append([1 + i % 3, 0])
        elif k == 2:
            routes.append([1 + i % 3, 4 + i % 2, 0])
        else:
            routes.append([4 + i % 2, 1 + i % 3, 6, 0])
    fabric = FluidFabric([3000.0] + [2e5] * 6, [24.0] + [500.0] * 6, routes,
                         base_rtt_s=[1e-3 + 5e-5 * i for i in range(24)],
                         mss=8948, max_window_segments=48.0)
    cross = [500.0, 0.0, 0.0, 1000.0, 0.0, 0.0, 0.0]
    steps = ([(0.004, None)] * 20 + [(0.0031, cross)] * 20
             + [(0.0007, [0.0] * 7)] * 10)
    return fabric, steps, [0], [0]


def bottleneck_subset():
    """Link 0 overflows but only every third flow crosses it; the rest
    share two roomy links."""
    routes = [[1, 0] if i % 3 == 0 else [1 + i % 2, 3] for i in range(18)]
    fabric = FluidFabric([2500.0, 2e6, 2e6, 2e6], [20.0, 400.0, 400.0, 400.0],
                         routes, base_rtt_s=8e-4, mss=8948,
                         max_window_segments=[40.0 + i for i in range(18)])
    steps = [(0.003, None)] * 40 + [(0.0011, [800.0, 0.0, 0.0, 0.0])] * 15
    return fabric, steps, [0], [0]


def overflow_chain():
    """Links 0, 1 and 2 all overflow at once and some routes cross all
    three queues, so the order of the route sum matters."""
    routes = ([[0, 1, 2]] * 4 + [[2, 1]] * 2 + [[1]] * 2 + [[0, 2]] * 2
              + [[3, 0, 1, 2]] * 2 + [[3, 1, 0]])
    n = len(routes)
    fabric = FluidFabric([1800.0, 2600.0, 2200.0, 1e5],
                         [20.0, 16.0, 12.0, 300.0], routes,
                         base_rtt_s=[6e-4 + 3e-5 * i for i in range(n)],
                         mss=8948, max_window_segments=64.0)
    steps = ([(0.002, None)] * 30 + [(0.0013, [300.0, 0.0, 700.0, 0.0])] * 20
             + [(0.0045, [0.0] * 4)] * 10)
    return fabric, steps, [0, 1, 2], [0, 1, 2]


def staggered_starts():
    """Flows start 2 ms apart and the bottleneck overflows while most of
    them are still idle."""
    routes = [[1 + i % 2, 0] if i % 4 else [0] for i in range(16)]
    fabric = FluidFabric([2000.0, 5e4, 5e4], [16.0, 200.0, 200.0], routes,
                         base_rtt_s=1e-3, mss=8948, max_window_segments=64.0,
                         start_times=[0.002 * ((5 * i) % 16) for i in range(16)])
    steps = [(0.001, None)] * 30 + [(0.0025, None)] * 10
    return fabric, steps, [0], [0]


def single_hop_routes():
    """Every route is one link long; links 0 and 2 overflow, link 1
    never does."""
    caps = [1500.0, 1e5, 2500.0]
    routes = [[(0, 1, 2, 0, 2)[i % 5]] for i in range(15)]
    fabric = FluidFabric(caps, [12.0, 100.0, 18.0], routes,
                         base_rtt_s=[5e-4 + 1e-4 * (i % 3) for i in range(15)],
                         mss=8948, max_window_segments=32.0)
    steps = [(0.0015, None)] * 40 + [(0.004, [200.0, 0.0, 400.0])] * 10
    return fabric, steps, [0, 2], [0, 2]


def long_routes():
    """Routes of nine to twenty hops over a chain of queued links, where
    NumPy's route sum stops adding the hops strictly in order."""
    routes = [list(range(i % 3, i % 3 + (9, 12, 20)[i % 3]))
              for i in range(9)]
    fabric = FluidFabric([2200.0 + 150.0 * i for i in range(22)],
                         [10.0 + i for i in range(22)], routes,
                         base_rtt_s=[4e-4 + 2e-5 * i for i in range(9)],
                         mss=8948, max_window_segments=64.0)
    steps = [(0.002, None)] * 40
    return fabric, steps, [2, 3], list(range(2, 9))


GOLDEN_SCENARIOS = {
    "bottleneck_all_flows": (
        bottleneck_all_flows,
        "9557fa4b1907426f784e2117c077eddfaadd1942739ca3a843dfbce2a7be4e03"),
    "bottleneck_subset": (
        bottleneck_subset,
        "2a6349736c717745e8a14bca6d17778bddbed1666ef52fb81ed98d3ccb81ee30"),
    "overflow_chain": (
        overflow_chain,
        "8ba98c846a18910e960026a8b55d02523fea0990111a4e885d8f64e31faa6a7d"),
    "staggered_starts": (
        staggered_starts,
        "a9bab85703f85ff4de4a91d2fb5804fff9e96f7ef2367de0e8cab347b4642557"),
    "single_hop_routes": (
        single_hop_routes,
        "177194af0cb4374ddc2285e6c896fa00f304d1a89f320c5cbe59a128dc338ef7"),
    "long_routes": (
        long_routes,
        "9eed8433478493808c7cc018e67cfcf76a7aa79889faea693c807619741dc6dd"),
}


def run_scenario(build):
    """Step a scenario through its schedule.  Returns the fabric, the
    links expected to drop and those that ever dropped, and whether the
    links expected to queue all held a queue after the same step."""
    fabric, steps, overflowing, queued = build()
    dropped, queued_together = set(), False
    for dt, cross in steps:
        if cross is not None:
            fabric.set_cross_traffic(cross)
        fabric.step(dt)
        dropped.update(np.flatnonzero(fabric.link_drop_prob).tolist())
        queued_together |= bool(np.all(fabric.queue_packets[queued] > 0))
    return fabric, set(overflowing), dropped, queued_together


class TestGoldenExactness:
    """Every branch of the step kernel, pinned bit for bit.

    The digests were recorded with the dense ``np.add.reduceat`` step
    that preceded the sparse kernel; any change in float association or
    in which flows a loss touches changes them.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_state_digest(self, name):
        build, expected = GOLDEN_SCENARIOS[name]
        fabric, overflowing, dropped, queued_together = run_scenario(build)
        # the scenario really drives the branch it is named for
        assert dropped == overflowing
        assert queued_together
        assert fabric.losses > 0
        assert state_digest(fabric) == expected

    def test_hybrid_incast_result(self):
        topo = build_fat_tree(8)
        result = FabricSimulation(topo, incast_pairs(topo, 128),
                                  n_foreground=8,
                                  mode="hybrid").run(duration_s=0.02)
        assert result.topology == "fattree(k=8)"
        assert (result.n_flows, result.n_foreground,
                result.n_background) == (128, 8, 120)
        assert result.measure_s == 0.014
        assert result.aggregate_goodput_bps == 9934233361.723743
        assert result.foreground_goodput_bps == 6785140571.428572
        assert result.background_goodput_bps == 3149092790.2951717
        assert result.per_flow_foreground_bps == (
            1002176000.0, 986836571.4285715, 1002176000.0,
            772084571.4285715, 756745142.8571428, 731179428.5714285,
            715840000.0, 818102857.1428571)
        assert result.foreground_drops == 1431
        assert result.coupled_drops == 1431
        assert result.fluid_losses == 679
        assert result.coupler_ticks == 90
        assert result.events_scheduled == 23873
