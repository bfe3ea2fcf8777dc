"""Unit tests for the topology builders."""

import pytest

from repro.config import TuningConfig
from repro.errors import TopologyError
from repro.hw.presets import INTEL_E7505, ITANIUM2
from repro.net.topology import (
    BackToBack,
    MultiFlow,
    ThroughSwitch,
    build_wan_path,
)
from repro.sim import Environment
from repro.units import Gbps


def test_back_to_back_wiring():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(9000))
    assert bb.a.nic.egress.sink is bb.b.nic
    assert bb.b.nic.egress.sink is bb.a.nic


def test_back_to_back_asymmetric_hosts():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(9000),
                           spec_b=INTEL_E7505,
                           config_b=TuningConfig.with_pcix_burst(9000))
    assert bb.a.spec.name == "PE2650"
    assert bb.b.spec.name == "IntelE7505"
    assert bb.b.config.mmrbc == 4096


def test_through_switch_wiring():
    env = Environment()
    ts = ThroughSwitch.create(env, TuningConfig.stock(1500))
    assert ts.a.nic.egress.sink is ts.switch
    # switch knows both hosts
    ts.switch.port("pA")
    ts.switch.port("pB")


def test_multiflow_builds_clients_and_ports():
    env = Environment()
    mf = MultiFlow.create(env, TuningConfig.stock(9000), n_clients=3)
    assert len(mf.clients) == 3
    assert len(mf.server_adapters) == 1
    for i in range(3):
        mf.switch.port(f"c{i}")


def test_multiflow_dual_adapters_independent_buses():
    env = Environment()
    mf = MultiFlow.create(env, TuningConfig.stock(9000), n_clients=2,
                          n_server_adapters=2)
    a0, a1 = mf.server_adapters
    assert a0.pcix is not a1.pcix


def test_multiflow_gbe_vs_10gbe_clients():
    env = Environment()
    gbe = MultiFlow.create(env, TuningConfig.stock(9000), n_clients=1)
    assert gbe.clients[0].nic.rate_bps == Gbps(1)
    env2 = Environment()
    tengbe = MultiFlow.create(env2, TuningConfig.stock(9000), n_clients=1,
                              server_spec=ITANIUM2,
                              client_rate_bps=Gbps(10))
    assert tengbe.clients[0].nic.rate_bps == Gbps(10)


def test_multiflow_validation():
    env = Environment()
    with pytest.raises(TopologyError):
        MultiFlow.create(env, TuningConfig.stock(), n_clients=0)
    with pytest.raises(TopologyError):
        MultiFlow.create(env, TuningConfig.stock(), n_clients=1,
                         n_server_adapters=3)


def test_wan_testbed_rtt():
    env = Environment()
    tb = build_wan_path(env, TuningConfig.wan_tuned(buf=1 << 25))
    # 180 ms RTT by construction (paper's measured value)
    rtt = sum(circuit.propagation_s for path in (tb.forward, tb.reverse)
              for circuit in (path.oc192, path.oc48))
    assert rtt == pytest.approx(0.180, rel=0.02)
    assert tb.sunnyvale.name == "sunnyvale"
    assert tb.forward.oc48.payload_bps < tb.forward.oc192.payload_bps
