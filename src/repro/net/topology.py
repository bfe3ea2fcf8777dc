"""Topology builders for the paper's test environments (Fig. 2 and §4).

* :class:`BackToBack`   — Fig. 2(a): two hosts on a crossover fibre.
* :class:`ThroughSwitch`— Fig. 2(b): two hosts through the FastIron 1500.
* :class:`MultiFlow`    — Fig. 2(c): many clients aggregated through the
  switch into one (or two) server adapters.
* :func:`build_wan_path`— §4: Sunnyvale and Geneva hosts joined by the
  OC-192/OC-48 path in both directions.

Generated cluster/grid fabrics (k-ary fat-tree, 3-D torus) with
deterministic ECMP routing live in :mod:`repro.net.fabric` and are
re-exported here: :func:`build_fat_tree`, :func:`build_torus3d`,
:class:`FabricTopology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config import TuningConfig
from repro.errors import TopologyError
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.host import Host
from repro.hw.nic import GigAdapter, TenGigAdapter
from repro.hw.presets import GBE_HOST, HostSpec, PE2650, WAN_HOST
from repro.net.ethernet import DEFAULT_CABLE_M, EthernetLink
from repro.net.fabric import (FabricLinkSpec, FabricTopology, build_fat_tree,
                              build_torus3d)
from repro.net.switch import FASTIRON_1500, Switch, SwitchModel
from repro.net.wanpath import WanPath
from repro.sim.engine import Environment
from repro.units import Gbps

__all__ = ["BackToBack", "ThroughSwitch", "MultiFlow", "WanTestbed",
           "build_wan_path", "FabricLinkSpec", "FabricTopology",
           "build_fat_tree", "build_torus3d"]


def _duplex(env: Environment, a, b, rate_bps: float, length_m: float,
            mtu: int, name: str) -> Tuple[EthernetLink, EthernetLink]:
    """Two unidirectional links forming a full-duplex cable a<->b."""
    ab = EthernetLink(env, rate_bps=rate_bps, length_m=length_m,
                      mtu=mtu, name=f"{name}.fwd")
    ba = EthernetLink(env, rate_bps=rate_bps, length_m=length_m,
                      mtu=mtu, name=f"{name}.rev")
    a.set_egress(ab)
    ab.connect(b)
    b.set_egress(ba)
    ba.connect(a)
    return ab, ba


@dataclass
class BackToBack:
    """Fig. 2(a): direct single flow between two hosts.

    Build with :meth:`create`; hosts are ``.a`` (sender side in the
    paper's tests) and ``.b``.
    """

    env: Environment
    a: Host
    b: Host
    links: Tuple[EthernetLink, EthernetLink]

    @classmethod
    def create(cls, env: Environment, config: TuningConfig,
               spec: HostSpec = PE2650,
               spec_b: Optional[HostSpec] = None,
               config_b: Optional[TuningConfig] = None,
               cable_m: float = DEFAULT_CABLE_M,
               rate_bps: float = Gbps(10),
               calibration: Calibration = DEFAULT_CALIBRATION) -> "BackToBack":
        """Two hosts joined by a crossover fibre.

        ``rate_bps`` selects the adapter generation: 10 Gb/s (default)
        or 1 Gb/s for a GbE reference pair (the §3.5.4 baseline).
        """
        a = Host(env, spec, config, name="hostA", calibration=calibration)
        b = Host(env, spec_b or spec, config_b or config, name="hostB",
                 calibration=calibration)
        adapter_cls = GigAdapter if rate_bps == Gbps(1) else TenGigAdapter
        nic_a = adapter_cls(env, a, address="hostA.eth0")
        nic_b = adapter_cls(env, b, address="hostB.eth0")
        mtu = max(a.config.mtu, b.config.mtu)
        links = _duplex(env, nic_a, nic_b, rate_bps, cable_m, mtu, "xover")
        return cls(env=env, a=a, b=b, links=links)


@dataclass
class ThroughSwitch:
    """Fig. 2(b): indirect single flow through the FastIron 1500."""

    env: Environment
    a: Host
    b: Host
    switch: Switch

    @classmethod
    def create(cls, env: Environment, config: TuningConfig,
               spec: HostSpec = PE2650,
               model: SwitchModel = FASTIRON_1500,
               cable_m: float = DEFAULT_CABLE_M,
               calibration: Calibration = DEFAULT_CALIBRATION) -> "ThroughSwitch":
        """Two hosts, each cabled to a 10GbE switch port."""
        a = Host(env, spec, config, name="hostA", calibration=calibration)
        b = Host(env, spec, config, name="hostB", calibration=calibration)
        nic_a = TenGigAdapter(env, a, address="hostA.eth0")
        nic_b = TenGigAdapter(env, b, address="hostB.eth0")
        switch = Switch(env, model=model, name="fastiron")
        mtu = config.mtu
        # host -> switch directions
        up_a = EthernetLink(env, Gbps(10), cable_m, mtu, name="a2sw")
        up_b = EthernetLink(env, Gbps(10), cable_m, mtu, name="b2sw")
        nic_a.set_egress(up_a)
        up_a.connect(switch)
        nic_b.set_egress(up_b)
        up_b.connect(switch)
        # switch -> host directions
        down_a = EthernetLink(env, Gbps(10), cable_m, mtu, name="sw2a")
        down_b = EthernetLink(env, Gbps(10), cable_m, mtu, name="sw2b")
        down_a.connect(nic_a)
        down_b.connect(nic_b)
        switch.add_port("pA", down_a)
        switch.add_port("pB", down_b)
        switch.learn("hostA.eth0", "pA")
        switch.learn("hostB.eth0", "pB")
        return cls(env=env, a=a, b=b, switch=switch)


@dataclass
class MultiFlow:
    """Fig. 2(c): N client hosts aggregated through the switch into a
    server with one or two 10GbE adapters.

    ``client_rate_bps`` selects GbE clients (the paper's aggregation of
    GbE streams) or 10GbE clients (the Itanium-II anecdote).
    """

    env: Environment
    server: Host
    clients: List[Host]
    switch: Switch
    server_adapters: List[TenGigAdapter]

    @classmethod
    def create(cls, env: Environment, config: TuningConfig,
               n_clients: int,
               server_spec: HostSpec = PE2650,
               client_spec: HostSpec = GBE_HOST,
               client_rate_bps: float = Gbps(1),
               n_server_adapters: int = 1,
               independent_buses: bool = True,
               client_config: Optional[TuningConfig] = None,
               calibration: Calibration = DEFAULT_CALIBRATION) -> "MultiFlow":
        """Build the aggregation testbed."""
        if n_clients < 1:
            raise TopologyError("need at least one client")
        if n_server_adapters not in (1, 2):
            raise TopologyError("server hosts one or two adapters")
        server = Host(env, server_spec, config, name="server",
                      calibration=calibration)
        switch = Switch(env, name="fastiron")
        mtu = config.mtu
        adapters: List[TenGigAdapter] = []
        for i in range(n_server_adapters):
            nic = TenGigAdapter(env, server, address=f"server.eth{i}",
                                own_bus=independent_buses and i > 0)
            up = EthernetLink(env, Gbps(10), DEFAULT_CABLE_M, mtu,
                              name=f"srv{i}2sw")
            nic.set_egress(up)
            up.connect(switch)
            down = EthernetLink(env, Gbps(10), DEFAULT_CABLE_M, mtu,
                                name=f"sw2srv{i}")
            down.connect(nic)
            switch.add_port(f"srv{i}", down)
            switch.learn(f"server.eth{i}", f"srv{i}")
            adapters.append(nic)
        ccfg = client_config or config
        clients: List[Host] = []
        adapter_cls = GigAdapter if client_rate_bps == Gbps(1) else TenGigAdapter
        for i in range(n_clients):
            c = Host(env, client_spec, ccfg, name=f"client{i}",
                     calibration=calibration)
            nic = adapter_cls(env, c, address=f"client{i}.eth0")
            up = EthernetLink(env, client_rate_bps, DEFAULT_CABLE_M, mtu,
                              name=f"c{i}2sw")
            nic.set_egress(up)
            up.connect(switch)
            down = EthernetLink(env, client_rate_bps, DEFAULT_CABLE_M, mtu,
                                name=f"sw2c{i}")
            down.connect(nic)
            switch.add_port(f"c{i}", down)
            switch.learn(f"client{i}.eth0", f"c{i}")
            clients.append(c)
        return cls(env=env, server=server, clients=clients, switch=switch,
                   server_adapters=adapters)


@dataclass
class WanTestbed:
    """§4: Sunnyvale and Geneva hosts joined by the OC-192/OC-48 path."""

    env: Environment
    sunnyvale: Host
    geneva: Host
    forward: WanPath
    reverse: WanPath


def build_wan_path(env: Environment, config: TuningConfig,
                   spec: HostSpec = WAN_HOST,
                   bottleneck_queue_frames: int = 1024,
                   calibration: Calibration = DEFAULT_CALIBRATION) -> WanTestbed:
    """The Internet2 Land Speed Record setup.

    Both hosts run ``config`` (the paper tunes both ends identically).
    Forward = Sunnyvale -> Geneva (data), reverse carries the ACKs.
    """
    sunnyvale = Host(env, spec, config, name="sunnyvale",
                     calibration=calibration)
    geneva = Host(env, spec, config, name="geneva", calibration=calibration)
    nic_s = TenGigAdapter(env, sunnyvale, address="sunnyvale.eth1")
    nic_g = TenGigAdapter(env, geneva, address="geneva.eth1")
    forward = WanPath(env, name="wan.fwd",
                      bottleneck_queue_frames=bottleneck_queue_frames)
    reverse = WanPath(env, name="wan.rev",
                      bottleneck_queue_frames=bottleneck_queue_frames)
    # Hosts hand frames to the local ingress router through a short
    # 10GbE access link.
    acc_s = EthernetLink(env, Gbps(10), 50.0, config.mtu, name="acc.svl")
    nic_s.set_egress(acc_s)
    acc_s.connect(forward.head)
    forward.connect(nic_g)
    acc_g = EthernetLink(env, Gbps(10), 50.0, config.mtu, name="acc.gva")
    nic_g.set_egress(acc_g)
    acc_g.connect(reverse.head)
    reverse.connect(nic_s)
    return WanTestbed(env=env, sunnyvale=sunnyvale, geneva=geneva,
                      forward=forward, reverse=reverse)
