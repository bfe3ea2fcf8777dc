"""Network fabric: Ethernet links, switches, WAN circuits and generated
cluster/grid fabrics (fat-tree, torus) with the hybrid fluid+DES mode."""

from repro.net.coupling import QueueCoupling
from repro.net.ethernet import EthernetLink, wire_time
from repro.net.fabric import (FabricLinkSpec, FabricTopology, build_fat_tree,
                              build_torus3d)
from repro.net.switch import Switch, SwitchPort, FASTIRON_1500
from repro.net.train import SegmentTrain
from repro.net.wanpath import PosCircuit, Router, WanPath

# Topology builders are re-exported lazily: topology.py imports the
# adapter classes from repro.hw, which themselves import repro.net.train,
# so an eager import here would be circular.
_TOPOLOGY_EXPORTS = ("BackToBack", "ThroughSwitch", "MultiFlow",
                     "build_wan_path")
# The hybrid mode is lazy too — it pulls in NumPy via repro.tcp.fluid,
# which plain Ethernet/switch users should not pay for.
_HYBRID_EXPORTS = ("FabricSimulation", "FabricResult", "FluidCoupler",
                   "hybrid_enabled", "incast_pairs", "alltoall_pairs",
                   "bisection_pairs")

__all__ = [
    "EthernetLink",
    "wire_time",
    "QueueCoupling",
    "FabricLinkSpec",
    "FabricTopology",
    "build_fat_tree",
    "build_torus3d",
    "Switch",
    "SwitchPort",
    "FASTIRON_1500",
    "SegmentTrain",
    "PosCircuit",
    "Router",
    "WanPath",
    "BackToBack",
    "ThroughSwitch",
    "MultiFlow",
    "build_wan_path",
    "FabricSimulation",
    "FabricResult",
    "FluidCoupler",
    "hybrid_enabled",
    "incast_pairs",
    "alltoall_pairs",
    "bisection_pairs",
]


def __getattr__(name):
    if name in _TOPOLOGY_EXPORTS:
        from repro.net import topology
        return getattr(topology, name)
    if name in _HYBRID_EXPORTS:
        from repro.net import hybrid
        return getattr(hybrid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
