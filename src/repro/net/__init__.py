"""Network fabric: Ethernet links, switches, WAN circuits and generated
cluster/grid fabrics (fat-tree, torus) with the hybrid fluid+DES mode."""

from repro.net.coupling import QueueCoupling
from repro.net.ethernet import EthernetLink, wire_time
from repro.net.fabric import (FabricLinkSpec, FabricTopology, build_fat_tree,
                              build_torus3d)
from repro.net.switch import Switch, SwitchPort, FASTIRON_1500
from repro.net.train import SegmentTrain
from repro.net.wanpath import PosCircuit, Router, WanPath

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
]
