"""Generated cluster/grid fabrics: fat-tree and 3-D torus topologies.

The paper's testbeds stop at two hosts and one FastIron chassis; the
"Networks of Workstations, Clusters, and Grids" of its title need
*generated* fabrics: the k-ary fat-tree of datacenter interconnects
(the archgym Summit configs in the related work) and the 3-D torus of
the APENet/PACS-CS LQCD machines.  This module builds those fabrics as
lightweight directed graphs — nodes, capacity/latency-annotated links,
and deterministic shortest-path/ECMP routing — that both the packet
DES (:mod:`repro.net.hybrid`) and the fluid background model
(:class:`repro.tcp.fluid.FluidFabric`) consume.

Routing is *deterministic by construction*: equal-cost next hops are
tie-broken by a CRC-32 of ``(flow id, node, destination)``, so the same
flow id always takes the same path in every process, on every platform
— the property the result cache and the hybrid/DES bit-identity tests
rely on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import TopologyError
from repro.units import Gbps

__all__ = ["FabricLinkSpec", "FabricTopology", "build_fat_tree",
           "build_torus3d"]

#: default per-link line rate of a generated fabric (10GbE everywhere,
#: the paper's medium)
DEFAULT_FABRIC_RATE_BPS = Gbps(10)
#: default one-way per-hop latency (short intra-rack fibre + forwarding)
DEFAULT_HOP_DELAY_S = 1e-6
#: default drop-tail output queue per link
DEFAULT_QUEUE_PACKETS = 512


@dataclass(frozen=True)
class FabricLinkSpec:
    """One *directed* fabric link ``src -> dst``."""

    src: str                 # transmitting node
    dst: str                 # receiving node
    rate_bps: float          # line rate
    delay_s: float           # propagation + forwarding latency
    queue_packets: int       # drop-tail output queue at ``src``

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise TopologyError(f"{self.src}->{self.dst}: rate must be positive")
        if self.delay_s < 0:
            raise TopologyError(f"{self.src}->{self.dst}: delay cannot be negative")
        if self.queue_packets < 1:
            raise TopologyError(
                f"{self.src}->{self.dst}: queue must hold at least one packet")


def _ecmp_pick(flow_id: int, node: str, dst: str, n: int) -> int:
    """Deterministic equal-cost tie-break (stable across processes)."""
    key = f"{flow_id}:{node}:{dst}".encode()
    return zlib.crc32(key) % n


@dataclass
class FabricTopology:
    """A directed fabric graph with deterministic ECMP routing.

    ``hosts`` are the traffic endpoints; interior nodes are switches
    (every node of a torus is both).  Links are directed, and
    :meth:`route` returns the link-index path a given flow takes from
    one host to another — always the same path for the same
    ``(src, dst, flow_id)`` triple.
    """

    name: str
    hosts: List[str] = field(default_factory=list)
    switches: List[str] = field(default_factory=list)
    links: List[FabricLinkSpec] = field(default_factory=list)
    _link_index: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _adjacency: Dict[str, List[str]] = field(default_factory=dict)
    _dist_cache: Dict[str, Dict[str, int]] = field(default_factory=dict)

    # -- construction -------------------------------------------------------
    def add_node(self, node: str, host: bool = False) -> None:
        """Register a node; ``host=True`` marks a traffic endpoint."""
        if node in self._adjacency:
            raise TopologyError(f"{self.name}: duplicate node {node!r}")
        self._adjacency[node] = []
        (self.hosts if host else self.switches).append(node)

    def add_link(self, src: str, dst: str,
                 rate_bps: float = DEFAULT_FABRIC_RATE_BPS,
                 delay_s: float = DEFAULT_HOP_DELAY_S,
                 queue_packets: int = DEFAULT_QUEUE_PACKETS) -> int:
        """Add one directed link; returns its index."""
        for node in (src, dst):
            if node not in self._adjacency:
                raise TopologyError(f"{self.name}: unknown node {node!r}")
        if (src, dst) in self._link_index:
            raise TopologyError(f"{self.name}: duplicate link {src}->{dst}")
        spec = FabricLinkSpec(src, dst, rate_bps, delay_s, queue_packets)
        idx = len(self.links)
        self.links.append(spec)
        self._link_index[(src, dst)] = idx
        self._adjacency[src].append(dst)
        self._dist_cache.clear()
        return idx

    def add_duplex(self, a: str, b: str, **kwargs) -> Tuple[int, int]:
        """Two directed links forming a full-duplex cable ``a <-> b``."""
        return self.add_link(a, b, **kwargs), self.add_link(b, a, **kwargs)

    # -- inspection ---------------------------------------------------------
    @property
    def n_links(self) -> int:
        """Total *directed* link count."""
        return len(self.links)

    # -- routing ------------------------------------------------------------
    def _dists_to(self, dst: str) -> Dict[str, int]:
        """Hop count from every node to ``dst`` (reverse BFS, cached)."""
        cached = self._dist_cache.get(dst)
        if cached is not None:
            return cached
        # BFS over reversed edges: dist[n] = hops from n to dst.
        reverse: Dict[str, List[str]] = {n: [] for n in self._adjacency}
        for spec in self.links:
            reverse[spec.dst].append(spec.src)
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                d = dist[node] + 1
                for pred in reverse[node]:
                    if pred not in dist:
                        dist[pred] = d
                        nxt.append(pred)
            frontier = nxt
        self._dist_cache[dst] = dist
        return dist

    def path_hops(self, src: str, dst: str) -> int:
        """Shortest-path hop count between two nodes."""
        dist = self._dists_to(dst)
        try:
            return dist[src]
        except KeyError:
            raise TopologyError(
                f"{self.name}: {dst!r} unreachable from {src!r}") from None

    def route(self, src: str, dst: str, flow_id: int = 0) -> List[int]:
        """Deterministic ECMP shortest path as a list of link indices.

        At every node the next hop is drawn from the neighbours that lie
        on *some* shortest path, tie-broken by a stable CRC-32 of
        ``(flow_id, node, dst)`` — different flows spread over the
        equal-cost fan-out, the same flow always repeats its path.
        """
        if src == dst:
            raise TopologyError(f"{self.name}: route {src!r} to itself")
        dist = self._dists_to(dst)
        if src not in dist:
            raise TopologyError(
                f"{self.name}: {dst!r} unreachable from {src!r}")
        path: List[int] = []
        node = src
        while node != dst:
            d = dist[node]
            candidates = [n for n in self._adjacency[node]
                          if dist.get(n, d) == d - 1]
            nxt = candidates[_ecmp_pick(flow_id, node, dst, len(candidates))]
            path.append(self._link_index[(node, nxt)])
            node = nxt
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FabricTopology {self.name!r} hosts={len(self.hosts)} "
                f"switches={len(self.switches)} links={self.n_links}>")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def build_fat_tree(k: int,
                   rate_bps: float = DEFAULT_FABRIC_RATE_BPS,
                   hop_delay_s: float = DEFAULT_HOP_DELAY_S,
                   queue_packets: int = DEFAULT_QUEUE_PACKETS) -> FabricTopology:
    """The classic k-ary fat-tree (Al-Fares et al., and the archgym
    Summit-style interconnect configs in the related work).

    ``k`` must be even and >= 2.  The fabric has ``k`` pods of ``k/2``
    edge and ``k/2`` aggregation switches, ``(k/2)^2`` core switches and
    ``k^3/4`` hosts (``k/2`` per edge switch); every link runs at the
    same ``rate_bps`` (no oversubscription), giving full bisection
    bandwidth.  Directed link count: ``3 * k^3 / 2``.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat-tree arity must be even and >= 2, got {k}")
    topo = FabricTopology(name=f"fattree(k={k})")
    half = k // 2
    link_kw = dict(rate_bps=rate_bps, delay_s=hop_delay_s,
                   queue_packets=queue_packets)
    cores = [f"core{c}" for c in range(half * half)]
    for core in cores:
        topo.add_node(core)
    for p in range(k):
        edges = [f"pod{p}.edge{e}" for e in range(half)]
        aggs = [f"pod{p}.agg{a}" for a in range(half)]
        for sw in edges + aggs:
            topo.add_node(sw)
        for e, edge in enumerate(edges):
            for h in range(half):
                host = f"host{p}.{e}.{h}"
                topo.add_node(host, host=True)
                topo.add_duplex(host, edge, **link_kw)
            for agg in aggs:
                topo.add_duplex(edge, agg, **link_kw)
        # aggregation switch a of every pod connects to the a-th stripe
        # of k/2 core switches
        for a, agg in enumerate(aggs):
            for c in range(half):
                topo.add_duplex(agg, cores[a * half + c], **link_kw)
    return topo


def build_torus3d(nx: int, ny: int, nz: int,
                  rate_bps: float = DEFAULT_FABRIC_RATE_BPS,
                  hop_delay_s: float = DEFAULT_HOP_DELAY_S,
                  queue_packets: int = DEFAULT_QUEUE_PACKETS) -> FabricTopology:
    """A 3-D torus with wraparound in every dimension (the APENet /
    PACS-CS LQCD fabric shape from the related work).

    Every node is both a host and a router (as on those machines).
    Dimensions must be >= 1; a dimension of size 1 contributes no links,
    size 2 contributes a single duplex pair per node pair (the +1 and
    -1 neighbours coincide).
    """
    dims = (nx, ny, nz)
    if any(d < 1 for d in dims):
        raise TopologyError(f"torus dimensions must be >= 1, got {dims}")
    if nx * ny * nz < 2:
        raise TopologyError("torus needs at least two nodes")
    topo = FabricTopology(name=f"torus3d({nx}x{ny}x{nz})")

    def node(x: int, y: int, z: int) -> str:
        return f"t{x}.{y}.{z}"

    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                topo.add_node(node(x, y, z), host=True)
    link_kw = dict(rate_bps=rate_bps, delay_s=hop_delay_s,
                   queue_packets=queue_packets)
    seen = set()
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                here = node(x, y, z)
                for dim, size in enumerate(dims):
                    if size < 2:
                        continue
                    coords = [x, y, z]
                    coords[dim] = (coords[dim] + 1) % size
                    there = node(*coords)
                    pair = (here, there)
                    if pair in seen:
                        continue  # size-2 dims: +1 and -1 coincide
                    seen.add(pair)
                    seen.add((there, here))
                    topo.add_duplex(here, there, **link_kw)
    return topo
