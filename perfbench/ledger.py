"""Per-layer cost ledger, measured from outside the simulator.

:class:`Ledger` wraps the public entry points of each simulator layer
(``sim``, ``tcp``, ``hw``, ``oskernel``, ``net``, ``chaos`` and
``telemetry``) with timers and counters, and reads the layers' public
counters after every operation.  Nothing under ``src/repro`` is edited:
methods are replaced on their classes, and module-level functions are
replaced in every loaded ``repro`` module that holds them, so aliases
such as ``register_target as register_chaos_target`` are covered too.

A layer's self time is the time spent inside its wrapped calls minus
the time spent in wrapped calls nested inside them.  ``sim`` is
``Environment.run``, so ``sim.self_s`` is the engine's own dispatch work
plus every callback the other layers schedule through private methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from statistics import fmean
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The wrapped entry points, layer by layer: (module, attribute path).
#: Every entry must be a plain function: wrapping a generator function
#: would time only the creation of the generator.
ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "sim": [("repro.sim.engine", "Environment.run")],
    "tcp": [("repro.tcp.receiver", "TcpReceiver.on_data_frame"),
            ("repro.tcp.sender", "TcpSender.on_ack_frame"),
            ("repro.tcp.fluid", "FluidFabric.step")],
    "hw": [("repro.hw.nic", "TenGigAdapter.send"),
           ("repro.hw.nic", "TenGigAdapter.enqueue"),
           ("repro.hw.nic", "TenGigAdapter.receive_frame"),
           ("repro.hw.host", "Host.deliver_rx"),
           ("repro.hw.pcix", "PciXBus.charge_transfer"),
           ("repro.hw.pcix", "PciXBus.account"),
           ("repro.hw.cpu", "CpuComplex.charge")],
    "oskernel": [("repro.oskernel.allocator", "BuddyAllocator.alloc"),
                 ("repro.oskernel.allocator", "BuddyAllocator.free"),
                 ("repro.oskernel.allocator", "block_size_for"),
                 ("repro.oskernel.allocator", "block_order"),
                 ("repro.oskernel.interrupts",
                  "InterruptModerator.note_arrival"),
                 ("repro.oskernel.copyengine", "CopyEngine.copy_time"),
                 ("repro.oskernel.copyengine", "CopyEngine.checksum_time"),
                 ("repro.oskernel.copyengine", "CopyEngine.rx_byte_time"),
                 ("repro.oskernel.copyengine", "CopyEngine.tx_byte_time")],
    "net": [("repro.net.ethernet", "EthernetLink.transmit"),
            ("repro.net.ethernet", "EthernetLink.charge_frame"),
            ("repro.net.switch", "Switch.receive_frame"),
            ("repro.net.switch", "SwitchPort.enqueue"),
            ("repro.net.wanpath", "Router.receive_frame"),
            ("repro.net.wanpath", "PosCircuit.transmit"),
            ("repro.net.wanpath", "PosCircuit.charge_frame"),
            ("repro.net.hybrid", "DesLink.send"),
            ("repro.net.coupling", "QueueCoupling.admit")],
    # Topology builders get a layer of their own so that construction
    # cost (hosts, adapters, links) shows as net.topology_build_s
    # instead of inflating the data-path figure net.self_s.
    "topology": [("repro.net.topology", "BackToBack.create"),
                 ("repro.net.topology", "ThroughSwitch.create"),
                 ("repro.net.topology", "build_wan_path"),
                 ("repro.net.fabric", "build_fat_tree")],
    "chaos": [("repro.chaos.hooks", "active_chaos"),
              ("repro.chaos.hooks", "register_target"),
              ("repro.chaos.hooks", "attach_environment")],
    "telemetry": [("repro.telemetry.session", "active_session"),
                  ("repro.telemetry.session", "active_metrics"),
                  ("repro.telemetry.session", "register_trace"),
                  ("repro.telemetry.session", "attach_environment")],
}

#: Classes whose instances are collected so their public counters can
#: be read once each operation ends.
TRACKED_CLASSES: List[Tuple[str, str]] = [
    ("repro.sim.engine", "Environment"),
    ("repro.tcp.sender", "TcpSender"),
    ("repro.tcp.receiver", "TcpReceiver"),
    ("repro.net.hybrid", "FabricFlow"),
    ("repro.hw.nic", "TenGigAdapter"),
    ("repro.hw.pcix", "PciXBus"),
    ("repro.net.ethernet", "EthernetLink"),
    ("repro.net.wanpath", "PosCircuit"),
    ("repro.net.wanpath", "Router"),
    ("repro.net.switch", "SwitchPort"),
    ("repro.net.hybrid", "DesLink"),
    ("repro.net.hybrid", "FluidCoupler"),
]

#: Per-layer metrics with their units, in output order.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.self_s": "s", "sim.ns_per_event": "ns", "sim.events": "count",
    "sim.pending_mean": "count", "sim.pending_max": "count",
    "sim.environments": "count",
    "tcp.self_s": "s", "tcp.calls": "count", "tcp.segments_sent": "count",
    "tcp.retransmits": "count", "tcp.useful_ratio": "frac",
    "tcp.fluid_step_s": "s", "tcp.fluid_steps": "count",
    "hw.self_s": "s", "hw.calls": "count", "hw.train_size_mean": "frames",
    "hw.pcix_busy_frac": "frac", "hw.rx_cpu_load": "frac",
    "oskernel.self_s": "s", "oskernel.calls": "count",
    "oskernel.irqs": "count", "oskernel.frames_per_irq": "frames",
    "oskernel.alloc_waste_frac": "frac",
    "net.self_s": "s", "net.calls": "count",
    "net.frames_forwarded": "count", "net.drops": "count",
    "net.queue_max": "frames", "net.topology_build_s": "s",
    "net.hybrid_ticks": "count",
    "chaos.hook_s": "s", "chaos.hook_calls": "count",
    "telemetry.hook_s": "s",
    "bench.trace_overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Ledger:
    """Timers and counters around the simulator's layer boundaries.

    Create one, call :meth:`install` once the workload's modules are
    imported, run the traced operations calling :meth:`harvest` after
    each, then read :meth:`metrics`.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.entry_calls: Dict[str, int] = defaultdict(int)
        # One child-time accumulator per open span; the bottom slot
        # absorbs top-level spans.
        self._stack: List[float] = [0.0]
        self._envs: List[Any] = []   # environments inside run(), innermost last
        self._live: Dict[str, List[Any]] = defaultdict(list)
        self.pending_sum = 0
        self.pending_n = 0
        self.pending_max = 0
        self.queue_max = 0
        self.block_requested = 0
        self.block_allocated = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Replace every entry point and tracked constructor in place."""
        observers: Dict[str, Callable[[tuple, Any], None]] = {
            "block_size_for": self._observe_block,
            "SwitchPort.enqueue": self._observe_queue("queue.level"),
            "Router.receive_frame": self._observe_queue("occupancy"),
            "DesLink.send": self._observe_queue("level"),
        }
        for layer, entries in ENTRY_POINTS.items():
            for module_name, path in entries:
                self._wrap(layer, module_name, path, observers.get(path))
        for module_name, class_name in TRACKED_CLASSES:
            self._track(module_name, class_name)

    def _wrap(self, layer: str, module_name: str, path: str,
              observe: Optional[Callable[[tuple, Any], None]]) -> None:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            _check_plain(original, path)
            wrapper = self._span(layer, path, original, observe)
            # Replace the function wherever a loaded module holds it,
            # including aliases and this benchmark's own imports.
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None) or {}
                for name, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, name, wrapper)
            return
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            _check_plain(raw.__func__, path)
            setattr(cls, attr, classmethod(
                self._span(layer, path, raw.__func__, observe)))
            return
        _check_plain(raw, path)
        span = self._span(layer, path, raw, observe)
        if path == "Environment.run":
            envs = self._envs
            timed_run = span

            @functools.wraps(raw)
            def run(env: Any, *args: Any, **kwargs: Any) -> Any:
                envs.append(env)
                try:
                    return timed_run(env, *args, **kwargs)
                finally:
                    envs.pop()

            span = run
        setattr(cls, attr, span)

    def _span(self, layer: str, key: str, fn: Callable[..., Any],
              observe: Optional[Callable[[tuple, Any], None]]
              ) -> Callable[..., Any]:
        stack = self._stack
        envs = self._envs
        self_s = self.self_s
        calls = self.calls
        inclusive = self.inclusive_s
        entry_calls = self.entry_calls
        ledger = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if envs:
                pending = envs[-1].pending_count()
                ledger.pending_sum += pending
                ledger.pending_n += 1
                if pending > ledger.pending_max:
                    ledger.pending_max = pending
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child
                calls[layer] += 1
                inclusive[key] += dt
                entry_calls[key] += 1
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _track(self, module_name: str, class_name: str) -> None:
        cls = getattr(importlib.import_module(module_name), class_name)
        init = cls.__init__
        live = self._live[class_name]

        @functools.wraps(init)
        def tracked_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            live.append(obj)

        cls.__init__ = tracked_init

    # -- observers (run outside the timed region) -----------------------------
    def _observe_block(self, args: tuple, block: int) -> None:
        self.block_requested += args[0]
        self.block_allocated += block

    def _observe_queue(self, attr: str) -> Callable[[tuple, Any], None]:
        def observe(args: tuple, _result: Any) -> None:
            level = functools.reduce(getattr, attr.split("."), args[0])
            if level > self.queue_max:
                self.queue_max = level
        return observe

    # -- counters -------------------------------------------------------------
    def harvest(self) -> None:
        """Read the public counters of every object built since the last
        harvest, then drop the references so finished topologies can be
        freed."""
        live = self._live
        c = self.counts
        s = self.samples
        for env in live["Environment"]:
            c["environments"] += 1
            c["events"] += env.events_scheduled
        for snd in live["TcpSender"]:
            c["segments_sent"] += snd.segments_sent
            c["retransmits"] += snd.retransmitted
            c["bytes_sent"] += snd.snd_nxt + snd.retransmitted * snd.mss
        for rcv in live["TcpReceiver"]:
            c["bytes_delivered"] += rcv.bytes_delivered
            if rcv.bytes_delivered:
                s["rx_cpu_load"].append(rcv.host.cpu.load())
        for flow in live["FabricFlow"]:
            c["segments_sent"] += flow.next_seq
            c["bytes_sent"] += flow.next_seq * flow.mss
            c["bytes_delivered"] += flow.delivered_bytes
        for nic in live["TenGigAdapter"]:
            trains = nic.tx_trains.events
            c["trains"] += trains
            c["train_frames"] += nic.mean_train_size() * trains
            c["irqs"] += nic.interrupts.events
            c["rx_frames"] += nic.rx_frames.events
        for bus in live["PciXBus"]:
            s["pcix_busy_frac"].append(bus.utilization())
        for link in live["EthernetLink"] + live["PosCircuit"]:
            c["frames_forwarded"] += link.frames.events
        for hop in live["SwitchPort"] + live["Router"]:
            c["frames_forwarded"] += hop.forwarded.events
            c["drops"] += hop.drops.events
        for link in live["DesLink"]:
            c["frames_forwarded"] += link.serviced
            c["drops"] += link.drops
        for coupler in live["FluidCoupler"]:
            c["hybrid_ticks"] += coupler.ticks
        for objs in live.values():
            objs.clear()

    # -- report ---------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Every per-layer figure except ``bench.trace_overhead_frac``."""
        c = self.counts
        s = self.samples
        inc = self.inclusive_s
        calls = self.entry_calls
        topo_keys = [path for _, path in ENTRY_POINTS["topology"]]
        return {
            "sim.self_s": self.self_s["sim"],
            "sim.ns_per_event": _ratio(self.self_s["sim"] * 1e9, c["events"]),
            "sim.events": c["events"],
            "sim.pending_mean": _ratio(self.pending_sum, self.pending_n),
            "sim.pending_max": self.pending_max,
            "sim.environments": c["environments"],
            "tcp.self_s": self.self_s["tcp"],
            "tcp.calls": self.calls["tcp"],
            "tcp.segments_sent": c["segments_sent"],
            "tcp.retransmits": c["retransmits"],
            "tcp.useful_ratio": _ratio(c["bytes_delivered"], c["bytes_sent"]),
            "tcp.fluid_step_s": inc["FluidFabric.step"],
            "tcp.fluid_steps": calls["FluidFabric.step"],
            "hw.self_s": self.self_s["hw"],
            "hw.calls": self.calls["hw"],
            "hw.train_size_mean": _ratio(c["train_frames"], c["trains"]),
            "hw.pcix_busy_frac": fmean(s["pcix_busy_frac"])
            if s["pcix_busy_frac"] else 0.0,
            "hw.rx_cpu_load": fmean(s["rx_cpu_load"])
            if s["rx_cpu_load"] else 0.0,
            "oskernel.self_s": self.self_s["oskernel"],
            "oskernel.calls": self.calls["oskernel"],
            "oskernel.irqs": c["irqs"],
            "oskernel.frames_per_irq": _ratio(c["rx_frames"], c["irqs"]),
            "oskernel.alloc_waste_frac": 1.0 - _ratio(self.block_requested,
                                                      self.block_allocated)
            if self.block_allocated else 0.0,
            "net.self_s": self.self_s["net"],
            "net.calls": self.calls["net"],
            "net.frames_forwarded": c["frames_forwarded"],
            "net.drops": c["drops"],
            "net.queue_max": self.queue_max,
            "net.topology_build_s": sum(inc[k] for k in topo_keys),
            "net.hybrid_ticks": c["hybrid_ticks"],
            "chaos.hook_s": self.self_s["chaos"],
            "chaos.hook_calls": self.calls["chaos"],
            "telemetry.hook_s": self.self_s["telemetry"],
        }


def _check_plain(fn: Callable[..., Any], path: str) -> None:
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"{path} is a generator function; timing it would "
                        f"measure only the creation of the generator")
