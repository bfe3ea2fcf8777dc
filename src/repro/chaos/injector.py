"""The chaos injector: arms a :class:`~repro.chaos.plan.FaultPlan`.

One :class:`ChaosInjector` exists per :class:`~repro.sim.engine.
Environment` while a non-empty plan is active.  Its lifecycle is built
around one determinism rule: **every chaos event is scheduled up-front,
inside ``Environment.__init__``**, so the arm/fire/recover callbacks own
the lowest sequence numbers at their instants and win FIFO ties against
any frame delivery scheduled later.  Consequences:

* a frame delivered exactly at a window's opening instant is faulted,
  one at the closing instant is not, because tie-breaks are by
  ``(time, seq)`` everywhere;
* an empty plan schedules nothing and registers nothing, so the run is
  byte-identical to chaos-off (sequence numbers included);
* per-fault randomness comes from named :class:`~repro.sim.rng.
  RngStreams` sub-streams, so adding a fault never perturbs another
  fault's draws.

Activation mirrors telemetry: :func:`chaos_session` swaps the session
into the module-global hook slot (fork-inherited by sweep workers), or
``REPRO_CHAOS=/plan.json`` loads one ambiently.  Activate **before**
building the environment and topology — components discover the session
in their constructors.
"""

from __future__ import annotations

import contextlib
import weakref
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.chaos.plan import CATEGORIES, KIND_CATEGORIES, FaultPlan, FaultSpec
from repro.chaos.taps import SinkTap
from repro.errors import ChaosError
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBuffer
from repro.telemetry.session import active_bus, active_metrics, register_trace

__all__ = ["ArmedFault", "ChaosInjector", "ChaosSession", "chaos_session"]

#: Sub-intervals a ``cpu_contention`` window is charged in; many small
#: slices interleave with real protocol work like a competing process
#: would, instead of one monolithic stall.
CPU_SLICES = 16


class ArmedFault:
    """Runtime state of one :class:`~repro.chaos.plan.FaultSpec`."""

    __slots__ = ("index", "spec", "rng", "taps", "queues", "cpus", "nics",
                 "matched", "fired_at", "recovered_at", "frames", "drops",
                 "holds", "dups", "corrupts", "_saved_capacity")

    def __init__(self, index: int, spec: FaultSpec, rng):
        self.index = index
        self.spec = spec
        self.rng = rng
        self.taps: List[SinkTap] = []
        self.queues: List[Any] = []
        self.cpus: List[Any] = []
        self.nics: List[Any] = []
        self.matched: List[str] = []
        self.fired_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        self.frames = 0
        self.drops = 0
        self.holds = 0
        self.dups = 0
        self.corrupts = 0
        self._saved_capacity: List[Tuple[Any, Any]] = []

    def summary(self) -> Dict[str, Any]:
        """Per-fault scorecard row (consumed by the recovery analyzer)."""
        spec = self.spec
        return {
            "index": self.index,
            "kind": spec.kind,
            "target": spec.target,
            "label": spec.label,
            "start_s": spec.start_s,
            "duration_s": spec.duration_s,
            "matched": list(self.matched),
            "fired": self.fired_at is not None,
            "recovered": self.recovered_at is not None,
            "frames": self.frames,
            "drops": self.drops,
            "holds": self.holds,
            "dups": self.dups,
            "corrupts": self.corrupts,
        }


class ChaosInjector:
    """Schedules and applies one plan against one environment."""

    def __init__(self, env, plan: FaultPlan):
        self.env = env
        self.plan = plan
        self._streams = RngStreams(plan.seed)
        self.trace = TraceBuffer()
        register_trace("chaos", self.trace)
        # Live streaming: arm/fire/recover land on the bus the moment
        # they happen, independent of trace collection cadence — chaos
        # windows are exactly what an observer is watching for.
        self._bus = active_bus()
        metrics = active_metrics()
        self._c_fired = (metrics.counter("chaos.faults.fired")
                         if metrics is not None else None)
        self._c_recovered = (metrics.counter("chaos.faults.recovered")
                             if metrics is not None else None)
        self.armed: List[ArmedFault] = [
            ArmedFault(i, spec, self._streams.get(f"fault{i}"))
            for i, spec in enumerate(plan.faults)]
        self._publish("plan_armed", None, faults=len(self.armed),
                      seed=plan.seed, fingerprint=plan.fingerprint())
        self.unmatched: List[int] = []
        self._targets: List[Tuple[str, str, Any]] = []
        self._taps: Dict[int, SinkTap] = {}
        # Up-front scheduling: these events exist before any traffic, so
        # they outrank same-instant deliveries in (time, seq) order.
        now = env.now
        env.schedule_call_at(now, self._arm_all)
        for armed in self.armed:
            start = max(now, armed.spec.start_s)
            env.schedule_call_at(start, self._fire, armed)
            env.schedule_call_at(max(start, armed.spec.end_s),
                                 self._recover, armed)

    def _publish(self, event: str, armed: Optional[ArmedFault],
                 **fields: Any) -> None:
        """Publish one chaos lifecycle event onto the live bus (no-op
        without an active bus or consumers)."""
        bus = self._bus
        if bus is None:
            return
        payload: Dict[str, Any] = {"event": event, "time": self.env.now}
        if armed is not None:
            spec = armed.spec
            payload.update(fault=armed.index, fault_kind=spec.kind,
                           target=spec.target, label=spec.label,
                           start_s=spec.start_s, duration_s=spec.duration_s)
        payload.update(fields)
        bus.publish("chaos", payload)

    # -- target registry ------------------------------------------------------
    def register_target(self, category: str, name: str, obj: Any) -> None:
        """Record a component for fault-target matching."""
        if category not in CATEGORIES:
            raise ChaosError(f"unknown target category {category!r}")
        self._targets.append((category, name, obj))

    def _match(self, spec: FaultSpec) -> List[Tuple[str, str, Any]]:
        categories = ((spec.category,) if spec.category
                      else KIND_CATEGORIES[spec.kind])
        glob = spec.name_glob
        return [(cat, name, obj) for cat, name, obj in self._targets
                if cat in categories and fnmatchcase(name, glob)]

    # -- lifecycle callbacks --------------------------------------------------
    def _arm_all(self) -> None:
        """t=0: resolve targets and splice the permanent sink wrappers.

        Wrappers go in before any frame is in flight; the windows gate
        them afterwards.  Unmatched faults are recorded, traced and
        skipped — a plan written for one topology must not crash a
        different experiment.
        """
        now = self.env.now
        for armed in self.armed:
            spec = armed.spec
            targets = self._match(spec)
            if not targets:
                self.unmatched.append(armed.index)
                self.trace.post(now, "chaos.unmatched", armed.index,
                                kind=spec.kind, target=spec.target)
                self._publish("unmatched", armed)
                continue
            for category, name, obj in targets:
                if category == "link":
                    tap = self._tap_link(obj, name)
                    if tap is not None:
                        armed.taps.append(tap)
                        armed.matched.append(name)
                elif category == "nic":
                    armed.taps.append(self._tap_nic(obj, name))
                    armed.nics.append(obj)
                    armed.matched.append(name)
                elif category in ("router", "switch_port"):
                    armed.queues.append(obj)
                    armed.matched.append(name)
                elif category == "cpu":
                    armed.cpus.append(obj)
                    armed.matched.append(name)
            self.trace.post(now, "chaos.fault_armed", armed.index,
                            kind=spec.kind, target=spec.target,
                            matched=len(armed.matched))
            self._publish("armed", armed, matched=list(armed.matched))

    def _tap_link(self, link, name: str) -> Optional[SinkTap]:
        tap = self._taps.get(id(link))
        if tap is None:
            sink = getattr(link, "sink", None)
            if sink is None:
                return None  # never connected; nothing can traverse it
            tap = SinkTap(self, "link", name, sink.receive_frame)
            link.connect(tap)
            self._taps[id(link)] = tap
        return tap

    def _tap_nic(self, nic, name: str) -> SinkTap:
        tap = self._taps.get(id(nic))
        if tap is None:
            # Capture the original bound method, then shadow it with an
            # instance attribute — links look the attribute up per
            # frame, so every delivery sees the wrapper.
            tap = SinkTap(self, "nic", name, nic.receive_frame)
            nic.receive_frame = tap.receive_frame
            self._taps[id(nic)] = tap
        return tap

    def _fire(self, armed: ArmedFault) -> None:
        if not armed.matched:
            return
        env = self.env
        spec = armed.spec
        armed.fired_at = env.now
        for tap in armed.taps:
            tap.arm(armed)
        if spec.kind == "buffer_degrade":
            for holder in armed.queues:
                queue = holder.queue
                armed._saved_capacity.append((queue, queue.capacity))
                queue.capacity = max(1, int(round(queue.capacity
                                                  * spec.factor)))
        elif spec.kind == "nic_reset":
            for nic in armed.nics:
                armed.drops += len(nic._rx_pending)
                nic._rx_pending.clear()
        elif spec.kind == "cpu_contention":
            slice_s = spec.duration_s / CPU_SLICES
            steal = slice_s * min(1.0, spec.factor)
            for cpu in armed.cpus:
                for k in range(CPU_SLICES):
                    env.schedule_call(k * slice_s, self._steal, cpu, steal)
        if self._c_fired is not None:
            self._c_fired.inc()
        self.trace.post(env.now, "chaos.fault_fired", armed.index,
                        kind=spec.kind, target=spec.target)
        self._publish("fired", armed)

    def _steal(self, cpu, cost_s: float) -> None:
        cpu.timeline.charge(cost_s)

    def _recover(self, armed: ArmedFault) -> None:
        if armed.fired_at is None:
            return
        armed.recovered_at = self.env.now
        for tap in armed.taps:
            tap.disarm(armed)
        for queue, capacity in armed._saved_capacity:
            queue.capacity = capacity
        armed._saved_capacity.clear()
        if self._c_recovered is not None:
            self._c_recovered.inc()
        self.trace.post(self.env.now, "chaos.fault_recovered", armed.index,
                        kind=armed.spec.kind, target=armed.spec.target)
        self._publish("recovered", armed, frames=armed.frames,
                      drops=armed.drops, holds=armed.holds, dups=armed.dups)

    # -- reporting ------------------------------------------------------------
    def summary(self) -> List[Dict[str, Any]]:
        """Scorecard rows for every fault in plan order."""
        return [armed.summary() for armed in self.armed]


class ChaosSession:
    """One activated plan, shared by every environment built under it.

    Injectors are held in a :class:`weakref.WeakKeyDictionary` so
    long-lived ambient sessions (``REPRO_CHAOS``) never pin dead
    environments in memory.
    """

    def __init__(self, plan: FaultPlan):
        if not isinstance(plan, FaultPlan):
            raise ChaosError(
                f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self._injectors: "weakref.WeakKeyDictionary[Any, ChaosInjector]" = (
            weakref.WeakKeyDictionary())

    def attach_environment(self, env: Any) -> None:
        """Create (and schedule) this plan's injector for ``env``."""
        if self.plan.is_empty:
            return
        self._injectors[env] = ChaosInjector(env, self.plan)

    def register_target(self, category: str, name: str, obj: Any) -> None:
        """Route a component registration to its environment's injector."""
        env = getattr(obj, "env", None)
        if env is None:
            return
        injector = self._injectors.get(env)
        if injector is not None:
            injector.register_target(category, name, obj)

    def injector_for(self, env: Any) -> Optional[ChaosInjector]:
        """The injector attached to ``env``, if any."""
        return self._injectors.get(env)


@contextlib.contextmanager
def chaos_session(plan: Union[FaultPlan, Dict[str, Any], str, Any]
                  ) -> Iterator[ChaosSession]:
    """Activate ``plan`` for the duration of the block.

    ``plan`` may be a :class:`FaultPlan`, a plain dict, or a path to a
    JSON file.  Like :func:`~repro.telemetry.session.telemetry_session`,
    enter the context **before** building environments/topologies.
    """
    from repro.chaos import hooks
    if isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    elif not isinstance(plan, FaultPlan):
        plan = FaultPlan.load(plan)
    if hooks._ACTIVE is not None:
        raise ChaosError("a chaos session is already active")
    session = ChaosSession(plan)
    hooks._ACTIVE = session
    try:
        yield session
    finally:
        hooks._ACTIVE = None
