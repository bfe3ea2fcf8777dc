"""Frame-level fault taps: the hands of the chaos engine.

Two families live here:

* the **deterministic index taps** (:class:`LossTap`,
  :class:`DuplicateTap`, :class:`ReorderTap`).  They perturb specific
  per-kind arrival indices
  so a failing case replays exactly; property tests drive TCP's
  recovery machinery through them.
* the **time-gated** :class:`SinkTap` used by the
  :class:`~repro.chaos.injector.ChaosInjector`: installed once at
  simulation time zero (before any frame is in flight) and switched on
  and off purely by fault windows.

The install-at-t=0 rule keeps a plan's outcome independent of what is
in flight when a window opens: a link reads its sink *at delivery*, so
swapping a sink mid-run would also catch frames already in propagation.
A wrapper that is always present but only acts inside its windows
sidesteps the hazard entirely; and because links deliver frames
one-by-one at their own instants, an in-flight segment train is split
at a fault boundary exactly where per-frame delivery would split it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Set

from repro.errors import TopologyError
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.injector import ArmedFault
    from repro.oskernel.skbuff import SkBuff

__all__ = ["LossTap", "DuplicateTap", "ReorderTap", "SinkTap"]


class _Tap:
    """Base: splice into a connected link."""

    def __init__(self, env: Environment, link,
                 kinds: Iterable[str] = ("data",)):
        if link.sink is None:
            raise TopologyError("tap must attach after the link is connected")
        self.env = env
        self.inner = link.sink
        self.kinds = set(kinds)
        self._count = 0
        link.connect(self)

    def _matches(self, skb: "SkBuff") -> bool:
        return skb.kind in self.kinds

    def receive_frame(self, skb: "SkBuff") -> None:  # pragma: no cover
        raise NotImplementedError


class LossTap(_Tap):
    """Drops the frames whose (per-kind) arrival index is in ``drops``.

    Indices count only matching frames, starting at 0.  Retransmissions
    count like any other frame, so a dropped index can be retried
    successfully.
    """

    def __init__(self, env: Environment, link, drops: Iterable[int],
                 kinds: Iterable[str] = ("data",)):
        super().__init__(env, link, kinds)
        self.drops: Set[int] = set(drops)
        self.dropped: List[int] = []

    def receive_frame(self, skb: "SkBuff") -> None:
        """Drop the frame when its index is planned; else pass through."""
        if self._matches(skb):
            index = self._count
            self._count += 1
            if index in self.drops:
                self.dropped.append(skb.ident)
                return
        self.inner.receive_frame(skb)


class DuplicateTap(_Tap):
    """Delivers the frames at the given indices twice (stale copies)."""

    def __init__(self, env: Environment, link, duplicates: Iterable[int],
                 kinds: Iterable[str] = ("data",)):
        super().__init__(env, link, kinds)
        self.duplicates: Set[int] = set(duplicates)
        self.duplicated: List[int] = []

    def receive_frame(self, skb: "SkBuff") -> None:
        """Pass through; deliver a stale copy when planned."""
        deliver_twice = False
        if self._matches(skb):
            if self._count in self.duplicates:
                deliver_twice = True
                self.duplicated.append(skb.ident)
            self._count += 1
        # Not the entry's last action when a clone follows; see
        # TenGigAdapter.receive_frame for why its tail hop keeps order.
        self.inner.receive_frame(skb)
        if deliver_twice:
            clone = skb.copy_for_retransmit()
            clone.meta.update(skb.meta)
            self.inner.receive_frame(clone)


class ReorderTap(_Tap):
    """Holds the frames at the given indices for ``delay_s``, letting
    later frames overtake them."""

    def __init__(self, env: Environment, link, holds: Iterable[int],
                 delay_s: float = 50e-6,
                 kinds: Iterable[str] = ("data",)):
        if delay_s < 0:
            raise TopologyError("hold delay cannot be negative")
        super().__init__(env, link, kinds)
        self.holds: Set[int] = set(holds)
        self.delay_s = delay_s
        self.held: List[int] = []

    def receive_frame(self, skb: "SkBuff") -> None:
        """Hold planned frames for ``delay_s``; pass others through."""
        if self._matches(skb):
            index = self._count
            self._count += 1
            if index in self.holds:
                self.held.append(skb.ident)
                self.env.schedule_call(self.delay_s,
                                       self.inner.receive_frame, skb)
                return
        self.inner.receive_frame(skb)


class SinkTap:
    """Permanent, window-gated wrapper around a frame sink.

    Installed by the injector's arm step (simulation time zero) in front
    of a link sink or a NIC's wire ingress.  ``active`` holds the
    :class:`~repro.chaos.injector.ArmedFault` entries whose windows are
    currently open, in plan order; outside every window the tap is a
    single truth test plus a forwarded call.

    Composition rules when several faults overlap on one target:

    * faults act in plan order;
    * a drop ends processing (later faults never see the frame);
    * a held frame (reorder/stall) bypasses the remaining faults — it
      re-enters the sink directly when its delay expires;
    * duplication forwards the original first, then one clone no matter
      how many duplicate faults matched.
    """

    def __init__(self, injector, category: str, name: str, forward):
        self.env: Environment = injector.env
        self.injector = injector
        self.category = category
        self.name = name
        self._forward = forward
        self.active: List["ArmedFault"] = []

    def arm(self, armed: "ArmedFault") -> None:
        """Open ``armed``'s window on this tap (keeps plan order)."""
        entries = self.active
        entries.append(armed)
        entries.sort(key=lambda af: af.index)

    def disarm(self, armed: "ArmedFault") -> None:
        """Close ``armed``'s window on this tap."""
        try:
            self.active.remove(armed)
        except ValueError:  # pragma: no cover - defensive
            pass

    def receive_frame(self, skb: "SkBuff") -> None:
        """Apply every open fault window, then forward survivors."""
        forward = self._forward
        if not self.active:
            forward(skb)
            return
        env = self.env
        trace = self.injector.trace
        duplicate: Optional["ArmedFault"] = None
        for armed in tuple(self.active):
            spec = armed.spec
            if not spec.matches_frame_kind(skb.kind):
                continue
            armed.frames += 1
            p = spec.probability
            # Draw only for genuinely stochastic faults: p == 1.0 must
            # not consume randomness, so purely-scheduled plans stay
            # draw-free and two plans differing only in probability
            # fields diverge exactly where they should.
            if p < 1.0 and armed.rng.random() >= p:
                continue
            kind = spec.kind
            if kind in ("link_flap", "loss_burst", "nic_reset"):
                armed.drops += 1
                trace.post(env.now, "chaos.frame_drop", skb.ident,
                           fault=armed.index, kind=kind, target=self.name)
                return
            if kind == "corruption":
                armed.corrupts += 1
                trace.post(env.now, "chaos.frame_drop", skb.ident,
                           fault=armed.index, kind=kind, target=self.name)
                return
            if kind == "reorder_window":
                armed.holds += 1
                trace.post(env.now, "chaos.frame_hold", skb.ident,
                           fault=armed.index, kind=kind, target=self.name,
                           delay_s=spec.delay_s)
                env.schedule_call(spec.delay_s, forward, skb)
                return
            if kind == "nic_stall":
                armed.holds += 1
                delay = max(0.0, armed.spec.end_s - env.now)
                trace.post(env.now, "chaos.frame_hold", skb.ident,
                           fault=armed.index, kind=kind, target=self.name,
                           delay_s=delay)
                env.schedule_call(delay, forward, skb)
                return
            if kind == "duplicate":
                duplicate = armed
        # Not the entry's last action when a clone follows; see
        # TenGigAdapter.receive_frame for why its tail hop keeps order.
        forward(skb)
        if duplicate is not None:
            duplicate.dups += 1
            trace.post(env.now, "chaos.frame_dup", skb.ident,
                       fault=duplicate.index, kind="duplicate",
                       target=self.name)
            clone = skb.copy_for_retransmit()
            clone.meta.update(skb.meta)
            forward(clone)
