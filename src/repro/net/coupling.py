"""Shared-queue coupling between DES queues and the fluid background.

In hybrid fluid+DES mode a fabric link's output queue (a
:class:`~repro.net.hybrid.DesLink`) is *shared*: packet-level foreground
traffic flows through it in the DES while an aggregate of fluid
background flows loads the same buffer from the side.  A
:class:`QueueCoupling` object carries the two halves of that handoff:

* **fluid -> DES**: :attr:`background_utilization` scales the queue's
  effective service rate (the fluid share of the line), and
  :attr:`background_drop_prob` early-drops foreground packets with the
  overflow probability the fluid queue is experiencing — so foreground
  TCP sees the congestion the background creates;
* **DES -> fluid**: the queue reports every serviced foreground packet
  via :meth:`record_service`; the coupler drains the counters each tick
  with :meth:`take_foreground_pps` and injects them into the fluid
  model as cross traffic — so the background yields the capacity the
  foreground actually uses.

Coupled drops use a dedicated, seeded :class:`random.Random` stream per
queue, so hybrid runs are bit-reproducible for a given seed and
independent of every other RNG in the simulation.
"""

from __future__ import annotations

import zlib
from random import Random

__all__ = ["QueueCoupling"]


class QueueCoupling:
    """Coupling state for one shared queue (see module docstring)."""

    __slots__ = ("name", "background_utilization", "background_drop_prob",
                 "foreground_packets", "foreground_bytes", "coupled_drops",
                 "_rng", "_ema_alpha")

    def __init__(self, name: str, seed: int = 0, ema_alpha: float = 0.5):
        self.name = name
        #: fluid share of the line rate, [0, 0.95]; smoothed via EMA so
        #: the tick-to-tick handoff cannot oscillate
        self.background_utilization = 0.0
        #: probability a foreground packet is dropped by background
        #: queue pressure, [0, 0.95]
        self.background_drop_prob = 0.0
        #: foreground packets serviced since the last coupler drain
        self.foreground_packets = 0
        #: foreground payload bytes serviced since the last drain
        self.foreground_bytes = 0
        #: foreground packets lost to background pressure (lifetime)
        self.coupled_drops = 0
        self._rng = Random(zlib.crc32(name.encode()) ^ seed)
        self._ema_alpha = float(ema_alpha)

    # -- fluid -> DES -------------------------------------------------------
    def set_background(self, utilization: float, drop_prob: float) -> None:
        """Install the fluid link state for the next tick (EMA-smoothed)."""
        a = self._ema_alpha
        self.background_utilization += a * (
            min(max(utilization, 0.0), 0.95) - self.background_utilization)
        self.background_drop_prob += a * (
            min(max(drop_prob, 0.0), 0.95) - self.background_drop_prob)

    def admit(self) -> bool:
        """Coin flip for one foreground packet against the background
        drop probability; False means the packet is lost to coupling."""
        p = self.background_drop_prob
        if p > 0.0 and self._rng.random() < p:
            self.coupled_drops += 1
            return False
        return True

    def service_scale(self) -> float:
        """Fraction of the line rate left to the foreground."""
        return 1.0 - self.background_utilization

    # -- DES -> fluid -------------------------------------------------------
    def record_service(self, nbytes: int) -> None:
        """Account one serviced foreground packet of ``nbytes``."""
        self.foreground_packets += 1
        self.foreground_bytes += nbytes

    def take_foreground_pps(self, dt: float) -> float:
        """Mean foreground packet rate since the last call; resets."""
        pps = self.foreground_packets / dt if dt > 0 else 0.0
        self.foreground_packets = 0
        self.foreground_bytes = 0
        return pps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QueueCoupling {self.name!r} "
                f"bg={self.background_utilization:.3f} "
                f"p={self.background_drop_prob:.3f}>")
