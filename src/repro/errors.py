"""Exception hierarchy for the repro package.

Every exception raised deliberately by the library derives from
:class:`ReproError` so applications can catch library failures with a
single ``except`` clause while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ScheduleInPastError",
    "ResourceError",
    "ConfigError",
    "SysctlError",
    "TopologyError",
    "AllocationError",
    "ProtocolError",
    "LinkError",
    "MeasurementError",
    "ChaosError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Generic failure inside the discrete-event engine."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class ResourceError(SimulationError):
    """Misuse of a simulation server, e.g. a FIFO timeline with no capacity."""


class ConfigError(ReproError):
    """Invalid tuning/host configuration."""


class SysctlError(ConfigError):
    """Unknown sysctl key or out-of-range sysctl value."""


class TopologyError(ReproError):
    """Invalid network topology (unattached NIC, port clash...)."""


class AllocationError(ReproError):
    """sk_buff allocator failure (size too large, accounting underflow)."""


class ProtocolError(ReproError):
    """TCP/UDP state-machine violation."""


class LinkError(ReproError):
    """Frame rejected by a link or switch (oversized MTU, no route...)."""


class MeasurementError(ReproError):
    """A measurement tool was used incorrectly or produced no samples."""


class ChaosError(ReproError):
    """Invalid fault plan or misuse of the chaos-injection subsystem."""
