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
    "SweepError",
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
    """TCP state-machine or socket-API violation."""


class LinkError(ReproError):
    """Frame rejected by a link or switch (oversized MTU, no route...)."""


class MeasurementError(ReproError):
    """A measurement tool was used incorrectly or produced no samples."""


class ChaosError(ReproError):
    """Invalid fault plan or misuse of the chaos-injection subsystem."""


class SweepError(ReproError):
    """A sweep point raised.

    The message names the sweep, the task index, the point's stable key
    and the original error, which is chained as ``__cause__`` (from a
    pool worker: the remote traceback, which includes it).  ``index``
    and ``key`` are rebuilt from ``args``, so they survive pickling back
    from a pool worker.
    """

    def __init__(self, message: str, index: int, key: str):
        super().__init__(message, index, key)
        self.index = index
        self.key = key

    def __str__(self) -> str:
        return self.args[0]
