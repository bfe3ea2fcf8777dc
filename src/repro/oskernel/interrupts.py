"""Interrupt moderation: the fixed coalescing delay.

The paper's adapters use a fixed interrupt delay (5 µs, the Fig. 6/7
knob): every delay microsecond bought CPU relief at full load and cost
exactly that microsecond at low load.

:class:`InterruptModerator` holds that delay, which the NIC arms after
each first unannounced frame, and counts the frames it moderated.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["InterruptModerator"]


class InterruptModerator:
    """The coalescing delay of one adapter.

    Parameters
    ----------
    delay_s:
        The configured fixed delay (the paper's 5 µs).
    """

    def __init__(self, delay_s: float):
        if delay_s < 0:
            raise ConfigError("coalescing delay cannot be negative")
        self.delay_s = delay_s
        self.arrivals = 0

    def note_arrival(self) -> None:
        """Count one received frame."""
        self.arrivals += 1
