"""Unit helpers and physical constants used throughout the simulator.

All simulator-internal quantities use SI base units:

* time      — seconds (float)
* data size — bytes (int where exact, float for rates/means)
* data rate — bits per second (``bit/s``)

The helpers below exist so call sites read like the paper does
(``Gbps(8.5)``, ``us(19)``, ``KB(256)``) instead of sprinkling powers of
ten around.  Following the paper's conventions:

* network rates use decimal prefixes (1 Gb/s = 1e9 bit/s), and
* memory/buffer sizes use binary prefixes (1 KB = 1024 bytes), which is
  how both Linux socket-buffer sysctls and the paper's "256-KB socket
  buffer" are specified.
"""

from __future__ import annotations

__all__ = [
    "Gbps",
    "KB",
    "MB",
    "ns",
    "us",
    "ms",
    "BITS_PER_BYTE",
    "transfer_time",
]

BITS_PER_BYTE = 8


# --- data rates (bit/s) --------------------------------------------------

def Gbps(x: float) -> float:
    """Gigabits per second to bit/s (decimal prefix)."""
    return x * 1e9


# --- data sizes (bytes) --------------------------------------------------

def KB(x: float) -> int:
    """Kibibytes to bytes (binary prefix, as used for socket buffers)."""
    return int(x * 1024)


def MB(x: float) -> int:
    """Mebibytes to bytes."""
    return int(x * 1024 * 1024)


# --- times (seconds) -----------------------------------------------------

def ns(x: float) -> float:
    """Nanoseconds to seconds."""
    return x * 1e-9


def us(x: float) -> float:
    """Microseconds to seconds."""
    return x * 1e-6


def ms(x: float) -> float:
    """Milliseconds to seconds."""
    return x * 1e-3


def transfer_time(nbytes: float, rate_bps: float) -> float:
    """Serialization time of ``nbytes`` at ``rate_bps``.

    Raises :class:`ValueError` for non-positive rates: a zero-rate link
    would silently stall the event loop otherwise.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps!r}")
    if nbytes < 0:
        raise ValueError(f"size must be non-negative, got {nbytes!r}")
    return (nbytes * BITS_PER_BYTE) / rate_bps
