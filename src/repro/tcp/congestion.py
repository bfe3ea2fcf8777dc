"""Reno congestion control (RFC 2581) with Linux packet counting.

The sender-side state variable of §4: slow start, additive increase /
multiplicative decrease, fast retransmit on three duplicate ACKs, and
timeout recovery.  Linux counts the congestion window in *packets*, and
keeps it MSS-aligned by construction — the sender half of the window
quantisation the paper analyses (Fig. 8).
"""

from __future__ import annotations

from repro.errors import ProtocolError

__all__ = ["RenoCongestion", "INITIAL_CWND", "DUPACK_THRESHOLD"]

#: RFC 2581 initial window (segments).
INITIAL_CWND = 2

#: Fast retransmit after this many duplicate ACKs.
DUPACK_THRESHOLD = 3


class RenoCongestion:
    """AIMD congestion window, counted in segments.

    Attributes
    ----------
    cwnd:
        Congestion window in segments (float internally; use
        :attr:`cwnd_segments` for the usable integer value).
    ssthresh:
        Slow-start threshold in segments.
    """

    def __init__(self, mss: int, initial_cwnd: int = INITIAL_CWND,
                 ssthresh: float = float("inf"),
                 max_cwnd_segments: float = float("inf")):
        if mss <= 0:
            raise ProtocolError("MSS must be positive")
        if initial_cwnd < 1:
            raise ProtocolError("initial cwnd must be >= 1 segment")
        self.mss = mss
        self.cwnd = float(initial_cwnd)
        self.ssthresh = ssthresh
        self.max_cwnd_segments = max_cwnd_segments
        self.dupacks = 0
        self.in_recovery = False
        self.recover_seq = 0
        # statistics
        self.fast_retransmits = 0
        self.timeouts = 0

    # -- usable window ----------------------------------------------------------
    @property
    def cwnd_segments(self) -> int:
        """Whole segments the window permits (MSS alignment: the usable
        window is ``floor(cwnd)`` full segments)."""
        return max(1, int(self.cwnd))

    @property
    def cwnd_bytes(self) -> int:
        """MSS-aligned congestion window in bytes."""
        return self.cwnd_segments * self.mss

    @property
    def in_slow_start(self) -> bool:
        """True while cwnd < ssthresh."""
        return self.cwnd < self.ssthresh

    # -- events -------------------------------------------------------------------
    def on_ack(self, newly_acked_segments: int = 1) -> None:
        """A cumulative ACK advanced snd_una by that many segments.

        During recovery the window is frozen at ssthresh; the sender
        calls :meth:`exit_recovery` once the ACK covers the recovery
        point (NewReno semantics).
        """
        if newly_acked_segments < 0:
            raise ProtocolError("cannot ack a negative segment count")
        self.dupacks = 0
        if self.in_recovery:
            return
        for _ in range(newly_acked_segments):
            if self.in_slow_start:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / max(self.cwnd, 1.0)
        if self.cwnd > self.max_cwnd_segments:
            self.cwnd = float(self.max_cwnd_segments)

    def on_dupack(self) -> bool:
        """A duplicate ACK arrived; returns True when fast retransmit
        should fire (third dupack, not already recovering)."""
        self.dupacks += 1
        if self.dupacks == DUPACK_THRESHOLD and not self.in_recovery:
            self._enter_recovery()
            return True
        return False

    def _enter_recovery(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.in_recovery = True
        self.fast_retransmits += 1

    def exit_recovery(self) -> None:
        """The cumulative ACK covered the recovery point."""
        self.in_recovery = False
        self.dupacks = 0

    def on_timeout(self) -> None:
        """Retransmission timer fired: collapse to one segment."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self.timeouts += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        phase = ("recovery" if self.in_recovery
                 else "slow-start" if self.in_slow_start
                 else "avoidance")
        return f"<Reno cwnd={self.cwnd:.1f} ssthresh={self.ssthresh} {phase}>"
