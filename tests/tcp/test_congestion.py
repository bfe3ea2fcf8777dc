"""Unit tests for Reno congestion control."""

import pytest

from repro.errors import ProtocolError
from repro.tcp.congestion import DUPACK_THRESHOLD, INITIAL_CWND, RenoCongestion


def test_initial_state():
    cc = RenoCongestion(mss=8948)
    assert cc.cwnd == INITIAL_CWND
    assert cc.in_slow_start
    assert not cc.in_recovery


def test_slow_start_doubles_per_window():
    cc = RenoCongestion(mss=1448)
    cc.on_ack(2)   # both initial segments acked
    assert cc.cwnd == 4.0
    cc.on_ack(4)
    assert cc.cwnd == 8.0


def test_congestion_avoidance_linear():
    cc = RenoCongestion(mss=1448, ssthresh=4.0)
    cc.on_ack(4)  # slow start until 4
    start = cc.cwnd
    assert not cc.in_slow_start
    # one full window of acks adds ~1 segment
    n = cc.cwnd_segments
    cc.on_ack(n)
    assert cc.cwnd == pytest.approx(start + 1.0, rel=0.1)


def test_cwnd_bytes_mss_aligned():
    cc = RenoCongestion(mss=8948)
    cc.cwnd = 5.9
    assert cc.cwnd_segments == 5
    assert cc.cwnd_bytes == 5 * 8948


def test_fast_retransmit_on_third_dupack():
    cc = RenoCongestion(mss=1448)
    cc.on_ack(20)
    before = cc.cwnd
    fired = [cc.on_dupack() for _ in range(DUPACK_THRESHOLD)]
    assert fired == [False, False, True]
    assert cc.in_recovery
    assert cc.cwnd == pytest.approx(before / 2.0)
    assert cc.fast_retransmits == 1


def test_no_double_fast_retransmit_in_recovery():
    cc = RenoCongestion(mss=1448)
    cc.on_ack(20)
    for _ in range(DUPACK_THRESHOLD):
        cc.on_dupack()
    assert not any(cc.on_dupack() for _ in range(5))


def test_window_frozen_during_recovery():
    cc = RenoCongestion(mss=1448)
    cc.on_ack(20)
    for _ in range(DUPACK_THRESHOLD):
        cc.on_dupack()
    w = cc.cwnd
    cc.on_ack(3)  # partial acks do not grow the window
    assert cc.cwnd == w
    cc.exit_recovery()
    assert not cc.in_recovery


def test_timeout_collapses_to_one_segment():
    cc = RenoCongestion(mss=1448)
    cc.on_ack(30)
    cc.on_timeout()
    assert cc.cwnd == 1.0
    assert cc.timeouts == 1
    assert cc.in_slow_start  # ssthresh = half the old window


def test_ssthresh_floor_of_two():
    cc = RenoCongestion(mss=1448)
    cc.on_timeout()
    assert cc.ssthresh == 2.0


def test_max_cwnd_cap():
    cc = RenoCongestion(mss=1448, max_cwnd_segments=10)
    cc.on_ack(100)
    assert cc.cwnd == 10.0


def test_invalid_arguments():
    with pytest.raises(ProtocolError):
        RenoCongestion(mss=0)
    with pytest.raises(ProtocolError):
        RenoCongestion(mss=1448, initial_cwnd=0)
    cc = RenoCongestion(mss=1448)
    with pytest.raises(ProtocolError):
        cc.on_ack(-1)
