"""Tests for the NTTCP tool."""

import pytest

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import default_payloads, nttcp_run


def fresh(cfg=None):
    env = Environment()
    bb = BackToBack.create(env, cfg or TuningConfig.oversized_windows(9000))
    return env, TcpConnection(env, bb.a, bb.b)


def test_nttcp_measures_goodput():
    env, conn = fresh()
    r = nttcp_run(env, conn, payload=8948, count=128)
    assert r.bytes_delivered == 8948 * 128
    assert 1e9 < r.goodput_bps < 8.5e9
    assert r.goodput_gbps == pytest.approx(r.goodput_bps / 1e9)
    assert r.retransmissions == 0


def test_nttcp_reports_cpu_load():
    env, conn = fresh()
    r = nttcp_run(env, conn, payload=8948, count=128)
    assert 0.0 < r.receiver_load <= 1.0
    assert 0.0 < r.sender_load <= 1.0


def test_nttcp_load_higher_for_small_mtu():
    """§3.3: CPU load ~0.9 at 1500-byte MTU vs ~0.4 at 9000 — the
    stock 9000 configuration is bus/window-limited, so the CPU idles,
    while 1500 is per-packet CPU-bound."""
    env1, conn1 = fresh(TuningConfig.stock(1500))
    small = nttcp_run(env1, conn1, payload=1448, count=256)
    env2, conn2 = fresh(TuningConfig.stock(9000))
    big = nttcp_run(env2, conn2, payload=8948, count=256)
    assert small.receiver_load > 0.8
    assert big.receiver_load < small.receiver_load - 0.1


def test_nttcp_invalid_args():
    env, conn = fresh()
    with pytest.raises(MeasurementError):
        nttcp_run(env, conn, payload=0, count=10)
    with pytest.raises(MeasurementError):
        nttcp_run(env, conn, payload=100, count=0)


def test_nttcp_sequential_runs_on_one_connection():
    """A second run after an idle gap is timed from its own first
    arrival and counts only its own bytes."""
    env, conn = fresh()
    r1 = nttcp_run(env, conn, payload=8948, count=64)
    env.run(until=env.now + 0.010)
    r2 = nttcp_run(env, conn, payload=8948, count=64)
    assert r2.bytes_delivered == 8948 * 64
    assert r2.elapsed_s < 1.5 * r1.elapsed_s
    assert r2.goodput_bps == pytest.approx(
        r2.bytes_delivered * 8 / r2.elapsed_s)
    assert conn.receiver.goodput_bps() == pytest.approx(r2.goodput_bps)


def test_default_payloads_cover_dip_region():
    grid = default_payloads(mss=8948)
    assert 128 in grid and 16384 in grid
    assert 8948 in grid       # the MSS itself
    assert 7436 in grid       # mss - 1512: the paper's dip edge
    assert grid == sorted(grid)


def test_default_payloads_validation():
    with pytest.raises(MeasurementError):
        default_payloads(mss=8948, points=2)
