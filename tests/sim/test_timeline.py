"""Unit tests for FifoTimeline, the FIFO server of the data path."""

import pytest

from repro.errors import ResourceError
from repro.sim import Environment
from repro.sim.timeline import FifoTimeline


def test_timeline_refuses_capacity_below_one():
    for capacity in (0, -1):
        with pytest.raises(ResourceError):
            FifoTimeline(Environment(), capacity=capacity)


def test_single_server_serializes_in_fifo_order():
    env = Environment()
    line = FifoTimeline(env, capacity=1)
    assert line.charge(2.0) == (0.0, 2.0)
    assert line.charge(1.0) == (2.0, 3.0)
    assert line.charge(0.5) == (3.0, 3.5)
    assert line.busy_until == 3.5


def test_two_servers_grant_fifo_to_the_earliest_free():
    env = Environment()
    line = FifoTimeline(env, capacity=2)
    assert line.charge(3.0) == (0.0, 3.0)   # server 0
    assert line.charge(5.0) == (0.0, 5.0)   # server 1, idle
    assert line.charge(1.0) == (3.0, 4.0)   # server 0 frees first
    assert line.charge(2.0) == (4.0, 6.0)   # server 0 again (4 < 5)
    assert line.charge(1.0) == (5.0, 6.0)   # server 1
    assert line.charge_count == 5
    assert line.committed_time == 12.0
    assert line.busy_until == 6.0
    env.run(until=10.0)
    # both servers idle: the grant is now, not the old busy-until
    assert line.charge(1.0) == (10.0, 11.0)


def test_busy_elapsed_and_utilization_mid_hold():
    env = Environment()
    line = FifoTimeline(env, capacity=2)
    assert line.utilization() == 0.0  # no time has passed
    line.charge(4.0)
    env.run(until=1.0)
    assert line.busy_elapsed() == 1.0  # the 3 s still ahead is excluded
    assert line.utilization() == 0.5   # one of two servers busy
    assert line.utilization(elapsed=2.0) == 0.25
    env.run(until=8.0)
    assert line.busy_elapsed() == 4.0
    assert line.utilization() == 0.25
