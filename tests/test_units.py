"""Unit tests for repro.units."""

import pytest

from repro import units


def test_rate_helpers():
    assert units.Gbps(10) == 1e10


def test_size_helpers_binary():
    assert units.KB(64) == 65536
    assert units.MB(1) == 1048576


def test_time_helpers():
    assert units.ns(1) == 1e-9
    assert units.us(19) == pytest.approx(19e-6)
    assert units.ms(180) == pytest.approx(0.18)


def test_transfer_time():
    # 1250 bytes at 10 Gb/s = 1 microsecond
    assert units.transfer_time(1250, units.Gbps(10)) == pytest.approx(1e-6)


def test_transfer_time_zero_bytes():
    assert units.transfer_time(0, units.Gbps(1)) == 0.0


def test_transfer_time_invalid_rate():
    with pytest.raises(ValueError):
        units.transfer_time(100, 0)
    with pytest.raises(ValueError):
        units.transfer_time(100, -1)


def test_transfer_time_negative_size():
    with pytest.raises(ValueError):
        units.transfer_time(-1, units.Gbps(1))
