"""Unit tests for the /proc/sys emulation."""

import pytest

from repro.config import TuningConfig
from repro.errors import SysctlError
from repro.oskernel.sysctl import SysctlTable


def test_rmem_triplet_uses_max():
    t = SysctlTable()
    t.write("net/ipv4/tcp_rmem", "4096 87380 33554432")
    cfg = t.apply(TuningConfig.stock())
    assert cfg.tcp_rmem == 33554432


def test_single_value_accepted():
    t = SysctlTable()
    t.write("net/core/wmem_max", "8388608")
    assert t.apply(TuningConfig.stock()).tcp_wmem == 8388608


def test_proc_sys_prefix_and_dots_normalized():
    t = SysctlTable()
    t.write("/proc/sys/net/ipv4/tcp_rmem", "1048576")
    t.write("net.ipv4.tcp_wmem", "2097152")
    cfg = t.apply(TuningConfig.stock())
    assert cfg.tcp_rmem == 1048576
    assert cfg.tcp_wmem == 2097152


def test_boolean_sysctls():
    t = SysctlTable()
    t.write("net/ipv4/tcp_timestamps", "0")
    t.write("net/ipv4/tcp_window_scaling", "1")
    cfg = t.apply(TuningConfig.stock())
    assert cfg.tcp_timestamps is False
    assert cfg.window_scaling is True


def test_boolean_rejects_other_values():
    t = SysctlTable()
    with pytest.raises(SysctlError):
        t.write("net/ipv4/tcp_timestamps", "2")


def test_unknown_key_rejected():
    with pytest.raises(SysctlError):
        SysctlTable().write("net/ipv4/no_such_thing", "1")


def test_non_integer_rejected():
    with pytest.raises(SysctlError):
        SysctlTable().write("net/core/rmem_max", "lots")


def test_non_positive_buffer_rejected():
    with pytest.raises(SysctlError):
        SysctlTable().write("net/ipv4/tcp_rmem", "0")


def test_apply_without_writes_is_identity():
    cfg = TuningConfig.stock()
    assert SysctlTable().apply(cfg) is cfg


def test_run_script_paper_recipe():
    """The exact §4 recipe shape (values from the paper's listing)."""
    script = """
    echo "4096 87380 128388607" > /proc/sys/net/ipv4/tcp_rmem
    echo "4096 65530 128388607" > /proc/sys/net/ipv4/tcp_wmem
    echo 128388607 > /proc/sys/net/core/wmem_max
    echo 128388607 > /proc/sys/net/core/rmem_max
    /sbin/ifconfig eth1 txqueuelen 10000
    /sbin/ifconfig eth1 mtu 9000
    """
    t = SysctlTable()
    t.run_script(script)
    cfg = t.apply(TuningConfig.stock(9000))
    assert cfg.tcp_rmem == 128388607
    assert cfg.tcp_wmem == 128388607


def test_run_script_skips_comments_and_blanks():
    t = SysctlTable()
    t.run_script("# comment\n\necho 1048576 > /proc/sys/net/core/rmem_max\n")
    assert t.apply(TuningConfig.stock()).tcp_rmem == 1048576


def test_run_script_echo_without_target_rejected():
    with pytest.raises(SysctlError):
        SysctlTable().run_script("echo 42\n")
