"""Unit tests for TuningConfig."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import MAX_ADAPTER_MTU, TuningConfig, VALID_MMRBC
from repro.errors import ConfigError
from repro.oskernel.sysctl import SysctlTable
from repro.units import KB


def test_defaults_match_stock_pe2650():
    cfg = TuningConfig()
    assert cfg.mtu == 1500
    assert cfg.mmrbc == 512
    assert cfg.smp_kernel is True
    assert cfg.tcp_rmem == KB(64)
    assert cfg.interrupt_coalescing_us == 5.0
    assert cfg.tcp_timestamps is True


@pytest.mark.parametrize("mtu", [100, 0, -1, MAX_ADAPTER_MTU + 1])
def test_invalid_mtu_rejected(mtu):
    with pytest.raises(ConfigError):
        TuningConfig(mtu=mtu)


@pytest.mark.parametrize("mtu", [576, 1500, 8160, 9000, 16000])
def test_valid_mtus_accepted(mtu):
    assert TuningConfig(mtu=mtu).mtu == mtu


@pytest.mark.parametrize("mmrbc", [0, 100, 513, 8192])
def test_invalid_mmrbc_rejected(mmrbc):
    with pytest.raises(ConfigError):
        TuningConfig(mmrbc=mmrbc)


@pytest.mark.parametrize("mmrbc", VALID_MMRBC)
def test_valid_mmrbc_accepted(mmrbc):
    assert TuningConfig(mmrbc=mmrbc).mmrbc == mmrbc


def test_tiny_socket_buffers_rejected():
    with pytest.raises(ConfigError):
        TuningConfig(tcp_rmem=1024)
    with pytest.raises(ConfigError):
        TuningConfig(tcp_wmem=100)


def test_negative_coalescing_rejected():
    with pytest.raises(ConfigError):
        TuningConfig(interrupt_coalescing_us=-1.0)


def test_txqueuelen_must_be_positive():
    with pytest.raises(ConfigError):
        TuningConfig(txqueuelen=0)


def test_replace_creates_validated_copy():
    cfg = TuningConfig()
    jumbo = cfg.replace(mtu=9000)
    assert jumbo.mtu == 9000
    assert cfg.mtu == 1500  # original untouched
    with pytest.raises(ConfigError):
        cfg.replace(mmrbc=777)


def test_describe_matches_paper_legend_style():
    cfg = TuningConfig(mtu=9000, mmrbc=512)
    assert cfg.describe() == "9000MTU,SMP,512PCI,64kbuf"
    up = TuningConfig.oversized_windows(9000)
    assert up.describe() == "9000MTU,UP,4096PCI,256kbuf"


def test_named_ladder_configs():
    assert TuningConfig.stock(9000).mmrbc == 512
    assert TuningConfig.with_pcix_burst().mmrbc == 4096
    big = TuningConfig.oversized_windows()
    assert big.tcp_rmem == KB(256) and big.tcp_wmem == KB(256)
    tuned = TuningConfig.fully_tuned()
    assert tuned.mtu == 8160 and not tuned.smp_kernel


def test_wan_tuned_sets_paper_recipe():
    cfg = TuningConfig.wan_tuned(buf=32 * 1024 * 1024)
    assert cfg.mtu == 9000
    assert cfg.txqueuelen == 10000
    assert cfg.window_scaling
    assert cfg.tcp_rmem == 32 * 1024 * 1024


def _attributes_read_outside_config():
    """Every ``x.name`` read in the package's modules but config.py."""
    package = Path(repro.__file__).parent
    names = set()
    for path in package.rglob("*.py"):
        if path == package / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_field_is_read_by_the_model():
    """A field nothing reads is a switch that changes only the cache
    key: each one must reach the model as an attribute read or
    through the sysctl map."""
    read = _attributes_read_outside_config()
    read |= {field for _, field in SysctlTable._KEYS.values()}
    unread = [f.name for f in dataclasses.fields(TuningConfig)
              if f.name not in read]
    assert unread == []
