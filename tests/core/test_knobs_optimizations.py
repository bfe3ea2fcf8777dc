"""Tests for the optimization ladder."""

from repro.config import TuningConfig
from repro.core.optimizations import LAN_OPTIMIZATION_LADDER
from repro.units import KB


def test_ladder_is_cumulative():
    cfg = TuningConfig.stock(9000)
    for step in LAN_OPTIMIZATION_LADDER:
        cfg = step.transform(cfg)
    assert cfg.mmrbc == 4096
    assert cfg.smp_kernel is False
    assert cfg.tcp_rmem == KB(256)


def test_ladder_order_matches_paper():
    names = [s.name for s in LAN_OPTIMIZATION_LADDER]
    assert names[0] == "stock TCP"
    assert "PCI-X" in names[1]
    assert "uniprocessor" in names[2]
    assert "window" in names[3].lower()


def test_ladder_paper_peaks_recorded():
    stock = LAN_OPTIMIZATION_LADDER[0]
    assert stock.paper_peaks_gbps[1500] == 1.8
    assert stock.paper_peaks_gbps[9000] == 2.7
    final = LAN_OPTIMIZATION_LADDER[-1]
    assert final.paper_peaks_gbps[8160] == 4.11
