"""Integration: the paper's headline results, asserted end to end.

Each test reproduces one claim of the paper through the full simulated
stack (scaled-down workloads) and checks the *shape*: who wins, by
roughly what factor, where the dips and crossovers fall.  The
one-payload paper points are ``point.*`` rows of the claims table
(:mod:`tests.golden.claims`), which holds their tolerances.
"""

import dataclasses

import pytest

from repro.config import TuningConfig
from repro.hw.calibration import Calibration
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run
from tests.golden.claims import CLAIMS


def transfer(cfg, payload, count=384, **topology):
    env = Environment()
    bb = BackToBack.create(env, cfg, **topology)
    conn = TcpConnection(env, bb.a, bb.b)
    return nttcp_run(env, conn, payload, count)


def goodput(cfg, payload, count=384):
    return transfer(cfg, payload, count).goodput_gbps


@pytest.fixture(scope="module")
def headline():
    """Measured peaks for the key configurations (computed once)."""
    return {
        "stock_1500": goodput(TuningConfig.stock(1500), 1448),
        "stock_9000": goodput(TuningConfig.stock(9000), 4474),
        "stock_9000_dip": goodput(TuningConfig.stock(9000), 8948),
        "burst_9000": goodput(TuningConfig.with_pcix_burst(9000), 4474),
        "up_9000": goodput(TuningConfig(mtu=9000, mmrbc=4096,
                                         smp_kernel=False), 4474),
        "win_9000": goodput(TuningConfig.oversized_windows(9000), 8948),
        "win_1500": goodput(TuningConfig.oversized_windows(1500), 1448),
        "tuned_8160": goodput(TuningConfig.fully_tuned(8160), 8108),
        "tuned_16000": goodput(TuningConfig.fully_tuned(16000), 15948),
    }


class TestSection33Ladder:
    def test_stock_1500_peak(self, headline):
        CLAIMS["point.stock_1500_gbps"].check(headline["stock_1500"])

    def test_jumbo_beats_standard_mtu(self, headline):
        assert headline["stock_9000"] > headline["stock_1500"]

    def test_pcix_burst_step_gains(self, headline):
        """Paper: +33% at 9000 MTU from MMRBC 512 -> 4096.  The gain is
        largest where the stock bus ceiling binds hardest (MSS-sized
        payloads); our window model leaves both configs partly
        window-limited, so we assert a >15% gain there and >10% at the
        mid-payload peak."""
        at_mss = goodput(TuningConfig.with_pcix_burst(9000), 8948)
        gain_mss = at_mss / headline["stock_9000_dip"] - 1
        assert gain_mss > 0.15
        gain_peak = headline["burst_9000"] / headline["stock_9000"] - 1
        assert gain_peak > 0.10

    def test_uniprocessor_step_gains(self, headline):
        """Paper: ~10% further at 9000 MTU."""
        assert headline["up_9000"] > headline["burst_9000"] * 1.02

    def test_window_step_reaches_3_9(self, headline):
        CLAIMS["point.oversized_windows_9000_gbps"].check(
            headline["win_9000"])

    def test_1500_fully_tuned_reaches_2_47(self, headline):
        CLAIMS["point.oversized_windows_1500_gbps"].check(
            headline["win_1500"])

    def test_8160_peak_above_4(self, headline):
        """Paper: 4.11 Gb/s, the headline LAN number."""
        CLAIMS["point.tuned_8160_gbps"].check(headline["tuned_8160"])

    def test_16000_peak_matches_8160_class(self, headline):
        """Paper: 4.09 vs 4.11 — 'virtually identical'."""
        CLAIMS["point.tuned_16000_over_8160"].check(
            headline["tuned_16000"] / headline["tuned_8160"])

    def test_over_4gbps_achieved(self, headline):
        """Abstract: 'over 4 Gb/s end-to-end throughput'."""
        assert max(headline.values()) > 4.0


class TestFig3Fig4Dips:
    def test_stock_dip_in_marked_band(self, headline):
        """Fig. 3: marked dip for payloads between 7436 and 8948."""
        dip = headline["stock_9000_dip"]
        assert dip < headline["stock_9000"] * 0.92

    def test_oversized_windows_eliminate_dip(self, headline):
        """Fig. 4: the dip disappears with 256 KB windows."""
        at_dip_payload = headline["win_9000"]
        off_dip = goodput(TuningConfig.oversized_windows(9000), 7000, 256)
        assert at_dip_payload > off_dip * 0.9


class TestAblations:
    """One modelled mechanism flipped at a time: each carries the effect
    DESIGN.md attributes to it."""

    def test_knobs_around_tuned_9000(self):
        base = TuningConfig.fully_tuned(9000)
        tuned = transfer(base, 8948, 768)
        smp = transfer(base.replace(smp_kernel=True), 8948, 768)
        no_ts = transfer(base.replace(tcp_timestamps=False), 8948, 768)
        no_csum = transfer(base.replace(checksum_offload=False), 8948, 768)
        # the SMP tax costs throughput (the paper's UP step, inverted)
        assert smp.goodput_bps < tuned.goodput_bps * 0.95
        # timestamps cost a few percent of a CPU-bound flow (§3.4 reports
        # ~10% on the E7505; the per-packet model carries ~2-3%, see
        # EXPERIMENTS.md)
        assert no_ts.goodput_bps > tuned.goodput_bps * 1.005
        assert no_csum.goodput_bps < tuned.goodput_bps * 0.97

    def test_allocator_order_penalty_carries_8160_vs_9000(self):
        """With the order penalty zeroed, the two MTUs converge (per-byte
        costs then favour the larger MSS)."""

        def ratio(cal):
            rates = {mtu: transfer(TuningConfig.fully_tuned(mtu), payload,
                                   512, calibration=cal).goodput_bps
                     for mtu, payload in ((8160, 8108), (9000, 8948))}
            return rates[8160] / rates[9000]

        with_penalty = ratio(Calibration())
        without = ratio(dataclasses.replace(Calibration(),
                                            alloc_order_usghz=0.0))
        assert with_penalty > 1.0          # 8160 wins, as in Fig. 5
        assert without < with_penalty      # the penalty carries the effect


class TestWindowMechanism:
    def test_advertised_windows_are_mss_aligned_on_the_wire(self):
        from repro.tools.tcpdump import Tcpdump
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.stock(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        dump = Tcpdump(env, bb.links[1])
        nttcp_run(env, conn, 8948, 128)
        mss = conn.receiver.align_mss
        windows = dump.advertised_windows()
        assert windows, "no ACKs captured"
        assert all(w % mss == 0 for w in windows)

    def test_stock_advertised_window_below_expected_48k(self):
        """§3.5.1: 'the actual advertised window is significantly
        smaller than the expected value of 48 KB'."""
        from repro.tools.tcpdump import Tcpdump
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.stock(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        dump = Tcpdump(env, bb.links[1])
        nttcp_run(env, conn, 8948, 128)
        windows = dump.advertised_windows()
        steady = windows[len(windows) // 2:]
        assert min(steady) < 48 * 1024


class TestEndToEndConservation:
    @pytest.mark.parametrize("mtu,payload", [(1500, 1448), (9000, 8948),
                                             (8160, 8108), (16000, 15948)])
    def test_no_loss_no_duplicates_all_mtus(self, mtu, payload):
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.fully_tuned(mtu))
        conn = TcpConnection(env, bb.a, bb.b)
        r = nttcp_run(env, conn, payload, 128)
        assert r.bytes_delivered == payload * 128
        assert r.retransmissions == 0
        assert conn.receiver.duplicates == 0
