"""Tests for the interconnect comparison, LSR metric and WAN record."""

import pytest

from repro.errors import MeasurementError
from repro.core.comparison import INTERCONNECTS, InterconnectComparison
from repro.core.landspeed import (
    LSR_2002,
    LSR_2003,
    land_speed_record_metric,
)
from repro.core.wanrecord import WanRecordRun
from repro.units import Gbps, us


class TestComparison:
    def test_paper_arithmetic_with_paper_numbers(self):
        """Feeding the paper's own 4.11 Gb/s / 19 µs reproduces its
        'over 300% / 120% / 80% better' claims."""
        comp = InterconnectComparison(Gbps(4.11), us(19))
        assert comp.throughput_advantage("GbE/TCP") > 3.0
        assert comp.throughput_advantage("Myrinet/GM") > 1.0
        assert comp.throughput_advantage("QsNet/IP") > 0.8
        # latency: ~40% better than GbE, ~2x faster than the IP layers
        assert 1.0 - comp.latency_ratio("GbE/TCP") == pytest.approx(0.40,
                                                                    abs=0.03)
        assert comp.latency_ratio("Myrinet/IP") < 0.7
        # but slower than the native APIs
        assert comp.latency_ratio("Myrinet/GM") > 1.5
        assert comp.latency_ratio("QsNet/Elan3") > 2.0

    def test_conclusion_best_case_12us(self):
        """Conclusion: 12 µs best case = 1.7x slower than Myrinet/GM,
        2.4x slower than QsNet/Elan3."""
        comp = InterconnectComparison(Gbps(4.11), us(12))
        assert comp.latency_ratio("Myrinet/GM") == pytest.approx(1.85,
                                                                 rel=0.15)
        assert comp.latency_ratio("QsNet/Elan3") == pytest.approx(2.4,
                                                                  rel=0.1)

    def test_rows_cover_all_peers(self):
        comp = InterconnectComparison(Gbps(4.0), us(19))
        rows = comp.rows()
        assert {r["interconnect"] for r in rows} == set(INTERCONNECTS)

    def test_validation(self):
        with pytest.raises(MeasurementError):
            InterconnectComparison(0, us(19))
        comp = InterconnectComparison(Gbps(4), us(19))
        with pytest.raises(MeasurementError):
            comp.throughput_advantage("Carrier pigeon")


class TestLandSpeed:
    def test_metric_of_the_2003_record(self):
        assert LSR_2003.metric == pytest.approx(2.38e9 * 10037e3)
        assert LSR_2003.metric == pytest.approx(2.3888e16, rel=0.001)

    def test_record_beats_previous_by_2_4x(self):
        assert LSR_2003.metric / LSR_2002.metric == pytest.approx(2.36,
                                                                  rel=0.02)

    def test_validation(self):
        with pytest.raises(MeasurementError):
            land_speed_record_metric(0, 100)


class TestWanRecord:
    @pytest.fixture(scope="class")
    def run(self):
        return WanRecordRun()

    def test_bottleneck_goodput_is_2_38(self, run):
        assert run.bottleneck_goodput_bps / 1e9 == pytest.approx(2.38,
                                                                 abs=0.01)

    def test_bdp_around_54MB(self, run):
        assert run.bdp_bytes / 1e6 == pytest.approx(53.5, rel=0.02)

    def test_tuned_fluid_run_matches_paper(self, run):
        out = run.run_fluid(duration_s=300.0)
        assert out.throughput_gbps == pytest.approx(2.38, abs=0.02)
        assert out.losses == 0
        assert out.payload_efficiency > 0.98
        assert out.terabyte_time_s < 3600.0
        assert out.beats_previous_record > 2.0

    def test_small_buffer_underperforms(self, run):
        out = run.run_fluid(buffer_bytes=4 * 1024 * 1024,
                            duration_s=120.0, label="4MB")
        assert out.throughput_gbps < 0.3

    def test_oversized_buffer_loses_to_congestion(self, run):
        tuned = run.run_fluid(duration_s=240.0)
        over = run.run_fluid(buffer_bytes=3 * run.bdp_buffer_bytes(),
                             duration_s=240.0, label="3x")
        assert over.losses >= 1
        assert over.throughput_bps < tuned.throughput_bps

    def test_buffer_sweep_peaks_at_bdp(self, run):
        sweep = run.buffer_sweep(factors=(0.25, 1.0, 3.0),
                                 duration_s=120.0)
        gbps = [o.throughput_gbps for o in sweep]
        assert gbps[1] == max(gbps)

    def test_validation(self, run):
        with pytest.raises(MeasurementError):
            run.run_fluid(buffer_bytes=0)
        with pytest.raises(MeasurementError):
            run.run_des_scaled(scale=0)
