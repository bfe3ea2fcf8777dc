"""Tests for the case-study driver (scaled-down sweeps)."""

import pytest

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.core.casestudy import CaseStudy, SweepCurve


@pytest.fixture(scope="module")
def study():
    return CaseStudy(write_count=256, points=6)


@pytest.fixture(scope="module")
def stock_9000(study):
    return study.sweep(TuningConfig.stock(9000))


def test_sweep_produces_points(study, stock_9000):
    assert len(stock_9000.points) >= 6
    assert stock_9000.label == "9000MTU,SMP,512PCI,64kbuf"


def test_curve_statistics(stock_9000):
    assert 0 < stock_9000.average_gbps <= stock_9000.peak_gbps
    assert 0 <= stock_9000.mean_receiver_load <= 1.0


def test_payload_grid_includes_mss_neighbourhood(stock_9000):
    payloads = set(stock_9000.payloads.tolist())
    assert 8948 in payloads
    assert 7436 in payloads


def test_dip_requires_split(stock_9000):
    with pytest.raises(MeasurementError):
        stock_9000.dip(0, 10**9)


def test_empty_curve_raises():
    curve = SweepCurve(label="x", config=TuningConfig.stock())
    with pytest.raises(MeasurementError):
        curve.peak_gbps


@pytest.fixture(scope="module")
def ladder_9000(study):
    return study.run_ladder(mtus=(9000,))


def test_ladder_improves_9000_peak(ladder_9000):
    peaks = [r.curves[9000].peak_gbps for r in ladder_9000]
    # stock < burst-tuned, and the final windowed step is the best
    assert peaks[0] < peaks[1]
    assert peaks[-1] == max(peaks)
    assert peaks[-1] > peaks[0] * 1.3


def test_ladder_tracks_paper_peaks(ladder_9000):
    for r in ladder_9000:
        paper = r.paper_peak(9000)
        if paper is not None:
            # within 35% of the paper's number at this scale
            assert r.peak(9000) == pytest.approx(paper, rel=0.35)


def test_mtu_tuning_curves(study):
    curves = study.run_mtu_tuning(mtus=(8160,))
    assert curves[8160].peak_gbps > 3.5
