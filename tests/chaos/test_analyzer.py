"""Unit tests for the recovery analyzer and scorecard."""

import pytest

from repro.chaos import (FaultSpec, FaultWindow, analyze_goodput,
                         render_scorecard)
from repro.errors import ChaosError


def vee_series():
    """Steady 10 Gb/s, a trough to 2 at t=10, linear climb back by t=20."""
    times = list(range(0, 31))
    rates = []
    for t in times:
        if t < 10:
            rates.append(10e9)
        elif t < 20:
            rates.append(2e9 + (t - 10) * 0.8e9)
        else:
            rates.append(10e9)
    return times, rates


def test_vee_recovery_quantities():
    times, rates = vee_series()
    rec, = analyze_goodput(times, rates, [(10.0, 11.0)],
                           recovered_fraction=0.95)
    assert rec.baseline_bps == pytest.approx(10e9)
    assert rec.trough_bps == pytest.approx(2e9)
    assert rec.recovered
    assert rec.time_to_recover_s == pytest.approx(10.0)
    # Shortfall integral of the linear climb: sum of (10-rate)*1s steps.
    expected_lost = sum(10e9 - r for r in rates[10:20])
    assert rec.goodput_lost_bits == pytest.approx(expected_lost)
    assert rec.recovery_slope_bps_per_s == pytest.approx(0.8e9)
    assert 0 < rec.score < 100


def test_unrecovered_series_scores_lower():
    times = list(range(0, 21))
    rates = [10e9] * 10 + [1e9] * 11  # drops and never comes back
    rec, = analyze_goodput(times, rates, [(10.0, 11.0)])
    assert not rec.recovered
    assert rec.time_to_recover_s == pytest.approx(10.0)  # runs to horizon
    times2, rates2 = vee_series()
    healthy, = analyze_goodput(times2, rates2, [(10.0, 11.0)])
    assert rec.score < healthy.score


def test_fault_after_series_is_perfect_score():
    times, rates = vee_series()
    rec, = analyze_goodput(times, rates, [(1000.0, 1001.0)])
    assert rec.recovered and rec.score == 100
    assert rec.goodput_lost_bits == 0.0


def test_fault_descriptions_normalized():
    times, rates = vee_series()
    window = FaultWindow(start_s=10.0, end_s=11.0, kind="loss_burst")
    spec = FaultSpec(kind="loss_burst", target="link:x", start_s=10.0,
                     duration_s=1.0)
    row = {"index": 3, "kind": "loss_burst", "target": "x",
           "label": "from summary()", "start_s": 10.0, "duration_s": 1.0}
    recs = analyze_goodput(times, rates, [window, spec, row, (10.0, 11.0)])
    assert len(recs) == 4
    assert len({r.time_to_recover_s for r in recs}) == 1
    assert recs[2].index == 3 and recs[2].label == "from summary()"
    with pytest.raises(ChaosError):
        analyze_goodput(times, rates, [object()])


def test_series_validation():
    with pytest.raises(ChaosError):
        analyze_goodput([0, 1], [1.0], [(0.0, 1.0)])
    with pytest.raises(ChaosError):
        analyze_goodput([0], [1.0], [(0.0, 1.0)])
    with pytest.raises(ChaosError):
        analyze_goodput([0, 1], [1.0, 1.0], [(0.0, 1.0)],
                        recovered_fraction=0.0)


def test_render_scorecard_smoke():
    times, rates = vee_series()
    recs = analyze_goodput(times, rates, [(10.0, 11.0)])
    text = render_scorecard(recs, title="Unit scorecard")
    assert "Unit scorecard" in text
    assert "baseline" in text and "score" in text
    assert "10.00 Gb/s" in text
