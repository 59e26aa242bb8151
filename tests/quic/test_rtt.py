"""Tests for the RTT estimator."""

import pytest

from repro.quic.config import MIN_RTT_WINDOW
from repro.quic.rtt import RttEstimator


def test_initial_state():
    rtt = RttEstimator(initial_rtt=0.2)
    assert not rtt.has_samples
    assert rtt.min_rtt is None
    assert rtt.smoothed_or_initial() == 0.2


def test_first_sample_seeds_all_estimates():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.05, now=0.0)
    assert rtt.latest_rtt == 0.05
    assert rtt.smoothed_rtt == 0.05
    assert rtt.rtt_var == 0.025
    assert rtt.min_rtt == 0.05


def test_ewma_smoothing():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.100, now=0.0)
    rtt.update(0.200, now=0.1)
    # srtt = 7/8*0.1 + 1/8*0.2
    assert rtt.smoothed_rtt == pytest.approx(0.1125)


def test_min_rtt_tracks_minimum():
    rtt = RttEstimator(initial_rtt=0.1)
    for sample, t in [(0.08, 0.0), (0.05, 0.1), (0.09, 0.2)]:
        rtt.update(sample, now=t)
    assert rtt.min_rtt == 0.05


def test_min_rtt_window_expiry():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.05, now=0.0)
    rtt.update(0.08, now=MIN_RTT_WINDOW / 2)
    assert rtt.min_rtt == 0.05
    # Window expired; min resets to new sample.
    rtt.update(0.09, now=MIN_RTT_WINDOW + 1.0)
    assert rtt.min_rtt == 0.09


def test_ack_delay_subtracted_when_safe():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.100, now=0.0)
    rtt.update(0.150, ack_delay=0.040, now=0.1)
    # Adjusted sample = 0.110 >= min_rtt 0.100, so delay is honoured.
    assert rtt.smoothed_rtt == pytest.approx(0.875 * 0.100 + 0.125 * 0.110)


def test_ack_delay_ignored_when_below_min():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.100, now=0.0)
    rtt.update(0.105, ack_delay=0.050, now=0.1)
    # 0.105-0.050 < min_rtt, so the raw sample is used.
    assert rtt.smoothed_rtt == pytest.approx(0.875 * 0.100 + 0.125 * 0.105)


def test_pto_before_samples_uses_initial():
    rtt = RttEstimator(initial_rtt=0.25)
    assert rtt.pto() == pytest.approx(0.5)


def test_pto_formula():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.1, now=0.0)
    expected = 0.1 + max(4 * 0.05, 0.001) + 0.025
    assert rtt.pto() == pytest.approx(expected)


def test_loss_delay_fraction():
    rtt = RttEstimator(initial_rtt=0.1)
    rtt.update(0.08, now=0.0)
    rtt.update(0.16, now=0.1)
    assert rtt.loss_delay(9 / 8) == pytest.approx(9 / 8 * max(rtt.smoothed_rtt, 0.16))


def test_invalid_samples_rejected():
    rtt = RttEstimator(initial_rtt=0.1)
    with pytest.raises(ValueError):
        rtt.update(0.0)
    with pytest.raises(ValueError):
        RttEstimator(initial_rtt=0.0)
