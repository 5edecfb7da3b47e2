"""Speed normalisation arithmetic on synthetic samples.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def speedometer(times, speeds):
    s = speed.Speedometer()
    s.times = array("d", times)
    s.speeds = array("d", speeds)
    return s


def test_nominal_is_duration_times_mean_speed_inside():
    s = speedometer([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.5, 1.0])
    assert s.nominal(1.5, 3.5) == pytest.approx(2.0 * 0.5)
    assert s.nominal(0.0, 4.0) == pytest.approx(4.0 * 0.75)


def test_interval_without_samples_takes_its_neighbours():
    s = speedometer([1.0, 2.0], [1.0, 0.5])
    assert s.nominal(1.2, 1.8) == pytest.approx(0.6 * 0.75)
    assert s.nominal(5.0, 6.0) == pytest.approx(1.0 * 0.5)


def test_splice_replaces_the_samples_inside_the_window():
    s = speedometer([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    s.splice(1.5, 3.5, {"t": [2.5], "v": [0.25]})
    assert list(s.times) == [1.0, 2.5, 4.0]
    assert list(s.speeds) == [1.0, 0.25, 1.0]
    assert s.nominal(2.0, 3.0) == pytest.approx(0.25)


def test_sampler_records_while_running():
    s = speed.Speedometer()
    s.start()
    try:
        end = speed.time.perf_counter() + 0.1
        while speed.time.perf_counter() < end:
            pass
    finally:
        s.stop()
    assert len(s.times) >= 5
    assert all(v > 0 for v in s.speeds)
