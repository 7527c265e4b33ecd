import gc
import threading
import time

import pytest

import spine_paths  # noqa: F401  (puts the harness and src/ on sys.path)

from spinebench import probe

UNIT = probe.NOMINAL_UNIT_S


def test_a_stretch_is_scaled_by_the_samples_inside_it():
    at = [0.0, 1.0, 2.0, 3.0]
    took = [1 * UNIT, 2 * UNIT, 3 * UNIT, 4 * UNIT]
    readings = probe.slowness(at, took, starts=[0.9, -0.1], ends=[2.1, 3.1])
    assert readings.tolist() == pytest.approx([2.5, 2.5])  # samples 1..2, then all four


def test_a_short_stretch_takes_the_window_about_its_middle():
    at = [0.0, 0.2, 0.4, 0.6, 0.8]
    took = [UNIT, UNIT, 3 * UNIT, UNIT, UNIT]
    # 1 ms at 0.4: widened to MIN_WINDOW_S = 0.5, it holds the samples at 0.2, 0.4, 0.6
    (reading,) = probe.slowness(at, took, starts=[0.4], ends=[0.401])
    assert reading == pytest.approx(5.0 / 3.0)


def test_a_stretch_beside_every_sample_takes_the_nearest():
    at, took = [10.0, 20.0], [2 * UNIT, 4 * UNIT]
    readings = probe.slowness(at, took, starts=[0.0, 14.0, 30.0], ends=[1.0, 15.0, 31.0])
    assert readings.tolist() == pytest.approx([2.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        probe.slowness([], [], [0.0], [1.0])


def test_a_live_sampler_may_be_one_duration_ahead_of_its_timestamps():
    assert probe.slowness([0.0], [UNIT, 9 * UNIT], [0.0], [1.0]).tolist() == pytest.approx([1.0])


def test_the_unit_sets_off_no_collection():
    """A unit that made tracked objects would now and then pay for a full
    collection of the benchmark's heap, and read 20-50 ms for 0.9."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        probe.unit()
        assert gc.get_count()[0] - before <= 2  # the dict, and slack for the frame
    finally:
        gc.enable()


def test_the_sampler_samples_and_stops():
    before = set(threading.enumerate())
    ticks = iter(range(10**6))
    sampler = probe.Sampler(clock=lambda: float(next(ticks))).start()
    deadline = time.monotonic() + 5.0
    while len(sampler.readings()) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    sampler.stop()
    assert len(sampler.readings()) >= 3
    assert set(threading.enumerate()) == before
    # the fake clock advances one second per reading: every unit "took" 1 s
    assert sampler.slowness([0.0], [1e6]).tolist() == pytest.approx([1.0 / UNIT])
