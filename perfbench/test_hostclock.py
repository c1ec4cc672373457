"""Tests of the host-speed calibration (perfbench.hostclock)."""

import time

import pytest

from perfbench import hostclock
from perfbench.hostclock import HostClock


def test_typical_drops_the_extreme_tenths():
    blocks = [1.0] * 8 + [0.0, 100.0]
    assert hostclock.typical(blocks) == 1.0


def test_uncalibrated_clock_is_wall_time():
    clock = HostClock(calibrate=False)
    clock.start()
    time.sleep(0.03)
    clock.tick()
    clock.stop()
    assert clock.blocks == []
    assert clock.factor == 1.0
    assert clock.busy_s >= 0.03


def test_blocks_are_left_out_of_loop_time(monkeypatch):
    # Every block "takes" twice the reference time: the host runs at half
    # speed, so loop time scales by one half, and block time is not in it.
    monkeypatch.setattr(hostclock, "block_seconds", lambda: 2 * hostclock.REFERENCE_BLOCK_S)
    clock = HostClock()
    clock.start()
    for _ in range(3):
        time.sleep(hostclock.INTERVAL_S)
        clock.tick()
    clock.stop()
    assert len(clock.blocks) == 5  # one before the loop, one per stretch
    assert clock.factor == pytest.approx(0.5)
    assert clock.busy_s >= 3 * hostclock.INTERVAL_S
    assert clock.block_ms() == pytest.approx(2e3 * hostclock.REFERENCE_BLOCK_S)
