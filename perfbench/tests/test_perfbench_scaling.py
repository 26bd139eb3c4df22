"""Host times are scaled to the reference host speed by the ticks around them."""

import pytest

from perfbench.hostspeed import MIN_WINDOW_S, TICK_S, HostSpeed, tick_work


def _speed(ticks):
    speed = HostSpeed()
    speed.ticks = list(ticks)
    return speed


def test_a_window_is_scaled_by_the_mean_speed_of_its_ticks():
    # Ticks at half the reference speed, then at the reference speed.
    speed = _speed([(0.5, 2 * TICK_S), (1.5, 2 * TICK_S), (2.5, TICK_S), (3.5, TICK_S)])
    assert speed.scaled(0.0, 4.0) == pytest.approx(4.0 * 0.75)
    assert speed.scaled(0.0, 2.0) == pytest.approx(1.0)


def test_a_short_window_is_widened_to_see_its_neighbours():
    speed = _speed([(10.0 - 0.4, 2 * TICK_S), (10.0 + 0.4, 2 * TICK_S), (20.0, TICK_S)])
    assert speed.scaled(10.0, 10.1) == pytest.approx(0.05)
    assert MIN_WINDOW_S > 0.8


def test_without_ticks_host_times_stand():
    assert _speed([]).scaled(1.0, 1.25) == 0.25


def test_ticks_leave_their_own_time_out_of_the_clock():
    readings = iter([0.0, 10.0, 10.002, 10.003, 20.0])
    speed = HostSpeed(clock=lambda: next(readings))
    assert speed.now() == 0.0
    speed.tick()  # entered at 10.0, worked until 10.002, left at 10.003
    assert speed.ticks == [(10.0, pytest.approx(0.002))]
    assert speed.now() == pytest.approx(20.0 - 0.003)


def test_tick_work_is_fixed():
    assert tick_work() == tick_work()
