"""Shared fixtures and event-building helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from evrotor import EventPeriod, SensorGeometry

# CI runs with --hypothesis-profile=ci: a failing example then prints the
# @reproduce_failure blob that replays it, and slow runners hit no deadline.
settings.register_profile("ci", print_blob=True, deadline=None)


SMALL = SensorGeometry(width=64, height=48)
VGA = SensorGeometry(width=640, height=480)


@pytest.fixture
def small_sensor():
    return SMALL


@pytest.fixture
def vga_sensor():
    return VGA


def make_period(rows, sensor=SMALL, t_start=0, duration=1000):
    """Build a period from (t, x, y, p) tuples."""
    rows = list(rows)
    if rows:
        t, x, y, p = (np.asarray(col) for col in zip(*rows))
    else:
        t = x = y = p = np.empty(0, dtype=np.int64)
    return EventPeriod(
        t=t, x=x, y=y, p=p, sensor=sensor, t_start=t_start, duration=duration
    )


def pair_events(t_pos, t_neg, x, y):
    """One positive and one negative event at the same pixel."""
    return [(t_pos, x, y, 1), (t_neg, x, y, 0)]


def block_pixels(x0, y0, w, h):
    return [(x, y) for y in range(y0, y0 + h) for x in range(x0, x0 + w)]
