"""Rescaling of wall-clock stretches by the host-speed probes.

    python3 -m pytest perfbench/test_hostspeed.py
"""

import pytest

import worker


@pytest.fixture
def speed(monkeypatch):
    monkeypatch.setattr(worker, "PROBE_REF_S", 0.001)
    return worker.HostSpeed()


def test_probe_time_is_left_out_at_reference_speed(speed):
    speed.probes = [(0.0, 0.001), (1.001, 1.002), (2.002, 2.003)]
    assert speed.rescaled(0.0, 2.003) == pytest.approx(2.0)


def test_gap_runs_at_the_mean_speed_of_its_two_probes(speed):
    speed.probes = [(0.0, 0.001), (1.001, 1.003)]
    assert speed.rescaled(0.0, 1.003) == pytest.approx(0.75)


def test_edges_take_the_speed_of_the_nearest_probe(speed):
    speed.probes = [(1.0, 1.002), (2.002, 2.003)]
    assert speed.rescaled(0.0, 1.0) == pytest.approx(0.5)
    assert speed.rescaled(2.003, 3.003) == pytest.approx(1.0)
    assert speed.rescaled(1.502, 2.503) == pytest.approx(0.5 * 0.75 + 0.5)
