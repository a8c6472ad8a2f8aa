"""Tests for seeded deployments."""

import numpy as np
import pytest

from repro.coverage.deployment import Deployment, make_rng, uniform_deployment
from repro.coverage.geometry import Point, Rectangle


class TestMakeRng:
    def test_int_seed(self):
        assert isinstance(make_rng(5), np.random.Generator)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeployment:
    def test_counts(self):
        d = uniform_deployment(10, 3, rng=1)
        assert d.num_sensors == 10
        assert d.num_targets == 3

    def test_points_inside_region(self):
        d = uniform_deployment(50, 20, rng=2)
        assert all(d.region.contains(p) for p in d.sensors)
        assert all(d.region.contains(p) for p in d.targets)

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError, match="outside region"):
            Deployment(Rectangle.square(10), (Point(11, 5),))

    def test_seeded_reproducibility(self):
        a = uniform_deployment(20, 5, rng=42)
        b = uniform_deployment(20, 5, rng=42)
        assert a.sensors == b.sensors
        assert a.targets == b.targets

    def test_different_seeds_differ(self):
        a = uniform_deployment(20, 5, rng=1)
        b = uniform_deployment(20, 5, rng=2)
        assert a.sensors != b.sensors

    def test_with_targets(self):
        d = uniform_deployment(5, 0, rng=1)
        d2 = d.with_targets([Point(1, 1)])
        assert d2.num_targets == 1
        assert d2.sensors == d.sensors

    def test_arrays(self):
        d = uniform_deployment(4, 2, rng=3)
        assert d.sensor_array().shape == (4, 2)
        assert d.target_array().shape == (2, 2)

    def test_empty_arrays_shaped(self):
        d = uniform_deployment(0, 0, rng=3)
        assert d.sensor_array().shape == (0, 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            uniform_deployment(-1)
