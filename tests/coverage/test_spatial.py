"""Differential suite for the uniform-grid spatial index.

The index's whole contract is "indistinguishable from brute force, down
to the bit": same membership, same frozenset insertion order (hence the
same iteration order downstream), same detection probabilities.  These
tests compare the two paths across random layouts and the adversarial
geometries -- sensors exactly on cell boundaries, duplicate positions,
coincident sensor/target pairs, radii far smaller than typical spacing
-- plus the size gate, and whole coverage builds against the same
builds under the ``brute_coverage`` fixture.
"""

import numpy as np
import pytest

from repro.coverage.deployment import uniform_deployment
from repro.coverage.geometry import Point, Rectangle
from repro.coverage.matrix import coverage_sets, detection_probabilities
from repro.coverage.sensing import DiskSensingModel, ProbabilisticSensingModel
from repro.coverage.spatial import (
    SPATIAL_MIN_SENSORS,
    SpatialGridIndex,
    index_for,
    spatial_enabled,
)


def brute_covering(sensors, model, point):
    return frozenset(
        j for j, s in enumerate(sensors) if model.covers(s, point)
    )


def assert_bit_identical(indexed, brute):
    """Equal membership AND identical iteration (hash-layout) order."""
    assert indexed == brute
    assert list(indexed) == list(brute)


class TestDifferentialRandomLayouts:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("radius", [0.3, 1.0, 5.0])
    def test_random_layout_matches_brute(self, seed, radius):
        rng = np.random.default_rng(seed)
        deployment = uniform_deployment(
            150, num_targets=40, region=Rectangle.square(10.0), rng=rng
        )
        model = DiskSensingModel(radius=radius)
        index = SpatialGridIndex(deployment.sensors, model)
        for target in deployment.targets:
            indexed = index.covering_sensors(target)
            brute = brute_covering(deployment.sensors, model, target)
            assert_bit_identical(indexed, brute)

    def test_candidates_are_sorted_supersets(self):
        rng = np.random.default_rng(11)
        deployment = uniform_deployment(
            200, num_targets=30, region=Rectangle.square(8.0), rng=rng
        )
        model = DiskSensingModel(radius=0.9)
        index = SpatialGridIndex(deployment.sensors, model)
        for target in deployment.targets:
            candidates = index.candidates(target)
            assert candidates == sorted(candidates)
            assert set(candidates) >= brute_covering(
                deployment.sensors, model, target
            )

    def test_probabilistic_model_detection_map(self):
        rng = np.random.default_rng(5)
        deployment = uniform_deployment(
            120, num_targets=25, region=Rectangle.square(6.0), rng=rng
        )
        model = ProbabilisticSensingModel(radius=1.5, p0=0.9, beta=0.7)
        index = SpatialGridIndex(deployment.sensors, model)
        for target in deployment.targets:
            probs = index.detection_map(target)
            brute = {}
            for j, sensor in enumerate(deployment.sensors):
                p = model.detection_probability(sensor, target)
                if p > 0.0:
                    brute[j] = p
            assert probs == brute
            assert list(probs) == list(brute)  # same insertion order


class TestAdversarialGeometry:
    def test_sensors_exactly_on_cell_boundaries(self):
        # Radius 1.0 makes cell corners the integer lattice; place
        # sensors exactly on corners and edges, and query exactly there.
        model = DiskSensingModel(radius=1.0)
        sensors = [
            Point(float(x), float(y)) for x in range(5) for y in range(5)
        ]
        index = SpatialGridIndex(sensors, model)
        queries = sensors + [
            Point(1.5, 2.0),
            Point(2.0, 1.5),
            Point(0.0, 0.0),
            Point(4.0, 4.0),
        ]
        for q in queries:
            assert_bit_identical(
                index.covering_sensors(q), brute_covering(sensors, model, q)
            )

    def test_boundary_of_the_sensing_disk_itself(self):
        # A target at exactly radius distance is covered (<= + 1e-12
        # tolerance); the index must agree with brute force on it.
        model = DiskSensingModel(radius=2.0)
        sensors = [Point(0.0, 0.0), Point(10.0, 0.0)]
        sensors += [Point(float(i), 20.0) for i in range(70)]  # filler
        index = SpatialGridIndex(sensors, model)
        for q in [Point(2.0, 0.0), Point(8.0, 0.0), Point(12.0, 0.0)]:
            assert_bit_identical(
                index.covering_sensors(q), brute_covering(sensors, model, q)
            )

    def test_duplicate_sensor_positions(self):
        model = DiskSensingModel(radius=0.5)
        base = [Point(1.0, 1.0)] * 5 + [Point(3.0, 3.0)] * 3
        rng = np.random.default_rng(2)
        filler = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0.0, 5.0, size=(80, 2))
        ]
        sensors = base + filler
        index = SpatialGridIndex(sensors, model)
        for q in [Point(1.0, 1.0), Point(3.2, 3.0), Point(2.0, 2.0)]:
            assert_bit_identical(
                index.covering_sensors(q), brute_covering(sensors, model, q)
            )

    def test_target_coincident_with_sensor(self):
        model = DiskSensingModel(radius=0.25)
        rng = np.random.default_rng(9)
        sensors = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0.0, 4.0, size=(100, 2))
        ]
        index = SpatialGridIndex(sensors, model)
        for q in sensors[:10]:
            covering = index.covering_sensors(q)
            assert sensors.index(q) in covering
            assert_bit_identical(
                covering, brute_covering(sensors, model, q)
            )

    def test_tiny_radius_vs_spread_layout(self):
        # Reach smaller than any spacing: most queries hit nobody.
        model = DiskSensingModel(radius=1e-6)
        sensors = [Point(float(i), 0.0) for i in range(100)]
        index = SpatialGridIndex(sensors, model)
        for q in [Point(0.0, 0.0), Point(0.5, 0.0), Point(99.0, 0.0)]:
            assert_bit_identical(
                index.covering_sensors(q), brute_covering(sensors, model, q)
            )


class TestModeAndGating:
    def test_auto_off_below_threshold(self):
        model = DiskSensingModel(radius=1.0)
        small = [Point(float(i), 0.0) for i in range(SPATIAL_MIN_SENSORS - 1)]
        large = [Point(float(i), 0.0) for i in range(SPATIAL_MIN_SENSORS)]
        assert index_for(small, model) is None
        assert index_for(large, model) is not None
        assert not spatial_enabled(len(small), model)
        assert spatial_enabled(len(large), model)

    def test_unbounded_model_is_rejected(self):
        class Unbounded(DiskSensingModel):
            def max_radius(self):
                return None

        model = Unbounded(radius=1.0)
        sensors = [Point(float(i), 0.0) for i in range(200)]
        assert index_for(sensors, model) is None
        with pytest.raises(ValueError):
            SpatialGridIndex(sensors, model)

    def test_coverage_sets_identical_across_modes(self, brute_coverage):
        rng = np.random.default_rng(21)
        deployment = uniform_deployment(
            150, num_targets=30, region=Rectangle.square(7.0), rng=rng
        )
        model = DiskSensingModel(radius=1.2)
        assert index_for(deployment.sensors, model) is not None
        indexed = coverage_sets(deployment, model)
        brute_coverage()
        assert index_for(deployment.sensors, model) is None
        brute = coverage_sets(deployment, model)
        assert indexed == brute
        for a, b in zip(indexed, brute):
            assert list(a) == list(b)

    def test_detection_probabilities_identical_across_modes(
        self, brute_coverage
    ):
        rng = np.random.default_rng(22)
        deployment = uniform_deployment(
            130, num_targets=20, region=Rectangle.square(6.0), rng=rng
        )
        model = ProbabilisticSensingModel(radius=1.4, p0=0.8, beta=0.5)
        assert index_for(deployment.sensors, model) is not None
        indexed = detection_probabilities(deployment, model)
        brute_coverage()
        assert index_for(deployment.sensors, model) is None
        brute = detection_probabilities(deployment, model)
        assert indexed == brute
