"""Tests for planar geometry primitives."""

import math

import pytest

from repro.coverage.geometry import (
    Disk,
    Point,
    Rectangle,
    circle_intersections,
    disks_intersect,
    distance,
)


class TestPoint:
    def test_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_distance_symmetric(self):
        a, b = Point(1, 2), Point(-3, 7)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_translated(self):
        assert Point(1, 1).translated(2, -1) == Point(3, 0)

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)


class TestRectangle:
    def test_square_constructor(self):
        r = Rectangle.square(10)
        assert r.width == 10 and r.height == 10 and r.area == 100

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Rectangle(0, 0, -1, 5)

    def test_contains_boundary(self):
        r = Rectangle.square(10)
        assert r.contains(Point(0, 0))
        assert r.contains(Point(10, 10))
        assert not r.contains(Point(10.01, 5))

    def test_center(self):
        assert Rectangle(0, 0, 10, 20).center == Point(5, 10)


class TestDisk:
    def test_area(self):
        assert Disk(Point(0, 0), 2.0).area == pytest.approx(4 * math.pi)

    def test_contains(self):
        d = Disk(Point(0, 0), 1.0)
        assert d.contains(Point(0.5, 0.5))
        assert d.contains(Point(1.0, 0.0))  # boundary is inside (closed disk)
        assert not d.contains(Point(1.1, 0.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Disk(Point(0, 0), -1.0)

    def test_bounding_box(self):
        box = Disk(Point(5, 5), 2.0).bounding_box()
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == (3, 3, 7, 7)


class TestDiskIntersection:
    def test_overlapping(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(1.5, 0), 1.0)
        assert disks_intersect(a, b)

    def test_tangent(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(2.0, 0), 1.0)
        assert disks_intersect(a, b)

    def test_disjoint(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(3.0, 0), 1.0)
        assert not disks_intersect(a, b)

    def test_intersection_points_two(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(1.0, 0), 1.0)
        pts = circle_intersections(a, b)
        assert len(pts) == 2
        for p in pts:
            assert a.center.distance_to(p) == pytest.approx(1.0)
            assert b.center.distance_to(p) == pytest.approx(1.0)

    def test_intersection_points_tangent(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(2.0, 0), 1.0)
        pts = circle_intersections(a, b)
        assert len(pts) == 1
        assert pts[0] == Point(1.0, 0.0)

    def test_intersection_points_disjoint(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(5.0, 0), 1.0)
        assert circle_intersections(a, b) == []

    def test_intersection_points_contained(self):
        a = Disk(Point(0, 0), 5.0)
        b = Disk(Point(0.5, 0), 1.0)
        assert circle_intersections(a, b) == []

    def test_concentric(self):
        a = Disk(Point(0, 0), 2.0)
        b = Disk(Point(0, 0), 1.0)
        assert circle_intersections(a, b) == []
