"""Planar geometry primitives for sensing-coverage computations.

Minimal, dependency-free 2-D geometry: points, axis-aligned rectangles
(the region Omega in Fig. 3b is "a large rectangle area") and disks
(the canonical convex sensing region ``R(v_i)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Point:
    """A point in the plane."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(
                f"degenerate rectangle: ({self.x_min}, {self.y_min}) .. "
                f"({self.x_max}, {self.y_max})"
            )

    @classmethod
    def square(cls, side: float) -> "Rectangle":
        """The square ``[0, side]^2`` -- the default deployment region."""
        return cls(0.0, 0.0, side, side)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)

    def contains(self, p: Point) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max


@dataclass(frozen=True)
class Disk:
    """Closed disk: the sensing region of a fixed-power sensor (Sec. II-A)."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"disk radius must be non-negative, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def contains(self, p: Point) -> bool:
        return self.center.distance_to(p) <= self.radius + 1e-12

    def bounding_box(self) -> Rectangle:
        return Rectangle(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )


def disks_intersect(a: Disk, b: Disk) -> bool:
    """True iff the two closed disks share at least one point."""
    return a.center.distance_to(b.center) <= a.radius + b.radius + 1e-12


def circle_intersections(a: Disk, b: Disk) -> List[Point]:
    """Intersection points of the two disk *boundaries* (0, 1 or 2 points).

    Used by the arrangement refinement to seed sample points near cell
    boundaries, where uniform sampling is least accurate.
    """
    d = a.center.distance_to(b.center)
    if d == 0.0:
        return []  # concentric: no isolated intersection points
    if d > a.radius + b.radius or d < abs(a.radius - b.radius):
        return []
    # Distance from a.center to the line through the intersection points.
    along = (a.radius**2 - b.radius**2 + d**2) / (2 * d)
    h_sq = a.radius**2 - along**2
    if h_sq < 0:
        h_sq = 0.0
    h = math.sqrt(h_sq)
    ux = (b.center.x - a.center.x) / d
    uy = (b.center.y - a.center.y) / d
    mid = Point(a.center.x + along * ux, a.center.y + along * uy)
    if h == 0.0:
        return [mid]
    return [
        Point(mid.x - h * uy, mid.y + h * ux),
        Point(mid.x + h * uy, mid.y - h * ux),
    ]
