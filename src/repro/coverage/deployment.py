"""Seeded deployments of sensors and targets in a 2-D region.

The paper deploys sensors over a region and monitors either discrete
targets (red hexagons in Fig. 3a) or the whole region.  Evaluation runs
use 100-500 sensors and 1-50 targets (Sec. VI-B, Fig. 8/9).  All
generators here take an explicit :class:`numpy.random.Generator` (or an
int seed) so every experiment is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.coverage.geometry import Point, Rectangle

RngLike = Union[int, np.random.Generator, None]


def make_rng(rng: RngLike) -> np.random.Generator:
    """Coerce an int seed / Generator / None into a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class Deployment:
    """Sensor and target positions inside a region.

    Attributes
    ----------
    region:
        The deployment region Omega.
    sensors:
        Sensor positions; sensor ``i``'s id is its index.
    targets:
        Target positions; target ``i``'s id is its index.  Empty for
        region-monitoring scenarios.
    """

    region: Rectangle
    sensors: Tuple[Point, ...]
    targets: Tuple[Point, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for kind, points in (("sensor", self.sensors), ("target", self.targets)):
            for i, p in enumerate(points):
                if not self.region.contains(p):
                    raise ValueError(
                        f"{kind} {i} at ({p.x}, {p.y}) is outside region {self.region}"
                    )

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    def with_targets(self, targets: Sequence[Point]) -> "Deployment":
        return Deployment(self.region, self.sensors, tuple(targets))

    def sensor_array(self) -> np.ndarray:
        """Sensor coordinates as an ``(n, 2)`` array."""
        return np.array([[p.x, p.y] for p in self.sensors]).reshape(-1, 2)

    def target_array(self) -> np.ndarray:
        """Target coordinates as an ``(m, 2)`` array."""
        return np.array([[p.x, p.y] for p in self.targets]).reshape(-1, 2)


def _uniform_points(
    region: Rectangle, count: int, rng: np.random.Generator
) -> List[Point]:
    xs = rng.uniform(region.x_min, region.x_max, size=count)
    ys = rng.uniform(region.y_min, region.y_max, size=count)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


def uniform_deployment(
    num_sensors: int,
    num_targets: int = 0,
    region: Rectangle | None = None,
    rng: RngLike = None,
) -> Deployment:
    """Sensors and targets i.i.d. uniform over the region.

    This is the standard random-deployment assumption for rooftop /
    forest monitoring scenarios (paper Sec. I) and what we use to drive
    the Fig. 8 and Fig. 9 reproductions.
    """
    if num_sensors < 0 or num_targets < 0:
        raise ValueError("counts must be non-negative")
    region = region or Rectangle.square(100.0)
    generator = make_rng(rng)
    sensors = _uniform_points(region, num_sensors, generator)
    targets = _uniform_points(region, num_targets, generator)
    return Deployment(region, tuple(sensors), tuple(targets))

