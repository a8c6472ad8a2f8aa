"""Uniform-grid spatial index over sensor positions (fleet scale).

Brute-force coverage construction tests every (target, sensor) pair --
``O(n * m)`` calls through :meth:`SensingModel.covers` -- which tops out
around 10^3 sensors.  The sensing models here have *bounded reach* (a
sensor can never cover a point farther than its sensing radius), so a
point's covering sensors all live in a small neighbourhood.  This module
exploits that with the classic uniform grid: hash every sensor into a
square cell whose side is the model's maximum sensing radius, and answer
"who can cover this point?" by scanning only the nearby cells.

Bit-exactness contract
----------------------
The indexed path must be indistinguishable from brute force, down to the
bit.  Three properties make that hold:

1. **Superset candidates.**  The scanned neighbourhood is sized from
   ``max_radius + 1e-12`` (the models' own boundary tolerance), so every
   sensor that could possibly cover the query point is among the
   candidates.  Missing a candidate would silently change results;
   extra candidates are merely filtered out by ``covers``.
2. **Ascending-id filtering.**  Brute force iterates sensors ``j = 0..
   n-1`` and inserts covering ids into a ``frozenset`` in that order.
   Hash-table layout -- and therefore iteration order everywhere
   downstream (see :mod:`repro.utility.incremental`'s contract) --
   depends on insertion order, so :meth:`SpatialGridIndex.candidates`
   returns ids **sorted ascending** and the filter preserves that
   order.  Identical membership + identical insertion sequence =
   bit-identical frozensets.
3. **Same predicate.**  Candidates are accepted by the *same*
   ``model.covers`` / ``model.detection_probability`` calls the brute
   force makes; the index never re-derives geometry.

The index serves every fleet of at least :data:`SPATIAL_MIN_SENSORS`
sensors under a model with a finite
:meth:`~repro.coverage.sensing.SensingModel.max_radius`.  Smaller
fleets (the build cost cannot win) and unbounded models take the brute
force scan, which is also the reference the differential tests compare
the index against.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.coverage.geometry import Point
from repro.coverage.sensing import SensingModel
from repro.obs.registry import get_registry

#: Below this sensor count the grid build costs more than it saves.
SPATIAL_MIN_SENSORS = 64


def spatial_enabled(num_sensors: int, model: SensingModel) -> bool:
    """Whether the indexed path applies for this (size, model) pair."""
    if num_sensors < SPATIAL_MIN_SENSORS:
        return False
    return model.max_radius() is not None


class SpatialGridIndex:
    """Uniform grid over sensor positions with ascending-id queries.

    Parameters
    ----------
    sensors:
        Sensor positions; index ``j`` in this sequence is the sensor id
        used everywhere else (schedules, coverage sets).
    model:
        The sensing model; supplies the reach bound (cell size) and the
        coverage predicate.
    """

    def __init__(self, sensors: Sequence[Point], model: SensingModel):
        radius = model.max_radius()
        if radius is None:
            raise ValueError(
                f"{type(model).__name__} has unbounded reach; "
                "a spatial index needs a finite max_radius()"
            )
        if radius <= 0:
            raise ValueError(f"max_radius must be positive, got {radius}")
        self.model = model
        self.sensors = list(sensors)
        #: Boundary tolerance of the sensing models' ``covers``.
        self._reach = float(radius) + 1e-12
        self.cell_size = float(radius)
        # How many cells the reach can straddle: normally 1, but tiny
        # radii (reach > cell) or float rounding get the safe ceiling.
        self._span = max(1, int(math.ceil(self._reach / self.cell_size)))
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        for j, sensor in enumerate(self.sensors):
            self._cells.setdefault(self._key(sensor.x, sensor.y), []).append(j)
        registry = get_registry()
        registry.counter(
            "repro_spatial_index_builds_total",
            "Spatial grid indexes constructed",
        ).inc()
        self._m_queries = registry.counter(
            "repro_spatial_queries_total", "Point queries answered by the index"
        )
        self._m_candidates = registry.counter(
            "repro_spatial_candidates_total",
            "Candidate sensors examined by indexed queries",
        )
        self._m_pruned = registry.counter(
            "repro_spatial_pruned_total",
            "Sensors skipped by indexed queries vs. brute force",
        )

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (
            int(math.floor(x / self.cell_size)),
            int(math.floor(y / self.cell_size)),
        )

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def candidates(self, point: Point) -> List[int]:
        """Sensor ids near ``point``, **sorted ascending**.

        A superset of the sensors covering the point: everything in the
        ``(2 * span + 1)``-cell neighbourhood of the point's cell.
        """
        cx, cy = self._key(point.x, point.y)
        span = self._span
        found: List[int] = []
        for gx in range(cx - span, cx + span + 1):
            for gy in range(cy - span, cy + span + 1):
                bucket = self._cells.get((gx, gy))
                if bucket:
                    found.extend(bucket)
        found.sort()
        self._m_queries.inc()
        self._m_candidates.inc(len(found))
        self._m_pruned.inc(len(self.sensors) - len(found))
        return found

    def covering_sensors(self, point: Point) -> FrozenSet[int]:
        """``V(point)``: ids of sensors whose region contains the point.

        Bit-identical to the brute-force frozenset: candidates are
        filtered through the same ``covers`` predicate in ascending-id
        order (see the module docstring).
        """
        model = self.model
        sensors = self.sensors
        return frozenset(
            j for j in self.candidates(point) if model.covers(sensors[j], point)
        )

    def detection_map(self, point: Point) -> Dict[int, float]:
        """``{sensor: p}`` for sensors with positive detection probability.

        Mirrors the brute-force map in :func:`~repro.coverage.matrix.
        detection_probabilities` bit-for-bit: same probability calls,
        ascending-id insertion order.
        """
        model = self.model
        sensors = self.sensors
        probs: Dict[int, float] = {}
        for j in self.candidates(point):
            p = model.detection_probability(sensors[j], point)
            if p > 0.0:
                probs[j] = p
        return probs


def index_for(
    sensors: Sequence[Point], model: SensingModel
) -> Optional[SpatialGridIndex]:
    """Build an index iff the indexed path applies, else ``None``.

    The single gate :mod:`repro.coverage.matrix` calls: it folds
    together the size threshold and the model's reach bound, so callers
    need no policy of their own.
    """
    if not spatial_enabled(len(sensors), model):
        return None
    return SpatialGridIndex(sensors, model)

