"""Multi-target utility system (paper Sec. II-C/II-D, Eq. 1).

A WSN monitors targets ``O_1 .. O_m``; sensor ``v_j`` can monitor
``O_i`` iff ``a_ij = 1`` (equivalently ``v_j in V(O_i)``).  The per-slot
utility of an active set ``S`` is

.. math:: U(S) = \\sum_{i=1}^{m} U_i\\bigl(S \\cap V(O_i)\\bigr),

where every ``U_i`` is normalized, non-decreasing and submodular, and
possibly different per target.  The sum of restrictions of submodular
functions is submodular, so the overall per-slot utility satisfies the
same assumptions -- the fact the paper leans on when invoking
Algorithm 1 for the multi-target case.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.utility.base import SensorSet, UtilityFunction, as_sensor_set
from repro.utility.detection import DetectionUtility


class TargetSystem(UtilityFunction):
    """Targets, the coverage relation and the summed utility of Eq. 1.

    Parameters
    ----------
    coverage_sets:
        ``coverage_sets[i]`` is ``V(O_i)`` -- the ids of sensors able to
        monitor target ``i``.  Targets are indexed ``0 .. m-1``.
    target_utilities:
        ``target_utilities[i]`` is ``U_i``.  Each ``U_i`` is evaluated
        on ``S & V(O_i)`` (the intersection is applied here, so ``U_i``
        itself may have a wider ground set).
    """

    def __init__(
        self,
        coverage_sets: Sequence[Iterable[int]],
        target_utilities: Sequence[UtilityFunction],
    ):
        if len(coverage_sets) != len(target_utilities):
            raise ValueError(
                f"{len(coverage_sets)} coverage sets but "
                f"{len(target_utilities)} utilities"
            )
        self._coverage: Tuple[SensorSet, ...] = tuple(
            as_sensor_set(s) for s in coverage_sets
        )
        self._utilities: Tuple[UtilityFunction, ...] = tuple(target_utilities)
        ground: set = set()
        for cover in self._coverage:
            ground |= cover
        self._ground: SensorSet = frozenset(ground)
        # Inverted index: targets each sensor can monitor.  Marginal-gain
        # queries then only touch the targets the candidate sensor covers.
        targets_of: Dict[int, list] = {v: [] for v in self._ground}
        for target_id, cover in enumerate(self._coverage):
            for v in cover:
                targets_of[v].append(target_id)
        self._targets_of_sensor = {v: tuple(ts) for v, ts in targets_of.items()}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def homogeneous_detection(
        cls,
        coverage_sets: Sequence[Iterable[int]],
        p: float,
    ) -> "TargetSystem":
        """All targets share the detection utility with probability ``p``.

        This is the configuration of the paper's evaluation (Sec. VI-B,
        ``p = 0.4``): ``U_i(S) = 1 - (1-p)^{|S & V(O_i)|}``.
        """
        utilities = [
            DetectionUtility({v: p for v in as_sensor_set(cover)})
            for cover in coverage_sets
        ]
        return cls(coverage_sets, utilities)

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        target_utilities: Sequence[UtilityFunction],
    ) -> "TargetSystem":
        """Build from the indicator matrix ``a`` with ``a[i, j] = 1`` iff
        sensor ``j`` covers target ``i`` (paper Sec. IV-A-1)."""
        a = np.asarray(matrix)
        if a.ndim != 2:
            raise ValueError(f"coverage matrix must be 2-D, got shape {a.shape}")
        coverage_sets = [frozenset(np.flatnonzero(row).tolist()) for row in a]
        return cls(coverage_sets, target_utilities)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def num_targets(self) -> int:
        return len(self._coverage)

    @property
    def ground_set(self) -> SensorSet:
        return self._ground

    def coverage_set(self, target: int) -> SensorSet:
        """``V(O_i)``: sensors able to monitor target ``target``."""
        return self._coverage[target]

    def target_utility(self, target: int) -> UtilityFunction:
        return self._utilities[target]

    def targets_of(self, sensor: int) -> Tuple[int, ...]:
        """Targets that sensor ``sensor`` can monitor."""
        return self._targets_of_sensor.get(sensor, ())

    def coverage_matrix(self, num_sensors: int | None = None) -> np.ndarray:
        """The ``a_ij`` indicator matrix, shape ``(m, n)``."""
        if num_sensors is None:
            num_sensors = (max(self._ground) + 1) if self._ground else 0
        a = np.zeros((self.num_targets, num_sensors), dtype=np.int8)
        for target_id, cover in enumerate(self._coverage):
            for v in cover:
                if v < num_sensors:
                    a[target_id, v] = 1
        return a

    def uncoverable_targets(self) -> FrozenSet[int]:
        """Targets with an empty ``V(O_i)`` -- no sensor can ever cover them."""
        return frozenset(
            i for i, cover in enumerate(self._coverage) if not cover
        )

    # ------------------------------------------------------------------
    # Utility evaluation (Eq. 1)
    # ------------------------------------------------------------------

    def target_value(self, target: int, sensors: Iterable[int]) -> float:
        """``U_i(S & V(O_i))`` for a single target."""
        active = as_sensor_set(sensors) & self._coverage[target]
        return self._utilities[target].value(active)

    def value(self, sensors: Iterable[int]) -> float:
        active = as_sensor_set(sensors)
        return sum(
            self._utilities[i].value(active & self._coverage[i])
            for i in range(self.num_targets)
        )

    def per_target_values(self, sensors: Iterable[int]) -> np.ndarray:
        """Vector of ``U_i(S & V(O_i))`` for all targets."""
        active = as_sensor_set(sensors)
        return np.array(
            [
                self._utilities[i].value(active & self._coverage[i])
                for i in range(self.num_targets)
            ]
        )

    def marginal(self, sensor: int, base: Iterable[int]) -> float:
        base_set = as_sensor_set(base)
        if sensor in base_set:
            return 0.0
        gain = 0.0
        for target_id in self._targets_of_sensor.get(sensor, ()):
            cover = self._coverage[target_id]
            gain += self._utilities[target_id].marginal(sensor, base_set & cover)
        return gain


class PerSlotUtility:
    """Utility of a full schedule: one (possibly distinct) function per slot.

    The greedy analysis (Lemma 4.1) works with a *time-expanded* utility
    where the slot-``i`` function is replaced by a residual after each
    assignment.  This class is the container the schedulers manipulate:
    ``slot_fn(t)`` returns the utility in force at slot ``t``.
    """

    def __init__(self, slot_functions: Sequence[UtilityFunction]):
        if not slot_functions:
            raise ValueError("need at least one slot")
        self._slots: Tuple[UtilityFunction, ...] = tuple(slot_functions)

    @classmethod
    def uniform(cls, fn: UtilityFunction, num_slots: int) -> "PerSlotUtility":
        """Same utility in every slot -- the paper's stationary setting."""
        if num_slots <= 0:
            raise ValueError(f"num_slots must be positive, got {num_slots}")
        return cls([fn] * num_slots)

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    def slot_fn(self, slot: int) -> UtilityFunction:
        return self._slots[slot]

    def with_slot(self, slot: int, fn: UtilityFunction) -> "PerSlotUtility":
        """Return a copy with slot ``slot`` replaced by ``fn``."""
        slots = list(self._slots)
        slots[slot] = fn
        return PerSlotUtility(slots)

    def total(self, assignment: Mapping[int, Iterable[int]]) -> float:
        """Total utility of ``{slot: active sensors}`` over all slots."""
        return sum(
            self._slots[t].value(assignment.get(t, frozenset()))
            for t in range(self.num_slots)
        )
