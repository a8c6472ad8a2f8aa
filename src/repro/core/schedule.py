"""Schedule data types and feasibility checks (paper Sec. II-B, Fig. 5).

Two representations:

- :class:`PeriodicSchedule` -- the within-one-period assignment the
  solvers produce.  For rho >= 1 it maps each sensor to its single
  ACTIVE slot in ``0..T-1`` (Algorithm 1's output); for rho <= 1 it
  maps each sensor to its single PASSIVE slot (Sec. IV-B's output) and
  the sensor is active in the other ``T-1`` slots.
- :class:`UnrolledSchedule` -- explicit per-slot active sets over the
  full working time ``L``, produced by unrolling a periodic schedule
  ``alpha`` times (Thm. 4.3: repeating the one-period greedy schedule
  preserves both feasibility and the 1/2-approximation) or directly by
  the LP rounding.

Feasibility (the IP's third constraint, Sec. IV-A-1): for rho >= 1, in
every window of ``T`` *consecutive* slots each sensor is active at most
once.  For rho <= 1 the sliding-window form is: in every window of
``T`` consecutive slots each sensor is passive at least once.  The
simulator additionally enforces exact battery accounting; these checks
are the combinatorial necessary-and-sufficient condition under the
paper's full-charge activation rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.energy.period import ChargingPeriod
from repro.utility.base import UtilityFunction


class InfeasibleScheduleError(ValueError):
    """Raised when a schedule violates the per-period activation budget."""


class ScheduleMode(Enum):
    """Which slot the per-sensor assignment denotes."""

    ACTIVE_SLOT = "active"  # rho >= 1: the single slot the sensor is ON
    PASSIVE_SLOT = "passive"  # rho <= 1: the single slot the sensor is OFF


@dataclass(frozen=True)
class PeriodicSchedule:
    """One-period assignment, repeated across the working time.

    Attributes
    ----------
    slots_per_period:
        ``T`` in slots.
    assignment:
        sensor id -> slot index in ``0..T-1``.  Sensors absent from the
        mapping are *never activated* in ACTIVE_SLOT mode (allowed: the
        LP repair may deactivate sensors) and *always active* in
        PASSIVE_SLOT mode is NOT allowed -- every sensor needs a passive
        slot to recharge, so PASSIVE_SLOT mode requires a total map.
    mode:
        Whether ``assignment`` holds active slots (rho >= 1) or passive
        slots (rho <= 1).
    """

    slots_per_period: int
    assignment: Mapping[int, int]
    mode: ScheduleMode = ScheduleMode.ACTIVE_SLOT

    def __post_init__(self) -> None:
        if self.slots_per_period < 1:
            raise ValueError(
                f"slots_per_period must be >= 1, got {self.slots_per_period}"
            )
        object.__setattr__(self, "assignment", dict(self.assignment))
        for sensor, slot in self.assignment.items():
            if not 0 <= slot < self.slots_per_period:
                raise InfeasibleScheduleError(
                    f"sensor {sensor} assigned to slot {slot}, outside "
                    f"0..{self.slots_per_period - 1}"
                )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def scheduled_sensors(self) -> FrozenSet[int]:
        """Sensors with an assigned slot."""
        return frozenset(self.assignment)

    def slot_of(self, sensor: int) -> int | None:
        """The assigned slot of ``sensor`` (active or passive per mode)."""
        return self.assignment.get(sensor)

    def active_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Active sensor set for each slot ``0..T-1`` of the period.

        Built on first use and kept: the assignment is copied at
        construction and never mutated, so every later call returns the
        same tuple of the same frozenset objects.  A simulation that
        replays the period therefore sees one object per slot, whose
        hash is computed once.
        """
        sets = self.__dict__.get("_active_sets")
        if sets is None:
            sets = self._build_active_sets()
            object.__setattr__(self, "_active_sets", sets)
        return sets

    def _build_active_sets(self) -> Tuple[FrozenSet[int], ...]:
        sets: List[set] = [set() for _ in range(self.slots_per_period)]
        if self.mode is ScheduleMode.ACTIVE_SLOT:
            for sensor, slot in self.assignment.items():
                sets[slot].add(sensor)
        else:
            all_sensors = set(self.assignment)
            for slot in range(self.slots_per_period):
                sets[slot] = {
                    v for v in all_sensors if self.assignment[v] != slot
                }
        return tuple(frozenset(s) for s in sets)

    def active_set(self, slot: int) -> FrozenSet[int]:
        """Active set at an absolute slot (wraps around the period)."""
        return self.active_sets()[slot % self.slots_per_period]

    def __getstate__(self) -> Dict:
        # Pickle only the fields: the derived sets are rebuilt on demand.
        state = dict(self.__dict__)
        state.pop("_active_sets", None)
        return state

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------

    def period_utility(self, utility: UtilityFunction) -> float:
        """Total utility over one period: ``sum_t U(S_t)``."""
        return sum(utility.value(s) for s in self.active_sets())

    def average_slot_utility(self, utility: UtilityFunction) -> float:
        """Mean per-slot utility over the period."""
        return self.period_utility(utility) / self.slots_per_period

    def total_utility(self, utility: UtilityFunction, num_periods: int = 1) -> float:
        """Total over ``L = alpha T`` slots of periodic repetition."""
        if num_periods < 1:
            raise ValueError(f"num_periods must be >= 1, got {num_periods}")
        return num_periods * self.period_utility(utility)

    # ------------------------------------------------------------------
    # Unrolling (Fig. 5: repeat the same schedule in each period)
    # ------------------------------------------------------------------

    def unroll(self, num_periods: int) -> "UnrolledSchedule":
        """Repeat the period ``alpha`` times (the Fig. 5 construction)."""
        if num_periods < 1:
            raise ValueError(f"num_periods must be >= 1, got {num_periods}")
        per_period = self.active_sets()
        return UnrolledSchedule(
            slots_per_period=self.slots_per_period,
            active_sets=tuple(per_period) * num_periods,
            rho_at_most_one=(self.mode is ScheduleMode.PASSIVE_SLOT),
        )

    def __str__(self) -> str:
        per_slot = ", ".join(
            f"t{slot}:{sorted(s)}" for slot, s in enumerate(self.active_sets())
        )
        return f"PeriodicSchedule[{self.mode.value}]({per_slot})"


@dataclass(frozen=True)
class UnrolledSchedule:
    """Explicit per-slot active sets over the whole working time ``L``."""

    slots_per_period: int
    active_sets: Tuple[FrozenSet[int], ...]
    rho_at_most_one: bool = False

    def __post_init__(self) -> None:
        if self.slots_per_period < 1:
            raise ValueError(
                f"slots_per_period must be >= 1, got {self.slots_per_period}"
            )
        object.__setattr__(
            self,
            "active_sets",
            tuple(frozenset(s) for s in self.active_sets),
        )

    @property
    def total_slots(self) -> int:
        """``L``: number of slots the schedule spans."""
        return len(self.active_sets)

    @property
    def num_periods(self) -> int:
        """Whole charging periods covered (``L // T``)."""
        return self.total_slots // self.slots_per_period

    def active_set(self, slot: int) -> FrozenSet[int]:
        """Active set at a slot (no wrap-around: explicit horizon)."""
        return self.active_sets[slot]

    def sensors_ever_active(self) -> FrozenSet[int]:
        """Union of all slots' active sets."""
        out: set = set()
        for s in self.active_sets:
            out |= s
        return frozenset(out)

    # ------------------------------------------------------------------
    # Feasibility (the IP's sliding-window constraint)
    # ------------------------------------------------------------------

    def validate_feasible(self) -> None:
        """Raise :class:`InfeasibleScheduleError` on any window violation.

        rho >= 1 mode: each sensor active at most once in every ``T``
        consecutive slots.  rho <= 1 mode: each sensor passive at least
        once in every ``T`` consecutive slots.
        """
        T = self.slots_per_period
        sensors = self.sensors_ever_active()
        for v in sensors:
            activity = [v in s for s in self.active_sets]
            window = sum(activity[:T])
            limit = T - 1 if self.rho_at_most_one else 1
            if window > limit:
                raise InfeasibleScheduleError(
                    f"sensor {v} active {window} times in slots [0, {T}) "
                    f"(limit {limit})"
                )
            for start in range(1, len(activity) - T + 1):
                window += activity[start + T - 1] - activity[start - 1]
                if window > limit:
                    raise InfeasibleScheduleError(
                        f"sensor {v} active {window} times in slots "
                        f"[{start}, {start + T}) (limit {limit})"
                    )

    def is_feasible(self) -> bool:
        """Boolean form of :meth:`validate_feasible`."""
        try:
            self.validate_feasible()
        except InfeasibleScheduleError:
            return False
        return True

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------

    def total_utility(self, utility: UtilityFunction) -> float:
        """``sum_t U(S_t)`` over the whole horizon.

        Unrolled schedules repeat the *same* per-period frozenset
        objects ``alpha`` times (see :meth:`PeriodicSchedule.unroll`),
        so slot values are memoized by object identity within one call:
        the same object always yields the same float, and the running
        sum adds the identical values in the identical order as the
        plain scan -- the result is bit-equal.
        """
        cache: Dict[int, float] = {}
        total = 0.0
        for s in self.active_sets:
            key = id(s)
            value = cache.get(key)
            if value is None:
                value = utility.value(s)
                cache[key] = value
            total += value
        return total

    def average_slot_utility(self, utility: UtilityFunction) -> float:
        """Mean per-slot utility (0 for an empty schedule)."""
        if not self.active_sets:
            return 0.0
        return self.total_utility(utility) / self.total_slots

    def per_slot_utilities(self, utility: UtilityFunction) -> List[float]:
        """The per-slot utility series (one float per slot)."""
        return [utility.value(s) for s in self.active_sets]
