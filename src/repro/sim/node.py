"""One simulated sensor node: battery + state machine + slot stepping.

Implements the lifecycle of Sec. II-B faithfully:

- a node activates only from READY (fully charged by default -- "a node
  can be activated only if it is fully charged");
- while ACTIVE it drains at ``mu_d`` and drops to PASSIVE the moment
  the battery empties;
- while PASSIVE it recharges at ``mu_r`` and becomes READY at full;
- READY holds its energy (the paper treats the periodic wake-up drain
  as negligible).

The *partially recharged activation* extension (the paper's Sec. VIII
future work) is supported via ``ready_threshold``: a node becomes READY
once its state of charge reaches the threshold instead of 1.0, and an
activation then drains whatever charge it has.

Fleet-scale note: since the struct-of-arrays refactor the node is a
*view* -- all mutable state (level, state code, counters) lives in a
shared :class:`~repro.sim.soa.NodeArrays`, so the engine can step every
node with vectorized numpy ops while this class keeps serving the
object API (policies, tests) over the same storage.  A
node constructed standalone owns a private one-slot array block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.energy.period import ChargingPeriod
from repro.energy.states import IllegalTransition, NodeState
from repro.sim.soa import STATE_CODES, NodeArrays, require_transition


@dataclass
class NodeSlotReport:
    """What one node did during one slot."""

    node_id: int
    slot: int
    was_active: bool
    refused_activation: bool
    energy_drained: float
    energy_charged: float
    state_after: NodeState
    level_after: float


class BatteryView:
    """The :class:`~repro.energy.battery.Battery` API over one array slot."""

    __slots__ = ("_arrays", "_i")

    def __init__(self, arrays: NodeArrays, index: int):
        self._arrays = arrays
        self._i = index

    @property
    def capacity(self) -> float:
        return float(self._arrays.capacity[self._i])

    @property
    def level(self) -> float:
        return float(self._arrays.level[self._i])

    @property
    def fraction(self) -> float:
        """State of charge in [0, 1]."""
        return self.level / self.capacity

    @property
    def is_full(self) -> bool:
        return self.level >= self.capacity - 1e-9

    @property
    def is_empty(self) -> bool:
        return self.level <= 1e-9

    def discharge(self, amount: float) -> float:
        """Drain up to ``amount``; returns the energy actually drained."""
        if amount < 0:
            raise ValueError(f"discharge amount must be non-negative, got {amount}")
        drained = min(amount, self.level)
        self._arrays.level[self._i] = self.level - drained
        return drained

    def charge(self, amount: float) -> float:
        """Add up to ``amount``; returns the energy actually stored."""
        if amount < 0:
            raise ValueError(f"charge amount must be non-negative, got {amount}")
        stored = min(amount, self.capacity - self.level)
        self._arrays.level[self._i] = self.level + stored
        return stored

    def set_level(self, level: float) -> None:
        """Force the energy level (used by trace replay and tests).

        A level of ``-0.0`` is stored as ``+0.0`` (``x + 0.0`` changes no
        other value): the branch-free ``NodeArrays.step_all`` cannot keep
        an idle node's negative zero, so no level may start as one.
        """
        if not 0 <= level <= self.capacity:
            raise ValueError(
                f"battery level must be in [0, {self.capacity}], got {level}"
            )
        self._arrays.level[self._i] = float(level) + 0.0

    def __repr__(self) -> str:
        return f"BatteryView(capacity={self.capacity}, level={self.level:.4g})"


class MachineView:
    """The Sec. II-B lifecycle (:mod:`repro.energy.states`) over one
    array slot (state code + transition counter)."""

    __slots__ = ("_arrays", "_i")

    def __init__(self, arrays: NodeArrays, index: int):
        self._arrays = arrays
        self._i = index

    @property
    def state(self) -> NodeState:
        return self._arrays.get_state(self._i)

    @property
    def transitions(self) -> int:
        """Number of state changes so far (duty-cycle diagnostics)."""
        return int(self._arrays.transitions[self._i])

    @property
    def is_active(self) -> bool:
        return self.state is NodeState.ACTIVE

    @property
    def is_ready(self) -> bool:
        return self.state is NodeState.READY

    @property
    def is_passive(self) -> bool:
        return self.state is NodeState.PASSIVE

    def transition(self, new_state: NodeState) -> None:
        """Move to ``new_state``; raise ``IllegalTransition`` if illegal."""
        current = self.state
        if new_state is current:
            return
        require_transition(current, new_state)
        self._arrays.set_state(self._i, new_state)
        self._arrays.transitions[self._i] += 1

    def _require(self, expected: NodeState, action: str) -> None:
        if self.state is not expected:
            raise IllegalTransition(
                f"{action} requires {expected.value}, but node is "
                f"{self.state.value}"
            )

    def activate(self) -> None:
        """READY -> ACTIVE (the scheduler turning the node on)."""
        self._require(NodeState.READY, "activate")
        self.transition(NodeState.ACTIVE)

    def deplete(self) -> None:
        """ACTIVE -> PASSIVE (battery exhausted)."""
        self._require(NodeState.ACTIVE, "deplete")
        self.transition(NodeState.PASSIVE)

    def park(self) -> None:
        """ACTIVE -> READY (deactivated with energy remaining)."""
        self._require(NodeState.ACTIVE, "park")
        self.transition(NodeState.READY)

    def fully_charged(self) -> None:
        """PASSIVE -> READY (battery recharged to capacity)."""
        self._require(NodeState.PASSIVE, "fully_charged")
        self.transition(NodeState.READY)

    def __repr__(self) -> str:
        return f"MachineView(state={self.state.value})"


class SimulatedNode:
    """A rechargeable sensor node stepping through slots.

    Parameters
    ----------
    node_id:
        The sensor id used by schedules and utilities.
    period:
        The charging period; per-slot drain/charge amounts are derived
        from it so that ``T_d``/``T_r`` are honoured exactly in the
        normalized slot system.
    capacity:
        Battery capacity ``B`` (energy units; default 1.0, the
        normalized battery).
    ready_threshold:
        State-of-charge (0..1] at which a PASSIVE node becomes READY.
        1.0 is the paper's full-charge rule; lower values enable the
        Sec. VIII partial-charge extension.
    slot_minutes:
        Wall-clock slot length used to convert T_d/T_r into per-slot
        energy amounts.  Defaults to the period's own normalized slot;
        heterogeneous networks pass the shared simulation slot so nodes
        with different periods drain/charge at their own rates on the
        common grid.
    arrays / index:
        Shared :class:`~repro.sim.soa.NodeArrays` storage and this
        node's slot in it.  Omitted for standalone nodes, which own a
        private one-slot block.
    """

    def __init__(
        self,
        node_id: int,
        period: ChargingPeriod,
        capacity: float = 1.0,
        ready_threshold: float = 1.0,
        slot_minutes: float | None = None,
        arrays: Optional[NodeArrays] = None,
        index: Optional[int] = None,
    ):
        if not 0.0 < ready_threshold <= 1.0:
            raise ValueError(
                f"ready_threshold must be in (0, 1], got {ready_threshold}"
            )
        if capacity <= 0:
            raise ValueError(f"battery capacity must be positive, got {capacity}")
        self.node_id = node_id
        self.period = period
        if arrays is None:
            arrays = NodeArrays(1)
            index = 0
        elif index is None:
            raise ValueError("index is required when arrays is shared")
        self._arrays = arrays
        self._index = index
        slot = period.slot_length if slot_minutes is None else slot_minutes
        if slot <= 0:
            raise ValueError(f"slot length must be positive, got {slot}")
        i = index
        arrays.capacity[i] = capacity
        arrays.level[i] = capacity  # starts full (paper's READY rule)
        arrays.state[i] = STATE_CODES[NodeState.READY]
        arrays.ready_threshold[i] = ready_threshold
        # Energy per slot implied by the normalized-slot system.
        arrays.drain_per_slot[i] = capacity * slot / period.discharge_time
        arrays.charge_per_slot[i] = capacity * slot / period.recharge_time
        arrays.transitions[i] = 0
        arrays.refused[i] = 0
        arrays.completed[i] = 0
        self.battery = BatteryView(arrays, i)
        self.machine = MachineView(arrays, i)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> NodeState:
        return self.machine.state

    @property
    def is_active(self) -> bool:
        return self.machine.is_active

    @property
    def can_activate(self) -> bool:
        """True iff an activation command this slot would be honoured."""
        return self.machine.is_ready

    @property
    def ready_threshold(self) -> float:
        return float(self._arrays.ready_threshold[self._index])

    @property
    def drain_per_slot(self) -> float:
        return float(self._arrays.drain_per_slot[self._index])

    @property
    def charge_per_slot(self) -> float:
        return float(self._arrays.charge_per_slot[self._index])

    @property
    def refused_activations(self) -> int:
        return int(self._arrays.refused[self._index])

    @refused_activations.setter
    def refused_activations(self, value: int) -> None:
        self._arrays.refused[self._index] = value

    @property
    def completed_activations(self) -> int:
        return int(self._arrays.completed[self._index])

    @completed_activations.setter
    def completed_activations(self, value: int) -> None:
        self._arrays.completed[self._index] = value

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(
        self,
        slot: int,
        activate: bool,
        drain_scale: float = 1.0,
        charge_scale: float = 1.0,
    ) -> NodeSlotReport:
        """Advance the node through one slot.

        Parameters
        ----------
        activate:
            The policy's command: should this node sense during the slot?
            Honoured only from READY; an ACTIVE node keeps running when
            commanded on, and parks (ACTIVE -> READY, retaining charge)
            when commanded off.
        drain_scale / charge_scale:
            Multipliers on the nominal per-slot drain/charge; the random
            charging model (Sec. V) and weather variation feed in here.
            1.0 reproduces the deterministic homogeneous model.
        """
        if drain_scale < 0 or charge_scale < 0:
            raise ValueError("scales must be non-negative")
        refused = False
        drained = 0.0
        charged = 0.0

        if activate:
            if self.machine.is_ready:
                self.machine.activate()
            elif not self.machine.is_active:
                refused = True
                self._arrays.refused[self._index] += 1
        else:
            if self.machine.is_active:
                # Commanded off mid-activation: park with remaining charge.
                self.machine.park()

        was_active = self.machine.is_active
        if self.machine.is_active:
            drained = self.battery.discharge(self.drain_per_slot * drain_scale)
            if self.battery.is_empty:
                self.machine.deplete()
                self._arrays.completed[self._index] += 1
        elif self.machine.is_passive:
            charged = self.battery.charge(self.charge_per_slot * charge_scale)
            if self.battery.fraction >= self.ready_threshold - 1e-12:
                self.machine.fully_charged()

        return NodeSlotReport(
            node_id=self.node_id,
            slot=slot,
            was_active=was_active,
            refused_activation=refused,
            energy_drained=drained,
            energy_charged=charged,
            state_after=self.machine.state,
            level_after=self.battery.level,
        )

    def snapshot(self) -> dict:
        """JSON-compatible capture of all mutable state (checkpointing)."""
        return {
            "level": self.battery.level,
            "state": self.machine.state.value,
            "transitions": self.machine.transitions,
            "refused_activations": self.refused_activations,
            "completed_activations": self.completed_activations,
        }

    def restore_snapshot(self, snap: dict) -> None:
        """Inverse of :meth:`snapshot`."""
        self.battery.set_level(snap["level"])
        self._arrays.set_state(self._index, NodeState(snap["state"]))
        self._arrays.transitions[self._index] = snap["transitions"]
        self.refused_activations = snap["refused_activations"]
        self.completed_activations = snap["completed_activations"]

    def force(self, level: float, state: NodeState) -> None:
        """Set battery level and state directly (observing a node mid-cycle).

        Bypasses the legal-transition checks -- this models *observing*
        a node mid-cycle, not commanding it.  Consistency between level
        and state is the caller's responsibility (e.g. PASSIVE with a
        full battery would never be observed).
        """
        self.battery.set_level(level)
        self._arrays.set_state(self._index, state)
        # A forced node is "observed", not evolved: its transition count
        # restarts, matching the pre-SoA fresh state machine.
        self._arrays.transitions[self._index] = 0

    def __repr__(self) -> str:
        return (
            f"SimulatedNode(id={self.node_id}, state={self.state.value}, "
            f"soc={self.battery.fraction:.2f})"
        )
