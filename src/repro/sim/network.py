"""The simulated sensor network: nodes + utility system + clock.

Bundles the per-node simulation entities with the utility function the
deployment serves, and provides snapshot views (who is READY, state of
charge) that online policies consume.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.energy.states import NodeState
import numpy as np

from repro.sim.clock import SlottedClock
from repro.sim.node import SimulatedNode
from repro.sim.soa import STATE_CODES, NodeArrays
from repro.utility.base import UtilityFunction


class SensorNetwork:
    """``n`` homogeneous rechargeable nodes serving one utility function.

    Parameters
    ----------
    num_sensors:
        Node count; ids are ``0..n-1``.
    period:
        The shared charging period (homogeneous sensors, Sec. II-B).
    utility:
        The per-slot utility ``U(S)`` the network earns.
    capacity:
        Battery capacity per node (normalized 1.0 by default).
    ready_threshold:
        Passed to every node; < 1.0 enables the partial-charge
        extension (Sec. VIII).
    node_periods:
        Optional per-node period overrides (heterogeneous extension,
        Sec. VIII); nodes not listed use the shared ``period``.  The
        clock and schedule arithmetic still use the shared period.
    """

    def __init__(
        self,
        num_sensors: int,
        period: ChargingPeriod,
        utility: UtilityFunction,
        capacity: float = 1.0,
        ready_threshold: float = 1.0,
        node_periods: Optional[Dict[int, ChargingPeriod]] = None,
    ):
        if num_sensors < 0:
            raise ValueError(f"num_sensors must be >= 0, got {num_sensors}")
        self.period = period
        self.utility = utility
        overrides = node_periods or {}
        # Hot state lives in one struct-of-arrays block (battery levels,
        # state codes, counters); the node objects are views over it, so
        # the engine can choose per slot between vectorized stepping and
        # the object API without the two ever diverging.
        self.arrays = NodeArrays(num_sensors)
        self.nodes: List[SimulatedNode] = [
            SimulatedNode(
                node_id=i,
                period=overrides.get(i, period),
                capacity=capacity,
                ready_threshold=ready_threshold,
                slot_minutes=period.slot_length,
                arrays=self.arrays,
                index=i,
            )
            for i in range(num_sensors)
        ]
        self.clock = SlottedClock(
            slot_minutes=period.slot_length,
            slots_per_period=period.slots_per_period,
        )

    @classmethod
    def from_problem(
        cls,
        problem: SchedulingProblem,
        capacity: float = 1.0,
        ready_threshold: float = 1.0,
    ) -> "SensorNetwork":
        return cls(
            num_sensors=problem.num_sensors,
            period=problem.period,
            utility=problem.utility,
            capacity=capacity,
            ready_threshold=ready_threshold,
        )

    # ------------------------------------------------------------------
    # Snapshots for policies
    # ------------------------------------------------------------------

    @property
    def num_sensors(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> SimulatedNode:
        return self.nodes[node_id]

    def ready_sensors(self) -> FrozenSet[int]:
        """Ids that would honour an activation command this slot."""
        code = STATE_CODES[NodeState.READY]
        return frozenset(np.flatnonzero(self.arrays.state == code).tolist())

    def active_sensors(self) -> FrozenSet[int]:
        code = STATE_CODES[NodeState.ACTIVE]
        return frozenset(np.flatnonzero(self.arrays.state == code).tolist())

    def states(self) -> Dict[int, NodeState]:
        return {n.node_id: n.state for n in self.nodes}

    def charge_fractions(self) -> Dict[int, float]:
        return {n.node_id: n.battery.fraction for n in self.nodes}

    def total_stored_energy(self) -> float:
        return sum(n.battery.level for n in self.nodes)

    def total_refused_activations(self) -> int:
        return sum(n.refused_activations for n in self.nodes)
