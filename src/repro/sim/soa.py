"""Struct-of-arrays node state: the fleet-scale engine representation.

Per-node Python objects (:class:`~repro.sim.node.SimulatedNode` holding
a :class:`~repro.energy.battery.Battery` and a
:class:`~repro.energy.states.SensorStateMachine`) cost a dict lookup and
an attribute walk per float, and force the engine to step 10^5 nodes
through 10^5 interpreter-level calls per slot.  :class:`NodeArrays`
keeps every piece of hot mutable state in flat numpy arrays instead --
battery levels, state codes, per-slot drain/charge, refusal counters --
so the engine's energy accounting becomes a handful of vectorized masks
per slot, while :class:`~repro.sim.node.SimulatedNode` stays available
as a *view* onto one array slot for the existing object API.

Bit-exactness: the vectorized :meth:`NodeArrays.step_all` performs the
same IEEE-754 double ops in the same per-node order as the scalar
``SimulatedNode.step`` (min / subtract / add / compare on float64 --
numpy elementwise ops are bit-identical to Python scalar arithmetic on
the same doubles), so a vectorized slot and an object-stepped slot
produce identical levels, states and counters.  The differential suite
in ``tests/sim/`` pins this.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.energy.states import IllegalTransition, NodeState

#: int8 codes for :class:`NodeState` (array representation).
STATE_CODES = {
    NodeState.ACTIVE: 0,
    NodeState.PASSIVE: 1,
    NodeState.READY: 2,
}
CODE_STATES = {code: state for state, code in STATE_CODES.items()}

_ACTIVE = STATE_CODES[NodeState.ACTIVE]
_PASSIVE = STATE_CODES[NodeState.PASSIVE]
_READY = STATE_CODES[NodeState.READY]


class NodeArrays:
    """Flat per-node state for ``n`` nodes, indexed by node id.

    All arrays are owned here; :class:`~repro.sim.node.SimulatedNode`
    views read and write single slots through the same arrays, so the
    object API and the vectorized stepping can interleave freely.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        n = num_nodes
        self.num_nodes = n
        self.level = np.zeros(n, dtype=np.float64)
        self.capacity = np.ones(n, dtype=np.float64)
        self.state = np.full(n, _READY, dtype=np.int8)
        self.drain_per_slot = np.zeros(n, dtype=np.float64)
        self.charge_per_slot = np.zeros(n, dtype=np.float64)
        self.ready_threshold = np.ones(n, dtype=np.float64)
        self.transitions = np.zeros(n, dtype=np.int64)
        self.refused = np.zeros(n, dtype=np.int64)
        self.completed = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Vectorized slot stepping
    # ------------------------------------------------------------------

    def step_all(self, activate: np.ndarray) -> Tuple[np.ndarray, int]:
        """Advance every node through one slot (unit drain/charge scales).

        ``activate`` is the slot's :meth:`command_mask`; it is only read.
        The vectorized translation of ``SimulatedNode.step`` with
        ``drain_scale == charge_scale == 1.0``; see the module
        docstring for why the results are bit-identical.

        Returns ``(was_active, refused_count)`` where ``was_active`` is
        the post-command activity mask (the nodes that sensed -- and
        drained -- this slot).
        """
        state = self.state
        level = self.level

        ready = state == _READY
        active = state == _ACTIVE

        # Command phase: READY + on -> ACTIVE; ACTIVE + off -> parked
        # (READY, keeping charge); on while neither READY nor ACTIVE is
        # a refusal.
        to_activate = activate & ready
        to_park = ~activate & active
        refused_mask = activate & ~ready & ~active
        state[to_activate] = _ACTIVE
        state[to_park] = _READY
        self.transitions[to_activate | to_park] += 1
        self.refused[refused_mask] += 1
        refused_count = int(refused_mask.sum())

        # Post-command activity: these nodes sense and drain this slot.
        was_active = state == _ACTIVE
        # No command transition produces PASSIVE, so the charging set is
        # exactly the nodes that entered the slot PASSIVE -- matching the
        # scalar step's if/elif (a node depleting this slot must not
        # also charge this slot).
        passive = state == _PASSIVE

        drained = np.minimum(self.drain_per_slot, level, where=was_active, out=np.zeros_like(level))
        level -= drained
        depleted = was_active & (level <= 1e-9)
        state[depleted] = _PASSIVE
        self.transitions[depleted] += 1
        self.completed[depleted] += 1

        headroom = self.capacity - level
        stored = np.minimum(self.charge_per_slot, headroom, where=passive, out=np.zeros_like(level))
        level += stored
        refilled = passive & (
            level / self.capacity >= self.ready_threshold - 1e-12
        )
        state[refilled] = _READY
        self.transitions[refilled] += 1

        return was_active, refused_count

    def command_mask(self, commands: Iterable[int]) -> np.ndarray:
        """Boolean mask of the commanded node ids; ids outside
        ``0..num_nodes-1`` are ignored, as the scalar step ignores them."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        ids = [v for v in commands if 0 <= v < self.num_nodes]
        if ids:
            mask[ids] = True
        return mask

    # ------------------------------------------------------------------
    # Per-slot scalar access (the SimulatedNode view path)
    # ------------------------------------------------------------------

    def get_state(self, i: int) -> NodeState:
        return CODE_STATES[int(self.state[i])]

    def set_state(self, i: int, new_state: NodeState) -> None:
        self.state[i] = STATE_CODES[new_state]


def require_transition(current: NodeState, new_state: NodeState) -> None:
    """Raise :class:`IllegalTransition` unless the lifecycle allows it."""
    from repro.energy.states import _ALLOWED

    if new_state is current:
        return
    if (current, new_state) not in _ALLOWED:
        raise IllegalTransition(
            f"cannot move {current.value} -> {new_state.value}"
        )
