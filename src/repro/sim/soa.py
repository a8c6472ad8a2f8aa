"""Struct-of-arrays node state: the fleet-scale engine representation.

Per-node Python objects (a :class:`~repro.energy.battery.Battery` and a
state machine per node) cost a dict lookup and an attribute walk per
float, and force the engine to step 10^5 nodes through 10^5
interpreter-level calls per slot.  :class:`NodeArrays`
keeps every piece of hot mutable state in flat numpy arrays instead --
battery levels, state codes, per-slot drain/charge, refusal counters --
so the engine's energy accounting becomes branch-free whole-array
arithmetic per slot (no masked ufunc, no boolean-index write), while
:class:`~repro.sim.node.SimulatedNode` stays available as a *view* onto
one array slot for the existing object API.

Bit-exactness: :meth:`NodeArrays.step_all` produces the same levels,
states and counters as the scalar ``SimulatedNode.step`` (the
differential tests in ``tests/sim/`` pin this):

- *Float work.*  For every node that drains (or charges) this slot the
  ops are the scalar step's own min / subtract / add / compare on
  float64, in the same order; numpy elementwise ops are bit-identical to
  Python scalar arithmetic on the same doubles.  The min and the delta
  are computed for all nodes and the delta is multiplied by the bool
  mask.  For a node outside the mask the delta is ``x * 0.0``, a zero
  that leaves its level unchanged: levels are never ``-0.0`` (the node
  API stores a forced ``-0.0`` as ``+0.0``, and no step makes one), so
  subtracting or adding a zero of either sign is the identity.
- *State codes.*  With READY=2, ACTIVE=0 and PASSIVE=1 the new code is
  ``2 - 2*sensed - passive + depleted + refilled`` over int8 views of
  bool masks.  ``sensed`` and ``passive`` are disjoint, ``depleted`` is
  a subset of ``sensed`` and ``refilled`` of ``passive``, so each node
  lands on exactly one of the codes the scalar if/elif would give it;
  the transition counter takes the same disjoint masks' sum.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.energy.states import _ALLOWED, IllegalTransition, NodeState

#: int8 codes for :class:`NodeState` (array representation);
#: :meth:`NodeArrays.step_all` computes new codes arithmetically from
#: these values.
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
        passive = state == _PASSIVE
        active = state == _ACTIVE

        # Command phase: READY + on -> ACTIVE; ACTIVE + off -> parked
        # (READY, keeping charge); on while PASSIVE is a refusal.  The
        # nodes that sense and drain this slot are the commanded ones
        # not PASSIVE; no command produces PASSIVE, so ``passive`` stays
        # the charging set (a node depleting this slot must not also
        # charge this slot, as in the scalar step's if/elif).
        not_passive = ~passive
        was_active = activate & not_passive
        refused = activate & passive
        changed = (activate ^ active) & not_passive

        # np.minimum(a, b) returns b on a tie, Python's min(b, a) returns
        # b too, so (level, drain) is the scalar min(drain, level).
        drained = np.minimum(level, self.drain_per_slot)
        drained *= was_active
        level -= drained
        depleted = was_active & (level <= 1e-9)

        stored = np.minimum(self.capacity - level, self.charge_per_slot)
        stored *= passive
        level += stored
        refilled = passive & (
            level / self.capacity >= self.ready_threshold - 1e-12
        )

        # READY=2, ACTIVE=0, PASSIVE=1: a node that sensed drops to
        # ACTIVE (-2), one that entered the slot PASSIVE stays there
        # (-1); a depletion adds 1 back to a sensing node, a refill 1
        # to a PASSIVE one.
        np.add(depleted.view(np.int8), refilled.view(np.int8), out=state)
        state -= passive.view(np.int8)
        state -= was_active.view(np.int8)
        state -= was_active.view(np.int8)
        state += 2

        # One transition per mask a node is in: activated or parked,
        # emptied, refilled.  A READY node that activates and empties in
        # one slot makes two, as in the scalar step.
        self.transitions += (
            changed.view(np.int8) + depleted.view(np.int8) + refilled.view(np.int8)
        )
        self.refused += refused
        self.completed += depleted
        refused_count = int(np.count_nonzero(refused))

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
    if new_state is current:
        return
    if (current, new_state) not in _ALLOWED:
        raise IllegalTransition(
            f"cannot move {current.value} -> {new_state.value}"
        )
