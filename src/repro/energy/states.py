"""Sensor state machine: ACTIVE / PASSIVE / READY (paper Sec. II-B).

The paper's lifecycle:

- **ACTIVE**: powered on, sensing/communicating/computing; drains the
  battery gradually.
- **PASSIVE**: energy exhausted; recharging only, no operations.
- **READY**: battery fully charged; waits (with periodic wake-ups to
  track system state, whose drain the paper treats as negligible) until
  activated.

Legal transitions:

- ACTIVE -> PASSIVE  when the battery hits zero;
- ACTIVE -> READY    when deactivated before depletion (only meaningful
  for rho <= 1 scheduling, where a node may be active several slots and
  is parked before its battery runs dry);
- PASSIVE -> READY   when the battery is full again;
- READY -> ACTIVE    when the scheduler activates the node.

Anything else raises :class:`IllegalTransition`, so simulator bugs
surface immediately instead of silently corrupting energy accounting.
The simulator enforces this table in
:func:`~repro.sim.soa.require_transition`, which every state change of
:class:`~repro.sim.node.MachineView` passes through.
"""

from __future__ import annotations

from enum import Enum


class NodeState(Enum):
    """The three operating states of a rechargeable sensor."""

    ACTIVE = "active"
    PASSIVE = "passive"
    READY = "ready"


class IllegalTransition(RuntimeError):
    """A state change that the paper's lifecycle does not allow."""


_ALLOWED = {
    (NodeState.ACTIVE, NodeState.PASSIVE),
    (NodeState.ACTIVE, NodeState.READY),
    (NodeState.PASSIVE, NodeState.READY),
    (NodeState.READY, NodeState.ACTIVE),
}

