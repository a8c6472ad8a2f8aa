"""The ACTIVE/PASSIVE/READY lifecycle (Sec. II-B), through the code the
simulator runs: a one-node :class:`~repro.sim.node.SimulatedNode`'s
:class:`~repro.sim.node.MachineView` over its ``NodeArrays`` slot."""

import pytest

from repro.energy.period import ChargingPeriod
from repro.energy.states import IllegalTransition, NodeState
from repro.sim.node import SimulatedNode


def machine(state: NodeState = NodeState.READY):
    """A fresh node's state machine, observed in ``state``."""
    node = SimulatedNode(0, ChargingPeriod.paper_sunny())
    if state is not NodeState.READY:
        node.force(0.0 if state is NodeState.PASSIVE else 0.5, state)
    return node.machine


class TestLegalLifecycle:
    def test_initial_ready(self):
        sm = machine()
        assert sm.state is NodeState.READY
        assert sm.is_ready

    def test_full_cycle(self):
        sm = machine()
        sm.activate()
        assert sm.is_active
        sm.deplete()
        assert sm.is_passive
        sm.fully_charged()
        assert sm.is_ready

    def test_park_with_energy(self):
        sm = machine()
        sm.activate()
        sm.park()
        assert sm.is_ready

    def test_self_transition_noop(self):
        sm = machine()
        sm.transition(NodeState.READY)
        assert sm.transitions == 0

    def test_transition_count(self):
        sm = machine()
        sm.activate()
        sm.deplete()
        sm.fully_charged()
        assert sm.transitions == 3


class TestIllegalTransitions:
    def test_ready_to_passive(self):
        sm = machine()
        with pytest.raises(IllegalTransition, match="cannot move ready -> passive"):
            sm.transition(NodeState.PASSIVE)

    def test_passive_to_active(self):
        # The paper's full-charge rule: a depleted node cannot go
        # straight back to sensing.
        sm = machine(NodeState.PASSIVE)
        with pytest.raises(IllegalTransition, match="cannot move passive -> active"):
            sm.transition(NodeState.ACTIVE)

    def test_activate_from_passive_raises(self):
        sm = machine(NodeState.PASSIVE)
        with pytest.raises(
            IllegalTransition, match="activate requires ready, but node is passive"
        ):
            sm.activate()

    def test_deplete_from_ready_raises(self):
        sm = machine()
        with pytest.raises(
            IllegalTransition, match="deplete requires active, but node is ready"
        ):
            sm.deplete()

    def test_park_from_passive_raises(self):
        sm = machine(NodeState.PASSIVE)
        with pytest.raises(
            IllegalTransition, match="park requires active, but node is passive"
        ):
            sm.park()

    def test_fully_charged_from_active_raises(self):
        sm = machine(NodeState.ACTIVE)
        with pytest.raises(
            IllegalTransition,
            match="fully_charged requires passive, but node is active",
        ):
            sm.fully_charged()

    def test_state_unchanged_after_failed_transition(self):
        sm = machine()
        with pytest.raises(IllegalTransition):
            sm.transition(NodeState.PASSIVE)
        assert sm.is_ready
        assert sm.transitions == 0


class TestPredicates:
    def test_flags_exclusive(self):
        for state in NodeState:
            sm = machine(state)
            flags = [sm.is_active, sm.is_passive, sm.is_ready]
            assert sum(flags) == 1

    def test_repr(self):
        assert "active" in repr(machine(NodeState.ACTIVE))
