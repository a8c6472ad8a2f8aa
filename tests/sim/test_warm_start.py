"""Tests for forcing a node's observed level and state."""

import pytest

from repro.energy.period import ChargingPeriod
from repro.energy.states import NodeState
from repro.sim.node import SimulatedNode

SPARSE = ChargingPeriod.paper_sunny()


class TestNodeForce:
    def test_sets_level_and_state(self):
        node = SimulatedNode(0, SPARSE)
        node.force(0.25, NodeState.PASSIVE)
        assert node.battery.level == 0.25
        assert node.state is NodeState.PASSIVE

    def test_validates_level(self):
        node = SimulatedNode(0, SPARSE)
        with pytest.raises(ValueError):
            node.force(5.0, NodeState.READY)

    def test_forced_passive_recharges(self):
        node = SimulatedNode(0, SPARSE)
        node.force(0.0, NodeState.PASSIVE)
        node.step(0, activate=False)
        assert node.battery.level == pytest.approx(1.0 / 3.0)
