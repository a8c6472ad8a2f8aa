"""Hypothesis property tests for the simulated node.

Under *arbitrary* command sequences and drain/charge scales the node
must maintain its physical invariants:

- battery level stays in [0, capacity];
- state and level stay consistent (PASSIVE => not full,
  ACTIVE => not empty at slot start, READY at threshold);
- refusals happen exactly when an activation command hits a
  non-READY, non-ACTIVE node;
- energy conservation: level = capacity - sum(drained) + sum(charged).

A second group steps whole fleets of drawn nodes with the vectorized
``NodeArrays.step_all`` and with the scalar step, and compares every
array byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.period import ChargingPeriod
from repro.energy.states import NodeState
from repro.sim.node import SimulatedNode
from repro.sim.soa import NodeArrays

periods = st.sampled_from(
    [
        ChargingPeriod.from_ratio(1.0),
        ChargingPeriod.from_ratio(3.0),
        ChargingPeriod.from_ratio(5.0),
        ChargingPeriod.from_ratio(1.0 / 2.0),
        ChargingPeriod.from_ratio(1.0 / 4.0),
    ]
)

command_sequences = st.lists(
    st.tuples(
        st.booleans(),  # activate command
        st.floats(min_value=0.0, max_value=2.0),  # drain scale
        st.floats(min_value=0.0, max_value=2.0),  # charge scale
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(period=periods, commands=command_sequences)
def test_battery_bounds_always_hold(period, commands):
    node = SimulatedNode(0, period)
    for slot, (activate, drain, charge) in enumerate(commands):
        node.step(slot, activate=activate, drain_scale=drain, charge_scale=charge)
        assert 0.0 <= node.battery.level <= node.battery.capacity + 1e-12


@settings(max_examples=200, deadline=None)
@given(period=periods, commands=command_sequences)
def test_state_level_consistency(period, commands):
    node = SimulatedNode(0, period)
    for slot, (activate, drain, charge) in enumerate(commands):
        node.step(slot, activate=activate, drain_scale=drain, charge_scale=charge)
        if node.state is NodeState.PASSIVE:
            # Still recharging: below the ready threshold.
            assert node.battery.fraction < node.ready_threshold + 1e-9
        if node.state is NodeState.ACTIVE:
            # An active node that hit empty would have dropped to PASSIVE.
            assert not node.battery.is_empty


@settings(max_examples=200, deadline=None)
@given(period=periods, commands=command_sequences)
def test_energy_conservation(period, commands):
    node = SimulatedNode(0, period)
    drained = 0.0
    charged = 0.0
    for slot, (activate, drain, charge) in enumerate(commands):
        report = node.step(
            slot, activate=activate, drain_scale=drain, charge_scale=charge
        )
        drained += report.energy_drained
        charged += report.energy_charged
    assert node.battery.level == pytest.approx(
        node.battery.capacity - drained + charged, abs=1e-9
    )


@settings(max_examples=200, deadline=None)
@given(period=periods, commands=command_sequences)
def test_refusals_only_from_passive(period, commands):
    node = SimulatedNode(0, period)
    for slot, (activate, drain, charge) in enumerate(commands):
        was_passive = node.state is NodeState.PASSIVE
        report = node.step(
            slot, activate=activate, drain_scale=drain, charge_scale=charge
        )
        if report.refused_activation:
            assert activate
            assert was_passive


@settings(max_examples=100, deadline=None)
@given(period=periods, commands=command_sequences)
def test_report_matches_node_counters(period, commands):
    node = SimulatedNode(0, period)
    refused = 0
    for slot, (activate, drain, charge) in enumerate(commands):
        report = node.step(
            slot, activate=activate, drain_scale=drain, charge_scale=charge
        )
        refused += report.refused_activation
        assert report.level_after == node.battery.level
        assert report.state_after is node.state
    assert node.refused_activations == refused


# ----------------------------------------------------------------------
# NodeArrays.step_all against the scalar step, array by array
# ----------------------------------------------------------------------

STATES = [NodeState.ACTIVE, NodeState.PASSIVE, NodeState.READY]


@st.composite
def node_specs(draw):
    """One node's drawn battery, rates, threshold, state and counters.

    Boundary levels are drawn explicitly; a level may also sit a few
    ulps around the one a charge lands exactly on the refill comparison
    ``fraction >= ready_threshold - 1e-12``.
    """
    capacity = draw(st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.01, 10.0))
    threshold = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0))
    rates = st.floats(0.0, 2 * capacity)
    drain = draw(st.sampled_from([0.0, capacity / 3.0]) | rates)
    charge = draw(st.sampled_from([0.0, capacity / 7.0]) | rates)
    state = draw(st.sampled_from(STATES))
    level = draw(st.sampled_from([0.0, -0.0, capacity, 1e-9, "refill", "any"]))
    if level == "refill":
        charge = draw(st.sampled_from([0.0, charge]))
        target = max((threshold - 1e-12) * capacity - charge, 0.0)
        ulps = draw(st.integers(-2, 2))
        level = min(max(target + ulps * float(np.spacing(target)), 0.0), capacity)
    elif level == "any":
        level = draw(st.floats(0.0, capacity))
    counters = draw(st.tuples(*[st.integers(0, 50)] * 3))
    return capacity, threshold, drain, charge, state, level, counters


def build_arrays(specs):
    """Nodes over one shared ``NodeArrays`` holding the drawn specs."""
    arrays = NodeArrays(len(specs))
    nodes = []
    for i, spec in enumerate(specs):
        capacity, threshold, drain, charge, state, level, counters = spec
        node = SimulatedNode(
            i,
            ChargingPeriod.from_ratio(3.0),
            capacity=capacity,
            ready_threshold=threshold,
            arrays=arrays,
            index=i,
        )
        arrays.drain_per_slot[i] = drain
        arrays.charge_per_slot[i] = charge
        node.force(level, state)
        arrays.transitions[i], arrays.refused[i], arrays.completed[i] = counters
        nodes.append(node)
    return arrays, nodes


def array_bytes(arrays):
    return [
        getattr(arrays, name).tobytes()
        for name in ("level", "state", "transitions", "refused", "completed")
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), specs=st.lists(node_specs(), min_size=1, max_size=24))
def test_step_all_matches_scalar_step(data, specs):
    fast, _ = build_arrays(specs)
    slow, nodes = build_arrays(specs)
    assert array_bytes(fast) == array_bytes(slow)
    n = len(specs)
    command_mask = st.lists(st.booleans(), min_size=n, max_size=n)
    commands = data.draw(st.lists(command_mask, min_size=1, max_size=4))
    for slot, command in enumerate(commands):
        mask = np.array(command, dtype=bool)
        was_active, refused = fast.step_all(mask)
        reports = [node.step(slot, activate=on) for node, on in zip(nodes, command)]
        assert was_active.tolist() == [r.was_active for r in reports]
        assert refused == sum(r.refused_activation for r in reports)
        assert array_bytes(fast) == array_bytes(slow)
        assert mask.tolist() == command  # the command mask is only read


def test_forced_negative_zero_level_is_stored_as_zero():
    # A branch-free step cannot keep the sign of an idle node's -0.0
    # (adding a +0.0 delta turns it into +0.0), so the node API stores
    # every level canonically; both stepping paths then start equal.
    node = SimulatedNode(0, ChargingPeriod.from_ratio(3.0))
    node.force(-0.0, NodeState.READY)
    assert not np.signbit(node.battery.level)
