"""Tests for the plan-once-repeat-forever greedy policy."""

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.policies.greedy_periodic import GreedyPeriodicPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.detection import HomogeneousDetectionUtility

SPARSE = ChargingPeriod.paper_sunny()
DENSE = ChargingPeriod.from_ratio(1.0 / 3.0, discharge_time=45.0)


def make_network(n=8, period=SPARSE):
    return SensorNetwork(n, period, HomogeneousDetectionUtility(range(n), p=0.4))


class TestPlanning:
    def test_lazy_plan_on_first_decide(self):
        policy = GreedyPeriodicPolicy()
        assert policy.schedule is None
        policy.decide(0, make_network())
        assert policy.schedule is not None

    def test_plan_matches_direct_greedy(self):
        net = make_network()
        policy = GreedyPeriodicPolicy()
        policy.decide(0, net)
        problem = SchedulingProblem(
            num_sensors=8, period=SPARSE, utility=net.utility
        )
        direct = greedy_schedule(problem)
        assert dict(policy.schedule.assignment) == dict(direct.assignment)

    def test_dense_regime_uses_passive_variant(self):
        net = make_network(period=DENSE)
        policy = GreedyPeriodicPolicy()
        policy.decide(0, net)
        assert policy.schedule.mode.value == "passive"

    def test_reset_clears_plan(self):
        policy = GreedyPeriodicPolicy()
        policy.decide(0, make_network())
        policy.reset()
        assert policy.schedule is None


class TestSimulatedExecution:
    def test_no_refusals_sparse(self):
        net = make_network()
        result = SimulationEngine(net, GreedyPeriodicPolicy()).run(24)
        assert result.refused_activations == 0

    def test_dense_cold_start_refusals_are_transient(self):
        net = make_network(period=DENSE)
        result = SimulationEngine(net, GreedyPeriodicPolicy()).run(24)
        # Some first-cycle refusals are expected (nodes parked with
        # partial charge cannot recharge), but they must not persist.
        later = [
            r.refused_activations
            for r in result.accumulator.records
            if r.slot >= 3 * 4
        ]
        assert sum(later) == 0

    def test_matches_combinatorial_value(self):
        net = make_network()
        result = SimulationEngine(net, GreedyPeriodicPolicy()).run(16)
        problem = SchedulingProblem(
            num_sensors=8, period=SPARSE, utility=net.utility, num_periods=4
        )
        expected = greedy_schedule(problem).total_utility(net.utility, 4)
        assert result.total_utility == pytest.approx(expected)
