"""Slot-stepped network simulator with exact energy accounting.

The schedulers of :mod:`repro.core` reason combinatorially ("one active
slot per period"); the simulator executes a policy on simulated
hardware and *verifies* that reasoning: batteries are integrated
joule-by-joule through the ACTIVE/PASSIVE/READY state machine, a node
commanded to activate without a full battery is refused (the paper's
full-charge activation rule), and the achieved utility is accounted
per slot and per target.

Components:

- :class:`~repro.sim.clock.SlottedClock` -- slot <-> wall-clock time.
- :class:`~repro.sim.node.SimulatedNode` -- battery + state machine.
- :class:`~repro.sim.network.SensorNetwork` -- nodes + utility system.
- :class:`~repro.sim.engine.SimulationEngine` -- runs an
  :class:`~repro.policies.base.ActivationPolicy` for ``L`` slots.
- :class:`~repro.sim.events.PoissonEventProcess` -- the Sec. V event
  model (Poisson arrivals, exponential durations) with detection
  bookkeeping.
- :class:`~repro.sim.random_model.RandomChargingModel` -- Sec. V's
  stochastic discharge/recharge times and the effective ratio rho'.
- :mod:`~repro.sim.metrics` -- utility/detection metric containers.
- :mod:`~repro.sim.failures` -- injectable fault models (deaths,
  correlated outages, stuck actuators, command loss).
- :class:`~repro.sim.health.HealthMonitor` -- report-driven liveness
  inference (the base station's failure detector).
"""

from repro.sim.clock import SlottedClock
from repro.sim.node import SimulatedNode
from repro.sim.network import SensorNetwork
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.events import DetectionOutcome, Event, PoissonEventProcess
from repro.sim.random_model import RandomChargingModel, effective_ratio
from repro.sim.metrics import SlotRecord, UtilityAccumulator
from repro.sim.failures import FailureInjectedPolicy, FailurePlan
from repro.sim.health import HealthMonitor, HealthSnapshot, NodeHealth
from repro.sim.batch import BatchResult, run_batch

__all__ = [
    "SlottedClock",
    "SimulatedNode",
    "SensorNetwork",
    "SimulationEngine",
    "SimulationResult",
    "PoissonEventProcess",
    "Event",
    "DetectionOutcome",
    "RandomChargingModel",
    "effective_ratio",
    "SlotRecord",
    "UtilityAccumulator",
    "FailurePlan",
    "FailureInjectedPolicy",
    "HealthMonitor",
    "HealthSnapshot",
    "NodeHealth",
    "BatchResult",
    "run_batch",
]
