"""Online activation policies: the dynamic layer executed by the simulator.

A policy is asked, at the beginning of every time-slot, which sensors
to command active (paper Sec. II-C: "at the beginning of every
time-slot t, we will make decision on which sensors to be activated").
Policies range from verbatim execution of a precomputed schedule to
re-planning around failed nodes:

- :class:`~repro.policies.base.ActivationPolicy` -- the interface.
- :class:`~repro.policies.schedule_policy.SchedulePolicy` -- execute a
  fixed (periodic or unrolled) schedule.
- :class:`~repro.policies.greedy_periodic.GreedyPeriodicPolicy` --
  plan with Algorithm 1 once, repeat each period (Thm. 4.3).
- :class:`~repro.policies.partial_charge.PartialChargeGreedyPolicy` --
  the Sec. VIII future-work extension activating partially recharged
  sensors.
- :class:`~repro.policies.heterogeneous.HeterogeneousGreedyPolicy` --
  the Sec. VIII extension for per-node charging patterns.
- :class:`~repro.policies.self_healing.SelfHealingPolicy` -- wraps any
  planner with report-driven failure detection, budgeted command retry
  and greedy schedule repair over the surviving nodes.
"""

from repro.policies.base import ActivationPolicy
from repro.policies.schedule_policy import SchedulePolicy
from repro.policies.greedy_periodic import GreedyPeriodicPolicy
from repro.policies.partial_charge import PartialChargeGreedyPolicy
from repro.policies.heterogeneous import HeterogeneousGreedyPolicy
from repro.policies.threshold import (
    ThresholdPolicy,
    UtilityAwareThresholdPolicy,
    sustainable_threshold,
)
from repro.policies.self_healing import SelfHealingPolicy

__all__ = [
    "ActivationPolicy",
    "SchedulePolicy",
    "GreedyPeriodicPolicy",
    "PartialChargeGreedyPolicy",
    "HeterogeneousGreedyPolicy",
    "ThresholdPolicy",
    "UtilityAwareThresholdPolicy",
    "sustainable_threshold",
    "SelfHealingPolicy",
]
