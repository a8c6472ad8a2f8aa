"""The rho <= 1 greedy scheme: allocate passive slots (Sec. IV-B, Thm. 4.4).

When recharge is faster than discharge (rho <= 1), a sensor can stay
active for ``1/rho`` slots per period and needs only one passive slot
to recharge.  The paper flips the greedy question: instead of choosing
when each sensor is *on*, start from "everybody on all the time" and
choose each sensor's single *off* (passive) slot so as to minimize the
decremental utility.  The resulting schedule is feasible and keeps the
1/2-approximation (Thm. 4.4).

Both variants run the drivers of :mod:`repro.core.greedy` in the
removing direction.  In the lazy one the cached decrements are *lower
bounds* of the true current decrements (removing other sensors from a
slot can only make a sensor's own removal hurt more, by
submodularity), so popping the min of a min-heap and re-checking
freshness is again exact, up to the rounding caveat of
:mod:`repro.core.greedy`.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from repro.core.greedy import (
    _EVALS_HELP,
    GreedyTrace,
    _run_lazy,
    _run_naive,
    _slot_functions,
)
from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.obs.registry import get_registry
from repro.utility.incremental import flush_ops, make_slot_evaluators
from repro.utility.target_system import PerSlotUtility


def greedy_passive_schedule(
    problem: SchedulingProblem,
    lazy: bool = True,
    slot_utilities: Optional[PerSlotUtility] = None,
    trace: Optional[GreedyTrace] = None,
) -> PeriodicSchedule:
    """Allocate every sensor's passive slot greedily (Sec. IV-B).

    Requires the rho <= 1 regime.  Returns a PASSIVE_SLOT-mode
    :class:`~repro.core.schedule.PeriodicSchedule`: each sensor is
    active in all slots of the period except its assigned passive slot.

    The trace, if provided, records each (sensor, passive-slot) choice;
    ``gain`` holds the *negated decrement* (the larger, the cheaper the
    removal) and ``total_after`` the remaining schedule utility.
    """
    if problem.rho > 1:
        raise ValueError(
            f"greedy_passive_schedule requires rho <= 1 (got rho={problem.rho:g}); "
            "use greedy_schedule for rho > 1"
        )
    T = problem.slots_per_period
    # Every slot starts from the *same* everyone-on frozenset: sharing
    # the object keeps iteration order -- and hence float accumulation
    # -- identical to the legacy shared-set code.
    everyone = frozenset(problem.sensors)
    evaluators = make_slot_evaluators(_slot_functions(problem, slot_utilities))
    for evaluator in evaluators:
        evaluator.reset(everyone)
    candidates = product(problem.sensors, range(T))
    run = _run_lazy if lazy else _run_naive
    assignment, steps, evaluations = run(evaluators, candidates, remove=True)
    get_registry().counter(
        "repro_greedy_marginal_evals_total",
        _EVALS_HELP,
        variant="passive-lazy" if lazy else "passive-naive",
    ).inc(evaluations)
    flush_ops(evaluators)
    if trace is not None:
        trace.steps = steps
    return PeriodicSchedule(
        slots_per_period=T,
        assignment=assignment,
        mode=ScheduleMode.PASSIVE_SLOT,
    )

