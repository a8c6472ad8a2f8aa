"""Algorithm 1: the Greedy Hill-Climbing Activation Scheme (Sec. IV-A-2).

The scheme schedules sensors one at a time: at every step it picks the
(sensor, slot) pair with the maximum *incremental* utility given the
assignments already made, until all ``n`` sensors are placed -- exactly
``n`` steps.  The paper proves (Lemma 4.1) the resulting one-period
schedule achieves at least 1/2 of the optimum, and (Thm. 4.3) that
repeating it each period keeps the 1/2 bound for any ``L = alpha T``.

Two equivalent implementations are provided:

- ``lazy=False``: the literal algorithm -- every step scans all
  remaining (sensor, slot) pairs.  O(n^2 T) utility evaluations.
- ``lazy=True`` (default): a CELF-style lazy evaluation.  The marginal
  gain of placing ``v`` in slot ``t`` only changes when some other
  sensor is placed in the *same* slot ``t`` (slots do not interact),
  and by submodularity it can only *decrease*.  We therefore keep a
  max-heap of cached gains tagged with a per-slot version number and
  re-evaluate only stale heads.  The selected pairs -- and hence the
  output schedule -- are identical to the naive scan under the same
  deterministic tie-breaking; only the work is reduced.

Both variants record a :class:`GreedyTrace` of the placement order, the
data behind the paper's Fig. 4 walkthrough.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.obs import tracing
from repro.obs.registry import get_registry
from repro.utility.base import UtilityFunction
from repro.utility.incremental import flush_ops, make_slot_evaluators
from repro.utility.target_system import PerSlotUtility

#: Help text for the marginal-evaluation counter (shared by variants).
_EVALS_HELP = "Marginal-utility evaluations by solver variant"


@dataclass(frozen=True)
class GreedyStep:
    """One placement made by the greedy scheme."""

    order: int  # 0-based step number
    sensor: int
    slot: int
    gain: float  # incremental utility of this placement
    total_after: float  # cumulative schedule utility after the step


@dataclass
class GreedyTrace:
    """The full placement history (Fig. 4's step-by-step table)."""

    steps: List[GreedyStep] = field(default_factory=list)

    @property
    def total_utility(self) -> float:
        return self.steps[-1].total_after if self.steps else 0.0

    def placements(self) -> List[Tuple[int, int]]:
        """(sensor, slot) pairs in placement order."""
        return [(s.sensor, s.slot) for s in self.steps]

    def gains(self) -> List[float]:
        return [s.gain for s in self.steps]


def _slot_functions(
    problem: SchedulingProblem,
    slot_utilities: Optional[PerSlotUtility],
) -> Sequence[UtilityFunction]:
    T = problem.slots_per_period
    if slot_utilities is None:
        return [problem.utility] * T
    if slot_utilities.num_slots != T:
        raise ValueError(
            f"slot_utilities covers {slot_utilities.num_slots} slots but the "
            f"period has {T}"
        )
    return [slot_utilities.slot_fn(t) for t in range(T)]


def greedy_schedule(
    problem: SchedulingProblem,
    lazy: bool = True,
    slot_utilities: Optional[PerSlotUtility] = None,
    trace: Optional[GreedyTrace] = None,
) -> PeriodicSchedule:
    """Run Algorithm 1 and return the one-period schedule.

    Parameters
    ----------
    problem:
        The instance.  Must be in the rho >= 1 regime (each sensor gets
        exactly one active slot per period); use
        :func:`~repro.core.greedy_passive.greedy_passive_schedule` for
        rho <= 1.
    lazy:
        Use the lazy-evaluation acceleration (same output, less work).
    slot_utilities:
        Optional per-slot utility override (defaults to the problem's
        stationary utility in every slot).  Used internally by tests of
        the Lemma 4.1 residual argument.
    trace:
        Optional trace object to fill with the placement history.

    Returns
    -------
    A feasible :class:`~repro.core.schedule.PeriodicSchedule` assigning
    every sensor exactly one active slot.  Repeat with
    :meth:`~repro.core.schedule.PeriodicSchedule.unroll` for L = alpha T
    (Thm. 4.3 guarantees the approximation carries over).
    """
    if not problem.is_sparse_regime:
        raise ValueError(
            f"greedy_schedule requires rho >= 1 (got rho={problem.rho:g}); "
            "use greedy_passive_schedule for rho <= 1"
        )
    functions = _slot_functions(problem, slot_utilities)
    with tracing.span("greedy", variant="lazy" if lazy else "naive"):
        if lazy:
            assignment, steps = _run_lazy(problem, functions)
        else:
            assignment, steps = _run_naive(problem, functions)
    if trace is not None:
        trace.steps = steps
    return PeriodicSchedule(
        slots_per_period=problem.slots_per_period,
        assignment=assignment,
        mode=ScheduleMode.ACTIVE_SLOT,
    )


def _run_naive(
    problem: SchedulingProblem,
    functions: Sequence[UtilityFunction],
) -> Tuple[dict, List[GreedyStep]]:
    """Literal Algorithm 1: full scan of remaining pairs each step.

    Candidates are sorted once up front and placed sensors skipped --
    the visit order is identical to re-sorting the remaining set every
    step, without the per-step O(n log n).  Marginal gains come from
    per-slot incremental evaluators whose answers are bit-equal to
    ``functions[slot].marginal`` on the running slot sets.
    """
    T = problem.slots_per_period
    candidates = sorted(problem.sensors)
    placed: Set[int] = set()
    evaluators = make_slot_evaluators(functions)
    assignment: dict = {}
    steps: List[GreedyStep] = []
    total = 0.0
    evaluations = 0
    for order in range(problem.num_sensors):
        best: Optional[Tuple[float, int, int]] = None
        for sensor in candidates:
            if sensor in placed:
                continue
            for slot in range(T):
                gain = evaluators[slot].gain(sensor)
                evaluations += 1
                # Deterministic tie-break: higher gain, then lower sensor
                # id, then lower slot id.
                key = (gain, -sensor, -slot)
                if best is None or key > best:
                    best = key
                    best_pair = (sensor, slot)
        assert best is not None
        sensor, slot = best_pair
        gain = best[0]
        placed.add(sensor)
        evaluators[slot].add(sensor)
        assignment[sensor] = slot
        total += gain
        steps.append(
            GreedyStep(
                order=order, sensor=sensor, slot=slot, gain=gain, total_after=total
            )
        )
    get_registry().counter(
        "repro_greedy_marginal_evals_total", _EVALS_HELP, variant="naive"
    ).inc(evaluations)
    flush_ops(evaluators)
    return assignment, steps


def _run_lazy(
    problem: SchedulingProblem,
    functions: Sequence[UtilityFunction],
) -> Tuple[dict, List[GreedyStep]]:
    """CELF-style lazy greedy with per-slot version stamps.

    Heap entries are ``(-gain, sensor, slot, slot_version)``.  A popped
    entry whose version matches the slot's current version is exact --
    the slot set has not changed since the gain was computed, and gains
    in other slots were unaffected -- so it can be taken immediately if
    the sensor is still unplaced.  Stale entries are recomputed and
    pushed back.  Correctness relies on per-slot submodularity: a
    recomputed gain never exceeds the cached one, so the popped maximum
    of fresh entries is the global maximum.
    """
    T = problem.slots_per_period
    remaining: Set[int] = set(problem.sensors)
    evaluators = make_slot_evaluators(functions)
    slot_version = [0] * T
    assignment: dict = {}
    steps: List[GreedyStep] = []
    total = 0.0

    heap: List[Tuple[float, int, int, int]] = []
    for sensor in problem.sensors:
        for slot in range(T):
            heap.append((-evaluators[slot].gain(sensor), sensor, slot, 0))
    evaluations = len(heap)
    # Every (sensor, slot) pair is one unique entry, so heapify pops the
    # same sequence as pushing the entries one by one.
    heapq.heapify(heap)

    order = 0
    while remaining and heap:
        neg_gain, sensor, slot, version = heapq.heappop(heap)
        if sensor not in remaining:
            continue
        if version != slot_version[slot]:
            gain = evaluators[slot].gain(sensor)
            evaluations += 1
            heapq.heappush(heap, (-gain, sensor, slot, slot_version[slot]))
            continue
        gain = -neg_gain
        remaining.remove(sensor)
        evaluators[slot].add(sensor)
        slot_version[slot] += 1
        assignment[sensor] = slot
        total += gain
        steps.append(
            GreedyStep(
                order=order, sensor=sensor, slot=slot, gain=gain, total_after=total
            )
        )
        order += 1
    get_registry().counter(
        "repro_greedy_marginal_evals_total", _EVALS_HELP, variant="lazy"
    ).inc(evaluations)
    flush_ops(evaluators)
    return assignment, steps
