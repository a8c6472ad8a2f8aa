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
  deterministic tie-breaking; only the work is reduced.  (Identical
  as long as rounding keeps the evaluations submodular: where it does
  not, a stale cached score overstates the fresh one by an ulp and the
  two may pick different members of a float near-tie.)

The two drivers, :func:`_run_lazy` and :func:`_run_naive`, are shared
with the rho <= 1 passive-slot scheme
(:mod:`repro.core.greedy_passive`), which runs the same hill-climb in
the other direction -- measure each removal's loss, remove the
cheapest -- and with :func:`repro.core.repair.greedy_repair`, which
restricts the candidate pairs and breaks gain ties by a rank.

Both variants record a :class:`GreedyTrace` of the placement order, the
data behind the paper's Fig. 4 walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.obs import tracing
from repro.obs.registry import get_registry
from repro.utility.base import UtilityFunction
from repro.utility.incremental import (
    IncrementalEvaluator,
    flush_ops,
    make_slot_evaluators,
)
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
    T = problem.slots_per_period
    evaluators = make_slot_evaluators(_slot_functions(problem, slot_utilities))
    candidates = product(problem.sensors, range(T))
    variant = "lazy" if lazy else "naive"
    with tracing.span("greedy", variant=variant):
        run = _run_lazy if lazy else _run_naive
        assignment, steps, evaluations = run(evaluators, candidates)
        get_registry().counter(
            "repro_greedy_marginal_evals_total", _EVALS_HELP, variant=variant
        ).inc(evaluations)
        flush_ops(evaluators)
    if trace is not None:
        trace.steps = steps
    return PeriodicSchedule(
        slots_per_period=T,
        assignment=assignment,
        mode=ScheduleMode.ACTIVE_SLOT,
    )


#: What both drivers return: the sensor -> slot map, the placement
#: history and the number of gain/loss evaluations made.
_Run = Tuple[Dict[int, int], List[GreedyStep], int]


def _run_naive(
    evaluators: Sequence[IncrementalEvaluator],
    candidates: Iterable[Tuple[int, int]],
    tie_rank: Optional[Callable[[int, int], int]] = None,
    remove: bool = False,
) -> _Run:
    """The literal hill-climb, and the lazy driver's differential oracle.

    Every step measures every candidate (sensor, slot) pair of a sensor
    not yet placed -- ``gain`` in the slot's evaluator, or ``loss`` when
    ``remove`` -- and commits the pair with the least key ``(score,
    rank, sensor, slot)``, where ``score`` is ``-gain`` (or ``loss``)
    and ``rank`` is ``tie_rank(sensor, slot)`` (0 without one).  The
    committed pair is added to (removed from) its slot's evaluator.
    A step's ``gain`` is ``-score``; ``total_after`` accumulates from 0
    when adding, from the slots' current values when removing.

    Scores negate the measured value rather than multiply it by a sign:
    a zero gain may be the int ``0``, and the traces keep its type.
    """
    measure = [e.loss if remove else e.gain for e in evaluators]
    commit = [e.remove if remove else e.add for e in evaluators]
    pairs = [
        (0 if tie_rank is None else tie_rank(sensor, slot), sensor, slot)
        for sensor, slot in candidates
    ]
    total = sum(e.value() for e in evaluators) if remove else 0.0
    assignment: Dict[int, int] = {}
    steps: List[GreedyStep] = []
    evaluations = 0
    while True:
        best: Optional[Tuple[float, int, int, int]] = None
        for rank, sensor, slot in pairs:
            if sensor in assignment:
                continue
            value = measure[slot](sensor)
            evaluations += 1
            key = (value if remove else -value, rank, sensor, slot)
            if best is None or key < best:
                best = key
        if best is None:
            return assignment, steps, evaluations
        score, _, sensor, slot = best
        commit[slot](sensor)
        assignment[sensor] = slot
        gain = -score
        total += gain
        steps.append(GreedyStep(len(steps), sensor, slot, gain, total))


def _run_lazy(
    evaluators: Sequence[IncrementalEvaluator],
    candidates: Iterable[Tuple[int, int]],
    tie_rank: Optional[Callable[[int, int], int]] = None,
    remove: bool = False,
) -> _Run:
    """CELF-style lazy greedy with per-slot version stamps.

    Same arguments and result as :func:`_run_naive`.  Heap entries are
    ``(score, rank, sensor, slot, slot_version)``.  A popped entry whose
    version matches the slot's current version is exact -- the slot set
    has not changed since the score was computed, and scores in other
    slots were unaffected -- so it can be taken immediately if the
    sensor is still unplaced.  Stale entries are recomputed and pushed
    back.  Correctness relies on per-slot submodularity: a recomputed
    gain never exceeds the cached one (nor a recomputed loss falls
    below it), so the popped minimum of fresh entries is the global
    minimum.
    """
    measure = [e.loss if remove else e.gain for e in evaluators]
    commit = [e.remove if remove else e.add for e in evaluators]
    total = sum(e.value() for e in evaluators) if remove else 0.0
    slot_version = [0] * len(evaluators)
    remaining = set()
    heap: List[Tuple[float, int, int, int, int]] = []
    for sensor, slot in candidates:
        rank = 0 if tie_rank is None else tie_rank(sensor, slot)
        value = measure[slot](sensor)
        heap.append((value if remove else -value, rank, sensor, slot, 0))
        remaining.add(sensor)
    evaluations = len(heap)
    # Every (sensor, slot) pair is one unique entry, so heapify pops the
    # same sequence as pushing the entries one by one.
    heapify(heap)

    assignment: Dict[int, int] = {}
    steps: List[GreedyStep] = []
    pop, push = heappop, heappush
    while remaining and heap:
        score, rank, sensor, slot, version = pop(heap)
        if sensor not in remaining:
            continue
        if version != slot_version[slot]:
            value = measure[slot](sensor)
            evaluations += 1
            fresh = value if remove else -value
            push(heap, (fresh, rank, sensor, slot, slot_version[slot]))
            continue
        remaining.remove(sensor)
        commit[slot](sensor)
        slot_version[slot] += 1
        assignment[sensor] = slot
        gain = -score
        total += gain
        steps.append(GreedyStep(len(steps), sensor, slot, gain, total))
    return assignment, steps, evaluations
