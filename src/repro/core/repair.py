"""Incremental schedule repair over a surviving node set.

When nodes die mid-deployment the planned schedule keeps commanding
ghosts: every slot that scheduled a dead sensor silently earns less
utility than planned.  Re-running Algorithm 1 from scratch over the
survivors is the right *combinatorial* answer -- greedy is fast and the
1/2-approximation (Lemma 4.1) holds for whatever ground set it is given
-- but a live network adds a constraint the offline planner never sees:
each survivor is mid-cycle, and a node that activated two slots ago
cannot honour a new activation until it has recharged.

:func:`greedy_repair` runs Algorithm 1's lazy driver
(:func:`repro.core.greedy._run_lazy`) on a narrower candidate set: an
explicit sensor subset (the survivors), each paired only with its
*allowed slots* (the period slots the sensor can feasibly serve given
its current charge).  With every sensor allowed everywhere it is
Algorithm 1 restricted to the subset, bit for bit; the selected pairs
use the same deterministic tie-breaking (higher gain, then the tie
rank below, then lower sensor id, then lower slot), so repairs are
reproducible.

Greedy over a symmetric instance has many equivalent optima, and an
arbitrary relabeling of the incumbent plan is a terrible repair: every
sensor moved to an earlier phase forfeits one activation while it
re-synchronizes, for zero steady-state benefit.  The ``prefer``
argument breaks gain ties toward each sensor's incumbent slot (then
toward later slots, which re-phase for free), so the repair is
*incremental*: it only moves a sensor against its current phase when
that strictly increases per-period utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.greedy import _EVALS_HELP, GreedyTrace, _run_lazy
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.obs.registry import get_registry
from repro.runtime.retry import remaining_budget
from repro.utility.base import UtilityFunction
from repro.utility.incremental import IncrementalEvaluator, flush_ops, make_evaluator


def greedy_repair(
    sensors: Iterable[int],
    slots_per_period: int,
    utility: UtilityFunction,
    allowed_slots: Optional[Mapping[int, Sequence[int]]] = None,
    prefer: Optional[Mapping[int, int]] = None,
    trace: Optional[GreedyTrace] = None,
) -> PeriodicSchedule:
    """Re-plan one period over ``sensors`` with per-sensor slot constraints.

    Parameters
    ----------
    sensors:
        The surviving ground set (any ids; need not be contiguous).
    slots_per_period:
        ``T`` of the charging period (rho >= 1 regime: one active slot
        per sensor per period).
    utility:
        The per-slot utility to hill-climb, evaluated with the same
        marginal-gain machinery as Algorithm 1.
    allowed_slots:
        Optional map sensor -> slots it may be assigned.  Sensors absent
        from the map may take any slot; an explicitly empty entry is an
        error (a sensor that can never activate should be excluded from
        ``sensors`` instead).
    prefer:
        Optional map sensor -> incumbent slot.  When marginal gains
        tie, the incumbent slot wins, then any later slot (a later
        phase shift costs nothing in transition), then the default
        (sensor id, slot) order.  Sensors absent from the map are
        unaffected.
    trace:
        Optional :class:`~repro.core.greedy.GreedyTrace` filled with the
        placement history.

    Returns
    -------
    A :class:`~repro.core.schedule.PeriodicSchedule` in ACTIVE_SLOT mode
    assigning each surviving sensor one feasible slot.
    """
    if slots_per_period < 1:
        raise ValueError(
            f"slots_per_period must be >= 1, got {slots_per_period}"
        )
    T = slots_per_period
    sensor_list = sorted(set(sensors))
    allowed: Dict[int, Tuple[int, ...]] = {}
    for v in sensor_list:
        slots = (
            tuple(range(T))
            if allowed_slots is None or v not in allowed_slots
            else tuple(sorted(set(allowed_slots[v])))
        )
        if not slots:
            raise ValueError(
                f"sensor {v} has no allowed slots; drop it from the repair "
                "instead of constraining it to nothing"
            )
        for t in slots:
            if not 0 <= t < T:
                raise ValueError(
                    f"allowed slot {t} for sensor {v} outside 0..{T - 1}"
                )
        allowed[v] = slots

    def tie_rank(v: int, t: int) -> int:
        # 0 = incumbent slot, 1 = later slot or no incumbent (free),
        # 2 = earlier than incumbent (costs one missed activation).
        if prefer is None or v not in prefer:
            return 1
        if t == prefer[v]:
            return 0
        return 1 if t > prefer[v] else 2

    evaluators = [make_evaluator(utility) for _ in range(T)]
    candidates = ((v, t) for v in sensor_list for t in allowed[v])
    assignment, steps, evaluations = _run_lazy(evaluators, candidates, tie_rank)
    get_registry().counter(
        "repro_greedy_marginal_evals_total", _EVALS_HELP, variant="repair"
    ).inc(evaluations)
    flush_ops(evaluators)
    if trace is not None:
        trace.steps = steps
    return PeriodicSchedule(
        slots_per_period=T,
        assignment=assignment,
        mode=ScheduleMode.ACTIVE_SLOT,
    )


@dataclass
class ScopedRepairReport:
    """What a :func:`scoped_repair` pass did."""

    moves: int = 0
    rounds: int = 0
    evaluations: int = 0
    utility_gain: float = 0.0
    dirty_history: List[int] = field(default_factory=list)


def scoped_repair(
    assignment: Dict[int, int],
    evaluators: Sequence[IncrementalEvaluator],
    live: Iterable[int],
    dirty_slots: Iterable[int],
    max_rounds: int = 64,
    tolerance: float = 1e-12,
    deadline: Optional[float] = None,
    report: Optional[ScopedRepairReport] = None,
) -> int:
    """Delta-scoped best-move repair around a set of *dirty* slots.

    The warm-start entry point for long-lived sessions
    (:mod:`repro.sessions`): after a small edit -- one sensor failed,
    one recovered, one weight shifted -- only the touched slots can
    have profitable incoming moves, so restricting the search to them
    (and cascading to any slot a move vacates) does the useful part of
    a full :func:`~repro.core.local_search.local_search` sweep in
    O(|live|) per round instead of O(|live| * T) per sweep.

    ``assignment`` and ``evaluators`` are mutated in place: the
    evaluators must already reflect ``assignment``'s slot sets (one
    evaluator per slot, ACTIVE_SLOT semantics).  Every live sensor must
    be assigned -- place recovered/new sensors with
    :func:`best_slot_for` first.

    Each round pops one dirty slot ``t`` and finds the single best move
    of a live sensor into ``t`` (gain at ``t`` minus the loss at its
    current home).  An improving move re-dirties both slots; the loop
    ends when no dirty slot has an improving move, after ``max_rounds``
    rounds (a safety bound; each move strictly increases a bounded
    objective), or when ``deadline`` (absolute ``time.monotonic()``)
    expires -- the caller's rollback contract makes a mid-repair
    :class:`~repro.runtime.retry.DeadlineExceededError` safe.

    Returns the number of moves applied.
    """
    T = len(evaluators)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    live_sensors = sorted(set(live))
    for v in live_sensors:
        if v not in assignment:
            raise ValueError(
                f"live sensor {v} has no assigned slot; place it with "
                "best_slot_for before scoped_repair"
            )
    queue: List[int] = []
    queued: Set[int] = set()

    def enqueue(slot: int) -> None:
        if 0 <= slot < T and slot not in queued:
            queue.append(slot)
            queued.add(slot)

    for slot in dirty_slots:
        enqueue(slot)

    moves = 0
    rounds = 0
    evaluations = 0
    total_gain = 0.0
    while queue and rounds < max_rounds:
        remaining_budget(deadline)
        rounds += 1
        target = queue.pop(0)
        queued.discard(target)
        if report is not None:
            report.dirty_history.append(target)
        best_gain = tolerance
        best_sensor: Optional[int] = None
        target_gain = evaluators[target].gain
        for sensor in live_sensors:
            home = assignment[sensor]
            if home == target:
                continue
            incoming = target_gain(sensor)
            evaluations += 1
            # Monotone utilities have loss >= 0, so a move whose raw
            # incoming gain does not beat the incumbent can never win
            # -- skip the (more expensive) loss query entirely.
            if incoming <= best_gain:
                continue
            gain = incoming - evaluators[home].loss(sensor)
            evaluations += 1
            if gain > best_gain:
                best_gain = gain
                best_sensor = sensor
        if best_sensor is None:
            continue
        home = assignment[best_sensor]
        evaluators[home].remove(best_sensor)
        evaluators[target].add(best_sensor)
        assignment[best_sensor] = target
        total_gain += best_gain
        moves += 1
        # The vacated slot may now profitably pull a sensor in, and the
        # filled slot's gains all changed: both are dirty again.
        enqueue(home)
        enqueue(target)

    get_registry().counter(
        "repro_greedy_marginal_evals_total", _EVALS_HELP, variant="scoped-repair"
    ).inc(evaluations)
    if report is not None:
        report.moves = moves
        report.rounds = rounds
        report.evaluations += evaluations
        report.utility_gain = total_gain
    return moves


def best_slot_for(
    sensor: int,
    evaluators: Sequence[IncrementalEvaluator],
    prefer: Optional[int] = None,
) -> int:
    """The slot where ``sensor`` currently adds the most utility.

    Gain ties break toward ``prefer`` (a recovered sensor's old phase
    costs nothing to keep), then toward the lower slot id -- the same
    deterministic order the greedy scheme uses.
    """
    if not evaluators:
        raise ValueError("no slots to place into")
    best_slot = 0
    best_key: Optional[Tuple[float, int, int]] = None
    for slot, evaluator in enumerate(evaluators):
        gain = evaluator.gain(sensor)
        key = (gain, 1 if slot == prefer else 0, -slot)
        if best_key is None or key > best_key:
            best_key = key
            best_slot = slot
    return best_slot
