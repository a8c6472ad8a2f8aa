"""A long-lived scheduling session: incumbent schedule + delta re-solve.

A :class:`Session` is the stateful counterpart of one
:func:`repro.core.solver.solve` call.  It holds

- the current :class:`~repro.core.problem.SchedulingProblem` (which
  deltas evolve),
- the failed-sensor set (live sensors = all minus failed),
- the incumbent one-period assignment, and
- one live :class:`~repro.utility.incremental.IncrementalEvaluator`
  per slot, kept exactly in sync with the assignment,

and consumes :class:`~repro.sessions.deltas.Delta` edits.  Each apply
picks the cheapest sound re-solve:

``warm``
    The default.  Failures drop the sensor and re-balance around its
    vacated slot; recoveries/additions place with
    :func:`~repro.core.repair.best_slot_for`; weight edits re-base the
    evaluators and sweep every slot.  All of it runs through
    :func:`~repro.core.repair.scoped_repair` -- O(live) per cascade
    round, no heap rebuild, which is where the delta-vs-cold speedup
    in docs/SESSIONS.md ("Benchmarks") comes from.
``cold``
    Structural deltas (``T`` changed) and every delta of a
    ``consistency="exact"`` session re-run the greedy planner over the
    live set: the width-1 batch kernel where the family has one, else
    :func:`~repro.core.repair.greedy_repair`; with no constraints both
    are bit-for-bit Algorithm 1 restricted to the survivors.
    ``greedy+ls`` sessions add the local-search polish.
``memo``
    States already visited this session (fingerprint match) re-adopt
    their stored assignment outright; a failure-free state additionally
    consults the global :class:`~repro.runtime.cache.ScheduleCache`,
    because its fingerprint *is* the one-shot solve key
    (:func:`~repro.runtime.fingerprint.session_fingerprint`).

Consistency contract (see docs/SESSIONS.md): ``exact`` sessions always
answer exactly what a cold re-plan over the current live set would;
``warm`` sessions answer a repaired incumbent -- always feasible, never
worse than the unrepaired incumbent, and equal to the cold answer for
the homogeneous family (balanced counts are balanced counts).  The
:meth:`Session.full_resolve` escape hatch re-plans from a from-scratch
reconstruction of the instance and *asserts* the in-memory state
produces the identical plan, so state corruption is detectable, not
silent.

Every apply is transactional: state (assignment, evaluators via their
snapshot/restore tokens, problem, failed set, lineage) is snapshotted
first and restored on *any* failure -- a delta that raises leaves the
session exactly where it was, counted in
``repro_session_rollbacks_total``.  The slot evaluators' op counts
reach ``repro_utility_incremental_ops_total`` once per apply, on commit
or rollback, and before the evaluator list is replaced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.batched.batch import InstanceBatch, family_of
from repro.batched.greedy import batched_greedy
from repro.core.problem import SchedulingProblem
from repro.core.repair import best_slot_for, greedy_repair, scoped_repair
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.energy.period import ChargingPeriod
from repro.io.serialization import (
    utility_from_dict,
    utility_to_dict,
)
from repro.obs import events as obs_events
from repro.obs.registry import get_registry
from repro.runtime.fingerprint import (
    UncacheableError,
    canonical_json,
    chain_fingerprint,
    problem_to_dict,
    session_fingerprint,
)
from repro.runtime.retry import remaining_budget
from repro.sessions.deltas import Delta, DeltaEffect, apply_delta
from repro.utility.base import UtilityFunction
from repro.utility.incremental import (
    IncrementalEvaluator,
    flush_ops,
    make_evaluator,
)

CONSISTENCY_MODES: Tuple[str, ...] = ("warm", "exact")

#: Methods a session can warm-start.  The cold path must be expressible
#: as greedy_repair(+local_search) over an arbitrary live subset, which
#: rules out the randomized and LP methods.
SESSION_METHODS: Tuple[str, ...] = ("greedy", "greedy+ls")

_DELTAS_HELP = "Session deltas by kind and outcome"
_RESOLVE_HELP = "Session re-solve wall time by resolve mode"
_ROLLBACKS_HELP = "Session delta rollbacks (state restored after a failure)"
_CACHE_HITS_HELP = "Session re-solves answered from a cache (memo/global)"

#: Lineage entries kept in memory/checkpoints (the fingerprints still
#: chain over the full history; only the stored tail is bounded).
MAX_LINEAGE = 256


class SessionError(RuntimeError):
    """Base session failure; ``code`` is stable for the wire."""

    code = "session-error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class SessionClosedError(SessionError):
    """The session was deleted/evicted; in-flight work must not commit."""

    code = "session-evicted"


class SessionStateError(SessionError):
    """An invariant broke; the failing apply was rolled back."""

    code = "session-state"


class ColdResolveUnavailableError(SessionError):
    """A structural delta needs a cold solve the caller disallowed."""

    code = "degraded-unavailable"


def period_utility_of(
    assignment: Dict[int, int], utility: UtilityFunction, slots: int
) -> float:
    """Canonical per-period utility of an assignment.

    Slot sets are built as ``frozenset(sorted(members))`` so two
    independently maintained copies of the same assignment always sum
    the same floats in the same order -- the bit-for-bit anchor the
    differential suite (and :meth:`Session.full_resolve`) compares on.
    """
    members: Dict[int, List[int]] = {}
    for v, slot in assignment.items():
        members.setdefault(slot, []).append(v)
    total = 0.0
    for t in range(slots):
        total += utility.value(frozenset(sorted(members.get(t, ()))))
    return total


def problem_to_state(problem: SchedulingProblem) -> Dict[str, Any]:
    """Checkpoint document for a problem (serializable families only)."""
    return {
        "num_sensors": problem.num_sensors,
        "discharge_time": problem.period.discharge_time,
        "recharge_time": problem.period.recharge_time,
        "num_periods": problem.num_periods,
        "utility": utility_to_dict(problem.utility),
    }


def problem_from_state(state: Dict[str, Any]) -> SchedulingProblem:
    """Inverse of :func:`problem_to_state`."""
    return SchedulingProblem(
        num_sensors=int(state["num_sensors"]),
        period=ChargingPeriod(
            discharge_time=float(state["discharge_time"]),
            recharge_time=float(state["recharge_time"]),
        ),
        utility=utility_from_dict(state["utility"]),
        num_periods=int(state["num_periods"]),
    )


@dataclass
class DeltaOutcome:
    """What one committed apply (or full_resolve) did."""

    seq: int
    kind: str
    resolve: str  # "warm" | "cold" | "memo" | "none"
    moves: int = 0
    seconds: float = 0.0
    period_utility: float = 0.0
    fingerprint: Optional[str] = None
    lineage: Optional[str] = None
    degraded: bool = False
    structural: bool = False


@dataclass
class _Snapshot:
    problem: SchedulingProblem
    failed: Set[int]
    assignment: Dict[int, int]
    evaluators_ref: Any
    evaluator_tokens: Optional[List[Tuple[Any, ...]]]
    last_slot: Dict[int, int]
    seq: int
    state_fingerprint: Optional[str]
    lineage_head: Optional[str]
    lineage_len: int


class Session:
    """One mutable scheduling instance under a stream of deltas."""

    def __init__(
        self,
        problem: SchedulingProblem,
        method: str = "greedy",
        seed: Optional[int] = None,
        session_id: str = "",
        consistency: str = "warm",
        cache=None,
        incumbent_assignment: Optional[Dict[int, int]] = None,
        failed: Iterable[int] = (),
        seq: int = 0,
        on_commit: Optional[Callable[["Session"], None]] = None,
    ) -> None:
        if method not in SESSION_METHODS:
            raise ValueError(
                f"sessions support methods {list(SESSION_METHODS)}, "
                f"got {method!r}"
            )
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"consistency must be one of {list(CONSISTENCY_MODES)}, "
                f"got {consistency!r}"
            )
        if not problem.is_sparse_regime:
            raise ValueError(
                "sessions repair sparse-regime (rho >= 1) schedules; "
                f"got rho={problem.rho:g}"
            )
        self.session_id = session_id
        self.method = method
        self.seed = seed
        self.consistency = consistency
        self.cache = cache
        self.on_commit = on_commit
        self.problem = problem
        self.failed: Set[int] = set(failed)
        bad = [v for v in self.failed if not 0 <= v < problem.num_sensors]
        if bad:
            raise ValueError(f"failed sensors {bad} outside the ground set")
        self.seq = int(seq)
        self.closed = False
        self.released = False
        self._last_slot: Dict[int, int] = {}
        self._memo: Dict[str, Dict[int, int]] = {}
        self._memo_order: List[str] = []
        self._memo_capacity = 16
        self._problem_text: Tuple[Any, Any] = (None, None)
        self.evaluators: List[IncrementalEvaluator] = []

        self.lineage: List[str] = []
        self.state_fingerprint = self._fingerprint()

        if incumbent_assignment is not None:
            live = self.live_sensors()
            if set(incumbent_assignment) != live:
                raise ValueError(
                    "incumbent assignment does not cover exactly the live "
                    "sensor set"
                )
            self.assignment = dict(incumbent_assignment)
            resolve = "adopted"
        else:
            self.assignment, resolve = self._initial_assignment()
        self._rebuild_evaluators(self.problem.utility, self.assignment)
        if self.consistency == "warm" and resolve != "adopted":
            # Adopted incumbents (checkpoint restore) must reproduce
            # the persisted state bit-for-bit; fresh plans get polished
            # so the session starts at a move-local optimum.
            self._polish()
        self._check_invariants()
        flush_ops(self.evaluators)
        self._remember(self.state_fingerprint, self.assignment)
        self.created_resolve = resolve
        obs_events.emit(
            "session.created",
            id=self.session_id,
            method=method,
            consistency=consistency,
            num_sensors=problem.num_sensors,
            resolve=resolve,
        )

    # -- basic views ---------------------------------------------------

    def live_sensors(self) -> Set[int]:
        return set(range(self.problem.num_sensors)) - self.failed

    @property
    def slots_per_period(self) -> int:
        return self.problem.slots_per_period

    def period_utility(self) -> float:
        """Canonical current per-period utility (see docs/SESSIONS.md)."""
        self._ensure_open()
        return period_utility_of(
            self.assignment, self.problem.utility, self.slots_per_period
        )

    def schedule(self) -> PeriodicSchedule:
        self._ensure_open()
        return PeriodicSchedule(
            slots_per_period=self.slots_per_period,
            assignment=dict(self.assignment),
            mode=ScheduleMode.ACTIVE_SLOT,
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Mark evicted: nothing may commit after this (flag only --
        resource release is the store's job once no holder remains)."""
        self.closed = True

    def release(self) -> None:
        """Free the live solver state.  Only safe with no in-flight
        holder; the store guarantees that by refcounting checkouts."""
        self.closed = True
        self.released = True
        flush_ops(self.evaluators)
        self.evaluators = []
        self._memo.clear()
        self._memo_order.clear()

    def _ensure_open(self) -> None:
        if self.released:
            raise SessionClosedError(
                f"session {self.session_id or '?'} resources were released"
            )
        if self.closed:
            raise SessionClosedError(
                f"session {self.session_id or '?'} was deleted"
            )

    # -- the one write path --------------------------------------------

    def apply(
        self,
        delta: Delta,
        deadline: Optional[float] = None,
        allow_cold: bool = True,
        effect: Optional[DeltaEffect] = None,
    ) -> DeltaOutcome:
        """Apply one delta transactionally; returns the commit record.

        ``deadline`` is an absolute ``time.monotonic()`` bound threaded
        into the repair/re-solve inner loops.  ``allow_cold=False`` is
        the circuit-breaker hook: warm repairs still run (they never
        touch the guarded cold path), a structural delta raises
        :class:`ColdResolveUnavailableError`, and an ``exact`` session
        falls back to a warm repair with ``degraded=True`` on the
        outcome -- mirroring the one-shot degraded contract.

        ``effect`` is ``apply_delta(self.problem, self.failed, delta)``
        when the caller already computed it against the current state
        (the HTTP handler probes it to consult the breaker); it is
        computed here otherwise.

        Any failure (validation, deadline, invariant breach, eviction
        racing the apply) rolls the session back to its pre-delta state
        before the exception propagates.
        """
        self._ensure_open()
        registry = get_registry()
        token = self._snapshot()
        start = time.perf_counter()
        try:
            if effect is None:
                effect = apply_delta(self.problem, self.failed, delta)
            forced_warm = False
            needs_cold = effect.structural or self.consistency == "exact"
            if needs_cold and not allow_cold:
                if effect.structural:
                    raise ColdResolveUnavailableError(
                        f"{delta.kind} changes the period structure and "
                        "needs a cold re-solve, which is currently "
                        "unavailable (circuit breaker open)"
                    )
                needs_cold = False
                forced_warm = True

            self.problem = effect.problem
            self.failed = set(effect.failed)
            next_fingerprint = self._fingerprint()

            memo_hit = (
                next_fingerprint is not None and next_fingerprint in self._memo
            )
            if memo_hit:
                resolve = "memo"
                moves = 0
                self.assignment = dict(self._memo[next_fingerprint])
                self._rebuild_evaluators(self.problem.utility, self.assignment)
                registry.counter(
                    "repro_session_cache_hits_total",
                    _CACHE_HITS_HELP,
                    source="memo",
                ).inc()
            elif needs_cold:
                resolve = "cold"
                moves = 0
                self.assignment = self._cold_assignment(
                    next_fingerprint, deadline
                )
                self._rebuild_evaluators(self.problem.utility, self.assignment)
                if self.consistency == "warm":
                    # A warm session promises a locally-repaired
                    # incumbent; re-establish it after the structural
                    # re-plan so the next delta repairs incrementally.
                    self._polish(deadline)
            else:
                resolve, moves = self._warm_repair(effect, deadline)
            # An exact session forced onto the warm path gave a
            # repaired-incumbent answer, not the exact one it promised.
            degraded = forced_warm and resolve == "warm"
            self._check_invariants()
        except Exception:
            self._restore(token)
            registry.counter(
                "repro_session_rollbacks_total", _ROLLBACKS_HELP
            ).inc()
            registry.counter(
                "repro_session_deltas_total",
                _DELTAS_HELP,
                kind=delta.kind,
                outcome="rolled-back",
            ).inc()
            obs_events.emit(
                "session.rollback", id=self.session_id, delta=delta.kind
            )
            raise
        if self.closed:
            # Eviction raced the resolve: the store already tombstoned
            # this id, so committing now would resurrect freed state.
            self._restore(token)
            registry.counter(
                "repro_session_deltas_total",
                _DELTAS_HELP,
                kind=delta.kind,
                outcome="rolled-back",
            ).inc()
            raise SessionClosedError(
                f"session {self.session_id or '?'} was deleted while the "
                "delta was in flight"
            )
        flush_ops(self.evaluators)

        seconds = time.perf_counter() - start
        self.seq += 1
        self.state_fingerprint = next_fingerprint
        link = self._extend_lineage(delta.to_dict())
        self._remember(next_fingerprint, self.assignment)
        registry.counter(
            "repro_session_deltas_total",
            _DELTAS_HELP,
            kind=delta.kind,
            outcome="ok",
        ).inc()
        registry.histogram(
            "repro_session_resolve_seconds", _RESOLVE_HELP, mode=resolve
        ).observe(seconds)
        utility = self.period_utility()
        obs_events.emit(
            "session.delta",
            id=self.session_id,
            seq=self.seq,
            delta=delta.kind,
            resolve=resolve,
            moves=moves,
            degraded=degraded,
            period_utility=utility,
        )
        outcome = DeltaOutcome(
            seq=self.seq,
            kind=delta.kind,
            resolve=resolve,
            moves=moves,
            seconds=seconds,
            period_utility=utility,
            fingerprint=self.state_fingerprint,
            lineage=link,
            degraded=degraded,
            structural=effect.structural,
        )
        if self.on_commit is not None:
            self.on_commit(self)
        return outcome

    # -- escape hatch --------------------------------------------------

    def full_resolve(self, deadline: Optional[float] = None) -> DeltaOutcome:
        """Cold re-plan from a from-scratch reconstruction, asserted
        equivalent to re-planning the in-memory state.

        The instance is serialized (``problem_to_state``) and rebuilt
        through the family constructors; both the reconstruction and
        the live state are re-planned cold.  A mismatch means the
        incremental bookkeeping corrupted something -- that raises
        :class:`SessionStateError` (after restoring the incumbent), it
        does not get papered over.
        """
        self._ensure_open()
        token = self._snapshot()
        start = time.perf_counter()
        try:
            rebuilt = problem_from_state(problem_to_state(self.problem))
            live = sorted(self.live_sensors())
            fresh = self._plan_cold(rebuilt, live, deadline)
            incumbent_plan = self._plan_cold(self.problem, live, deadline)
            if fresh != incumbent_plan:
                raise SessionStateError(
                    "full-resolve divergence: the re-plan of the live "
                    "session state differs from the re-plan of its "
                    "serialized reconstruction"
                )
            fresh_utility = period_utility_of(
                fresh, rebuilt.utility, rebuilt.slots_per_period
            )
            live_utility = period_utility_of(
                incumbent_plan,
                self.problem.utility,
                self.slots_per_period,
            )
            if fresh_utility != live_utility:
                raise SessionStateError(
                    "full-resolve divergence: equal plans score "
                    f"differently ({fresh_utility!r} vs {live_utility!r}); "
                    "the in-memory utility state is corrupt"
                )
            self.assignment = incumbent_plan
            self._rebuild_evaluators(self.problem.utility, self.assignment)
            self._check_invariants()
        except Exception:
            self._restore(token)
            get_registry().counter(
                "repro_session_rollbacks_total", _ROLLBACKS_HELP
            ).inc()
            raise
        flush_ops(self.evaluators)
        seconds = time.perf_counter() - start
        self.seq += 1
        link = self._extend_lineage({"kind": "full-resolve"})
        self._remember(self.state_fingerprint, self.assignment)
        get_registry().histogram(
            "repro_session_resolve_seconds", _RESOLVE_HELP, mode="cold"
        ).observe(seconds)
        utility = self.period_utility()
        obs_events.emit(
            "session.delta",
            id=self.session_id,
            seq=self.seq,
            delta="full-resolve",
            resolve="cold",
            moves=0,
            degraded=False,
            period_utility=utility,
        )
        outcome = DeltaOutcome(
            seq=self.seq,
            kind="full-resolve",
            resolve="cold",
            seconds=seconds,
            period_utility=utility,
            fingerprint=self.state_fingerprint,
            lineage=link,
        )
        if self.on_commit is not None:
            self.on_commit(self)
        return outcome

    # -- checkpointing -------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Checkpoint document (crash-safe persistence via io.checkpoint)."""
        return {
            "session_id": self.session_id,
            "method": self.method,
            "seed": self.seed,
            "consistency": self.consistency,
            "seq": self.seq,
            "problem": problem_to_state(self.problem),
            "failed": sorted(self.failed),
            "assignment": {str(v): t for v, t in self.assignment.items()},
            "fingerprint": self.state_fingerprint,
            "lineage": list(self.lineage),
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, Any],
        cache=None,
        on_commit: Optional[Callable[["Session"], None]] = None,
    ) -> "Session":
        """Rebuild a session from :meth:`to_state` output."""
        session = cls(
            problem=problem_from_state(state["problem"]),
            method=state["method"],
            seed=state["seed"],
            session_id=state["session_id"],
            consistency=state["consistency"],
            cache=cache,
            incumbent_assignment={
                int(v): int(t) for v, t in state["assignment"].items()
            },
            failed=state["failed"],
            seq=state["seq"],
            on_commit=on_commit,
        )
        session.lineage = list(state.get("lineage", ()))
        obs_events.emit("session.restored", id=session.session_id)
        return session

    # -- internals -----------------------------------------------------

    def _fingerprint(self) -> Optional[str]:
        # Serializing the instance dominates fingerprint cost on large
        # problems, and only deltas that replace self.problem (utility
        # edits, additions, structural changes) change it -- memoize
        # the canonical text per problem object so a failure stream
        # hashes the text without re-serializing the instance.
        try:
            cached_problem, text = self._problem_text
            if cached_problem is not self.problem:
                text = canonical_json(problem_to_dict(self.problem))
                self._problem_text = (self.problem, text)
            return session_fingerprint(
                self.problem,
                self.method,
                self.seed,
                self.failed,
                problem_text=text,
            )
        except UncacheableError:
            return None

    def _initial_assignment(self) -> Tuple[Dict[int, int], str]:
        fingerprint = self.state_fingerprint
        if (
            self.cache is not None
            and fingerprint is not None
            and not self.failed
        ):
            cached = self.cache.peek_result(fingerprint, self.problem)
            if cached is not None and cached.periodic is not None:
                get_registry().counter(
                    "repro_session_cache_hits_total",
                    _CACHE_HITS_HELP,
                    source="global",
                ).inc()
                return dict(cached.periodic.assignment), "cache"
        live = sorted(self.live_sensors())
        return self._plan_cold(self.problem, live, None), "cold"

    def _plan_cold(
        self,
        problem: SchedulingProblem,
        live: List[int],
        deadline: Optional[float],
    ) -> Dict[int, int]:
        """The session's cold path: Algorithm 1 over the live subset.

        A family with a batch kernel runs it at width 1 over ``live``
        (:class:`~repro.batched.batch.InstanceBatch`'s live subset);
        the others run greedy_repair, which stays the kernel path's
        differential oracle.  Both make the same placements in the same
        order.  With every sensor allowed everywhere greedy_repair is
        bit-for-bit the lazy greedy of core.greedy restricted to
        ``live``: both run the same lazy driver, and the ``repair``
        regime of ``test_fleet_shape_plan_is_pinned``
        (tests/core/test_differential.py) pins the equivalence on a
        2,000-sensor city -- plan digest, total and evaluation count.
        """
        remaining_budget(deadline)
        if family_of(problem) is None:
            schedule = greedy_repair(
                live, problem.slots_per_period, problem.utility
            )
        else:
            (schedule,) = batched_greedy(InstanceBatch([problem], [live]))
        if self.method == "greedy+ls":
            from repro.core.local_search import local_search

            schedule = local_search(problem, schedule, deadline=deadline)
        return dict(schedule.assignment)

    def _cold_assignment(
        self, fingerprint: Optional[str], deadline: Optional[float]
    ) -> Dict[int, int]:
        if (
            self.cache is not None
            and fingerprint is not None
            and not self.failed
        ):
            cached = self.cache.peek_result(fingerprint, self.problem)
            if cached is not None and cached.periodic is not None:
                get_registry().counter(
                    "repro_session_cache_hits_total",
                    _CACHE_HITS_HELP,
                    source="global",
                ).inc()
                return dict(cached.periodic.assignment)
        live = sorted(self.live_sensors())
        return self._plan_cold(self.problem, live, deadline)

    def _polish(self, deadline: Optional[float] = None) -> int:
        """Drive the incumbent to a move-local optimum (all slots dirty).

        Greedy plans are not local optima; without this, the *first*
        warm repair after a fresh plan absorbs the whole backlog of
        profitable moves and delta latency looks like a full local
        search.  Paying it once at plan time keeps every subsequent
        delta genuinely incremental.  The round cap is a convergence
        backstop, not a budget -- each move strictly increases a
        bounded objective, so the sweep terminates on its own.
        """
        return scoped_repair(
            self.assignment,
            self.evaluators,
            self.live_sensors(),
            range(self.problem.slots_per_period),
            max_rounds=1024,
            deadline=deadline,
        )

    def _warm_repair(self, effect, deadline: Optional[float]) -> Tuple[str, int]:
        dirty: List[int] = list(effect.dirty_slots)
        for v in effect.drop_sensors:
            home = self.assignment.pop(v)
            self.evaluators[home].remove(v)
            self._last_slot[v] = home
            dirty.append(home)
        if effect.utility_changed:
            # New function object: re-base every evaluator onto the
            # current slot sets (same snapshot-exact rebase local_search
            # uses).
            self._rebuild_evaluators(self.problem.utility, self.assignment)
        for v in effect.place_sensors:
            slot = best_slot_for(
                v, self.evaluators, prefer=self._last_slot.get(v)
            )
            self.evaluators[slot].add(v)
            self.assignment[v] = slot
            dirty.append(slot)
        if not dirty:
            return "none", 0
        moves = scoped_repair(
            self.assignment,
            self.evaluators,
            self.live_sensors(),
            dirty,
            deadline=deadline,
        )
        return "warm", moves

    def _rebuild_evaluators(
        self, utility: UtilityFunction, assignment: Dict[int, int]
    ) -> None:
        """Replace the slot evaluators with fresh ones over ``assignment``.

        The ops counted on the old list are flushed with the new list's
        resets: the work done on it would otherwise leave with it.
        """
        slots = self.problem.slots_per_period
        members: List[List[int]] = [[] for _ in range(slots)]
        for v, t in assignment.items():
            members[t].append(v)
        evaluators = [make_evaluator(utility) for _ in range(slots)]
        for t, sensors in enumerate(members):
            evaluators[t].reset(frozenset(sorted(sensors)))
        flush_ops(self.evaluators + evaluators)
        self.evaluators = evaluators

    def _snapshot(self) -> _Snapshot:
        try:
            tokens = [e.snapshot() for e in self.evaluators]
        except Exception:
            tokens = None
        return _Snapshot(
            problem=self.problem,
            failed=set(self.failed),
            assignment=dict(self.assignment),
            evaluators_ref=self.evaluators,
            evaluator_tokens=tokens,
            last_slot=dict(self._last_slot),
            seq=self.seq,
            state_fingerprint=self.state_fingerprint,
            lineage_head=self.lineage[-1] if self.lineage else None,
            lineage_len=len(self.lineage),
        )

    def _restore(self, token: _Snapshot) -> None:
        self.problem = token.problem
        self.failed = set(token.failed)
        self.assignment = dict(token.assignment)
        self._last_slot = dict(token.last_slot)
        self.seq = token.seq
        self.state_fingerprint = token.state_fingerprint
        del self.lineage[token.lineage_len:]
        restored = False
        if (
            token.evaluator_tokens is not None
            # Tokens only mean anything to the evaluator objects they
            # were taken from; a swapped evaluator list (structural or
            # utility-changing delta) must be rebuilt instead.
            and self.evaluators is token.evaluators_ref
            and len(self.evaluators) == len(token.evaluator_tokens)
        ):
            try:
                for evaluator, state in zip(
                    self.evaluators, token.evaluator_tokens
                ):
                    evaluator.restore(state)
                restored = True
            except Exception:
                restored = False
        if not restored:
            # Structural change already swapped the evaluator list (or a
            # restore failed): rebuild from the restored assignment.
            self._rebuild_evaluators(token.problem.utility, self.assignment)
        flush_ops(self.evaluators)

    def _check_invariants(self) -> None:
        live = self.live_sensors()
        assigned = set(self.assignment)
        if assigned != live:
            missing = sorted(live - assigned)
            extra = sorted(assigned - live)
            raise SessionStateError(
                "assignment does not cover the live set "
                f"(missing={missing}, extra={extra})"
            )
        slots = self.slots_per_period
        bad = {v: t for v, t in self.assignment.items() if not 0 <= t < slots}
        if bad:
            raise SessionStateError(
                f"assignment maps sensors outside 0..{slots - 1}: {bad}"
            )

    def _extend_lineage(self, delta_document: Dict[str, Any]) -> str:
        parent = (
            self.lineage[-1]
            if self.lineage
            else (self.state_fingerprint or "uncacheable")
        )
        link = chain_fingerprint(parent, delta_document)
        self.lineage.append(link)
        if len(self.lineage) > MAX_LINEAGE:
            del self.lineage[: len(self.lineage) - MAX_LINEAGE]
        return link

    def _remember(
        self, fingerprint: Optional[str], assignment: Dict[int, int]
    ) -> None:
        if fingerprint is None:
            return
        if fingerprint not in self._memo:
            self._memo_order.append(fingerprint)
            if len(self._memo_order) > self._memo_capacity:
                evicted = self._memo_order.pop(0)
                self._memo.pop(evicted, None)
        self._memo[fingerprint] = dict(assignment)
