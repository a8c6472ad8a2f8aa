"""Incremental marginal-gain evaluators for every shipped utility family.

Every solver in :mod:`repro.core` and the per-slot accounting in
:mod:`repro.sim` bottom out in :meth:`UtilityFunction.marginal`, which
recomputes ``U(S | {v}) - U(S)`` from scratch: O(|S| * m) per query.
The paper's structure (Sec. II-C: per-target sums of submodular
utilities) makes each family *incrementally* updatable -- an evaluator
that owns the running active set can answer ``gain(v)`` from a handful
of cached scalars and only pays for a refresh when the set actually
changes.

The accumulation contract (bit-for-bit exactness)
-------------------------------------------------

The incremental path must produce the **same bits** as the from-scratch
path, not merely close values, because the differential suite compares
schedules and utilities exactly.  Floating-point addition and
multiplication are not associative, and ``frozenset`` iteration order
depends on the set's internal hash-table layout -- which itself depends
on how the set was *constructed*, not only on its contents.  Three
rules make exactness hold:

1. **Identical set construction, built only when read.**  The
   evaluator's active set is the chain the legacy consumers built
   (``S | {v}`` to add, ``S - {v}`` to remove, starting from the same
   initial object), but the chain is *deferred*: ``add``/``remove``
   append to an ordered op log and update a net-delta dict that
   answers membership in O(1); the frozenset is built only when
   something reads it (``active``, ``snapshot``, ``value``, a
   ``_rebuild``, or a from-scratch query of the base evaluator).  The
   build replays the log literally -- ``S | {v}`` and ``S - {v}`` one
   op at a time, no-op adds of members and removes of non-members
   included, since those still copy the set and can change its
   layout.  Same operation sequence on the same starting object =>
   identical layout => identical iteration order, so every set a
   consumer sees iterates exactly as the eager chain's would.
   Coverage, area and homogeneous detection answer ``gain`` from
   counters plus a membership probe, so a greedy over them (lazy,
   naive, passive, stochastic, local search, repair) never builds the
   set on add or remove: the O(n^2 / T) copying of a skewed slot is
   gone.  Detection, log-sum, target-system and the base evaluator
   read the set after every mutation (the first three in
   ``_rebuild``, the base on its next query), so their log never
   holds more than the ops the eager chain would have applied before
   that read; the first three then query ``_built`` directly.
2. **Cached scalars are recomputed by the family's own code.**  A
   cached quantity (the detection miss product, the log-sum total) is
   never updated arithmetically (``miss *= 1-p`` would change the
   rounding order); it is recomputed from scratch *by the same method
   the legacy path calls*, over the same set object, whenever the set
   mutates.  Queries between mutations then reuse the exact value the
   legacy path would have recomputed per query.
3. **Identical accumulation order in gains.**  ``gain(v)`` evaluates
   the same expression, over the same containers in the same iteration
   order, as the family's ``marginal``.  The families the batched
   kernels (:mod:`repro.batched.kernels`) vectorize declare the one
   per-slot quantity their gains depend on, and their own ``_gain``
   reads it: detection and homogeneous detection multiply a per-sensor
   weight (``sensor_weights``) by the slot's ``slot_factor()``, and
   log-sum applies ``weight_gain(w)`` to the sensor's weight.  A kernel
   computes the same IEEE operations from the same quantity, so it
   cannot drift from the scalar gain.

:class:`TargetSystemEvaluator` refreshes *all* per-target children on
every mutation, not only the targets of the mutated sensor: the legacy
path evaluates children on a fresh ``S & V(O_i)`` at query time, and
that intersection's layout can change whenever ``S`` changes (CPython
iterates the smaller operand), even for targets the sensor does not
cover.

The base :class:`IncrementalEvaluator` delegates every query to the
wrapped function over identically-built sets, which *is* the legacy
from-scratch behavior.  Production uses it only for utilities without
a specialization; the differential tests construct it directly
(``IncrementalEvaluator(fn)``) as the reference the specialized
evaluators must match bit for bit.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.registry import MetricsRegistry, get_registry
from repro.utility.area import AreaCoverageUtility
from repro.utility.base import SensorSet, UtilityFunction
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.logsum import LogSumUtility
from repro.utility.target_system import TargetSystem

#: Help text for the evaluator-operation counter (mirrored in obs/catalog.py).
_OPS_HELP = "Incremental-evaluator operations by family and kind"

_EMPTY: SensorSet = frozenset()


class IncrementalEvaluator:
    """Stateful marginal-gain evaluator over a running active set.

    The base class is also the from-scratch reference: it keeps no
    family state and delegates ``gain``/``loss``/``value`` to the
    wrapped function over sets built by the exact operation sequence
    the legacy consumers used.

    For every family, ``value()`` and each sensor's ``loss(v)`` are
    remembered until the next ``add``/``remove``/``reset``/``restore``.
    Between mutations the set object and every cached scalar are fixed,
    so a remembered answer is the float a fresh query would compute;
    each query still counts as one op.

    Subclasses override the ``_``-prefixed hooks to maintain cached
    state; the public API (and the op accounting) lives here.
    """

    family = "recompute"

    def __init__(self, fn: UtilityFunction):
        self._fn = fn
        # The deferred active-set chain (rule 1 of the module
        # docstring): the last frozenset built, the ops applied since,
        # in order, and their net effect per sensor.
        self._built: SensorSet = _EMPTY
        self._pending: List[Tuple[int, bool]] = []
        self._delta: Dict[int, bool] = {}
        self._cached_value: Optional[float] = None
        # ``{sensor: loss}`` answered since the last mutation; built on
        # the first ``loss`` query, dropped wherever the value is.
        self._losses: Optional[Dict[int, float]] = None
        self._ops: Dict[str, int] = {}
        self._rebuild()

    # -- public API ----------------------------------------------------

    @property
    def fn(self) -> UtilityFunction:
        return self._fn

    @property
    def active(self) -> SensorSet:
        """The current active set (the exact object queries run against).

        Replays the pending ``add``/``remove`` log first, op by op, as
        the eager chain would have applied it.
        """
        if self._pending:
            active = self._built
            for sensor, added in self._pending:
                active = active | {sensor} if added else active - {sensor}
            self._built = active
            self._pending = []
            self._delta = {}
        return self._built

    def reset(self, active: SensorSet = _EMPTY) -> None:
        """Rebase onto ``active`` *without copying it*.

        Callers that need bit-exactness must pass the same frozenset
        object the legacy path would have evaluated (e.g. the shared
        ``everyone`` set the passive greedy starts every slot from).
        """
        self._count("reset")
        self._rebase(active)
        self._cached_value = None
        self._losses = None
        self._rebuild()

    def add(self, sensor: int) -> None:
        """Activate ``sensor`` (the legacy ``S | {v}``, deferred)."""
        self._count("add")
        was_member = self._has(sensor)
        self._pending.append((sensor, True))
        self._delta[sensor] = True
        self._cached_value = None
        self._losses = None
        self._on_add(sensor, was_member)

    def remove(self, sensor: int) -> None:
        """Deactivate ``sensor`` (the legacy ``S - {v}``, deferred)."""
        self._count("remove")
        was_member = self._has(sensor)
        self._pending.append((sensor, False))
        self._delta[sensor] = False
        self._cached_value = None
        self._losses = None
        self._on_remove(sensor, was_member)

    def gain(self, sensor: int) -> float:
        """``U(S | {v}) - U(S)`` -- bit-equal to ``fn.marginal(v, S)``."""
        self._count("gain")
        return self._gain(sensor)

    def loss(self, sensor: int) -> float:
        """``U(S) - U(S - {v})`` -- bit-equal to ``fn.decrement(v, S)``;
        remembered per sensor until mutation, like :meth:`value`."""
        self._count("loss")
        losses = self._losses
        if losses is None:
            losses = self._losses = {}
        found = losses.get(sensor)
        if found is None:
            found = losses[sensor] = self._loss(sensor)
        return found

    def value(self) -> float:
        """``U(S)`` -- bit-equal to ``fn.value(S)``; cached until mutation."""
        self._count("value")
        return self._current_value()

    def snapshot(self) -> Tuple[Any, ...]:
        """An O(cached-state) token that :meth:`restore` accepts."""
        self._count("snapshot")
        return (self.active, self._cached_value, self._state())

    def restore(self, token: Tuple[Any, ...]) -> None:
        """Rewind to a prior :meth:`snapshot` -- including the exact
        active-set object, so post-restore queries are bit-identical to
        the queries issued when the snapshot was taken."""
        self._count("restore")
        active, self._cached_value, state = token
        self._losses = None
        self._rebase(active)
        self._load_state(state)

    # -- the deferred chain --------------------------------------------

    def _has(self, sensor: int) -> bool:
        """``sensor in self.active``, without building the set."""
        return self._delta.get(sensor, sensor in self._built)

    def _rebase(self, active: SensorSet) -> None:
        """Make ``active`` (the object itself) the set; drop the log."""
        self._built = active
        if self._pending:
            self._pending = []
            self._delta = {}

    # -- op accounting -------------------------------------------------

    def _count(self, op: str) -> None:
        self._ops[op] = self._ops.get(op, 0) + 1

    def drain_ops(self) -> Iterator[Tuple[str, Dict[str, int]]]:
        """Yield ``(family, op-counts)`` and reset the local counters."""
        ops, self._ops = self._ops, {}
        if ops:
            yield (self.family, ops)

    # -- hooks (override in specializations) ---------------------------

    def _rebuild(self) -> None:
        """Recompute every cached scalar from ``self.active``."""

    def _on_add(self, sensor: int, was_member: bool) -> None:
        self._rebuild()

    def _on_remove(self, sensor: int, was_member: bool) -> None:
        self._rebuild()

    def _gain(self, sensor: int) -> float:
        return self._fn.marginal(sensor, self.active)

    def _loss(self, sensor: int) -> float:
        return self._fn.decrement(sensor, self.active)

    def _compute_value(self) -> float:
        return self._fn.value(self.active)

    def _current_value(self) -> float:
        if self._cached_value is None:
            self._cached_value = self._compute_value()
        return self._cached_value

    def _state(self) -> Any:
        return None

    def _load_state(self, state: Any) -> None:
        self._rebuild()


class DetectionEvaluator(IncrementalEvaluator):
    """Running miss-product cache for :class:`DetectionUtility`.

    ``marginal`` in the legacy path is ``p_v * miss(S)`` with ``miss``
    recomputed per query (O(|S|)); here ``miss`` is recomputed once per
    mutation by the same method over the same set object, making every
    ``gain`` O(1).
    """

    family = "detection"

    def __init__(self, fn: DetectionUtility):
        self._probs = self.sensor_weights(fn)
        super().__init__(fn)

    @staticmethod
    def sensor_weights(fn: DetectionUtility) -> Mapping[int, float]:
        """``p_v`` per sensor (a shared ref; the public property copies)."""
        return fn._probabilities

    def slot_factor(self) -> float:
        """The miss product ``miss(S)``: a gain is ``p_v`` times it."""
        return self._miss

    def _rebuild(self) -> None:
        self._miss = self._fn.miss_probability(self.active)

    def _gain(self, sensor: int) -> float:
        if sensor in self._built:
            return 0.0
        p = self._probs.get(sensor)
        if p is None:
            return 0.0
        return p * self.slot_factor()

    def _loss(self, sensor: int) -> float:
        if sensor not in self._built:
            return 0.0
        return (1.0 - self._miss) - self._fn.value(self._built - {sensor})

    def _compute_value(self) -> float:
        return 1.0 - self._miss

    def _state(self) -> Any:
        return self._miss

    def _load_state(self, state: Any) -> None:
        self._miss = state


class HomogeneousDetectionEvaluator(IncrementalEvaluator):
    """Exact O(1) add/remove/gain for the count-based homogeneous family.

    Only the integer ``|S & ground|`` matters, and integers carry no
    rounding history, so the count can be maintained arithmetically.
    """

    family = "homogeneous-detection"

    def __init__(self, fn: HomogeneousDetectionUtility):
        self._ground = fn.ground_set
        super().__init__(fn)

    @staticmethod
    def sensor_weights(fn: HomogeneousDetectionUtility) -> Mapping[int, float]:
        """1.0 per ground sensor: every gain is the slot factor itself."""
        return dict.fromkeys(fn.ground_set, 1.0)

    def slot_factor(self) -> float:
        """The count gain ``value_of_count(k + 1) - value_of_count(k)``."""
        fn = self._fn
        return fn.value_of_count(self._k + 1) - fn.value_of_count(self._k)

    def _rebuild(self) -> None:
        self._k = self._fn.count(self.active)

    def _on_add(self, sensor: int, was_member: bool) -> None:
        if not was_member and sensor in self._ground:
            self._k += 1

    def _on_remove(self, sensor: int, was_member: bool) -> None:
        if was_member and sensor in self._ground:
            self._k -= 1

    def _gain(self, sensor: int) -> float:
        # ``_has`` inlined: the greedy probes every candidate.
        member = self._delta.get(sensor, sensor in self._built)
        if member or sensor not in self._ground:
            return 0.0
        return self.slot_factor()

    def _loss(self, sensor: int) -> float:
        if not self._has(sensor):
            return 0.0
        drop = 1 if sensor in self._ground else 0
        fn = self._fn
        return fn.value_of_count(self._k) - fn.value_of_count(self._k - drop)

    def _compute_value(self) -> float:
        return self._fn.value_of_count(self._k)

    def _state(self) -> Any:
        return self._k

    def _load_state(self, state: Any) -> None:
        self._k = state


class LogSumEvaluator(IncrementalEvaluator):
    """Running weight total for :class:`LogSumUtility`.

    The total is recomputed per mutation over the set's own iteration
    order (never ``+=``-updated -- rule 2 of the accumulation contract),
    so ``gain`` drops from O(|S|) to O(1).
    """

    family = "logsum"

    def __init__(self, fn: LogSumUtility):
        self._weights = fn._weights  # shared ref; the public property copies
        super().__init__(fn)

    def _rebuild(self) -> None:
        self._total = self._fn.total_weight(self.active)

    def weight_gain(self, w: float) -> float:
        """The gain of a sensor of weight ``w``; exactly ``+0.0`` at 0."""
        return math.log1p(self._total + w) - math.log1p(self._total)

    def _gain(self, sensor: int) -> float:
        if sensor in self._built:
            return 0.0
        w = self._weights.get(sensor)
        if not w:
            return 0.0
        return self.weight_gain(w)

    def _loss(self, sensor: int) -> float:
        if sensor not in self._built:
            return 0.0
        return math.log1p(self._total) - self._fn.value(self._built - {sensor})

    def _compute_value(self) -> float:
        return math.log1p(self._total)

    def _state(self) -> Any:
        return self._total

    def _load_state(self, state: Any) -> None:
        self._total = state


class CoverageEvaluator(IncrementalEvaluator):
    """Per-element cover counters for the (weighted) coverage family.

    ``gain(v)`` sums the weights of elements of ``covers[v]`` whose
    cover count is zero -- the same generator, over the same frozenset,
    in the same order as the legacy ``marginal``, with the O(|S| * d)
    ``covered_elements`` scan replaced by O(1) counter probes.  Counts
    are integers, so maintaining them arithmetically is exact.
    """

    family = "coverage"

    def __init__(self, fn: WeightedCoverageUtility):
        self._covers = fn._covers
        self._weights = fn._weights
        super().__init__(fn)

    def _rebuild(self) -> None:
        counts: Dict[int, int] = {}
        for v in self.active:
            for e in self._covers.get(v, ()):
                counts[e] = counts.get(e, 0) + 1
        self._counts = counts

    def _on_add(self, sensor: int, was_member: bool) -> None:
        if was_member:
            return
        cover = self._covers.get(sensor)
        if cover is None:
            return
        counts = self._counts
        for e in cover:
            counts[e] = counts.get(e, 0) + 1

    def _on_remove(self, sensor: int, was_member: bool) -> None:
        if not was_member:
            return
        cover = self._covers.get(sensor)
        if cover is None:
            return
        counts = self._counts
        for e in cover:
            counts[e] -= 1

    def _gain(self, sensor: int) -> float:
        # ``_has`` inlined: the greedy probes every candidate.
        member = self._delta.get(sensor, sensor in self._built)
        if member or sensor not in self._covers:
            return 0.0
        counts = self._counts
        weights = self._weights
        return sum(
            weights[e] for e in self._covers[sensor] if not counts.get(e)
        )

    def _loss(self, sensor: int) -> float:
        # An element vanishes from the cover exactly when this sensor
        # is its *only* active coverer (count == 1).  Same frozenset,
        # same order, same summation shape as
        # ``WeightedCoverageUtility.decrement`` -- bit-equal, but O(d)
        # instead of the O(|S| * d) covered-elements rescan.
        if not self._has(sensor) or sensor not in self._covers:
            return 0.0
        counts = self._counts
        weights = self._weights
        return sum(
            weights[e] for e in self._covers[sensor] if counts[e] == 1
        )

    def _state(self) -> Any:
        return dict(self._counts)

    def _load_state(self, state: Any) -> None:
        self._counts = dict(state)


class AreaEvaluator(IncrementalEvaluator):
    """Per-cell covered counts for :class:`AreaCoverageUtility` (Eq. 2)."""

    family = "area"

    def __init__(self, fn: AreaCoverageUtility):
        self._cells_of = fn._cells_of_sensor
        self._subregions = fn._subregions
        super().__init__(fn)

    def _rebuild(self) -> None:
        counts = [0] * len(self._subregions)
        for v in self.active:
            for cid in self._cells_of.get(v, ()):
                counts[cid] += 1
        self._counts = counts

    def _on_add(self, sensor: int, was_member: bool) -> None:
        if was_member:
            return
        counts = self._counts
        for cid in self._cells_of.get(sensor, ()):
            counts[cid] += 1

    def _on_remove(self, sensor: int, was_member: bool) -> None:
        if not was_member:
            return
        counts = self._counts
        for cid in self._cells_of.get(sensor, ()):
            counts[cid] -= 1

    def _gain(self, sensor: int) -> float:
        # ``_has`` inlined: the greedy probes every candidate.
        member = self._delta.get(sensor, sensor in self._built)
        if member or sensor not in self._cells_of:
            return 0.0
        counts = self._counts
        subregions = self._subregions
        return sum(
            subregions[cid].weighted_area
            for cid in self._cells_of[sensor]
            if not counts[cid]
        )

    def _state(self) -> Any:
        return list(self._counts)

    def _load_state(self, state: Any) -> None:
        self._counts = list(state)


class TargetSystemEvaluator(IncrementalEvaluator):
    """Composed per-target evaluators for :class:`TargetSystem` (Eq. 1).

    Every mutation refreshes **all** children on the fresh
    ``S & V(O_i)`` intersections (see the module docstring for why the
    targets of the mutated sensor alone would not be bit-safe); a
    ``gain`` then touches only the targets the candidate covers, each in
    O(1) when the child is a :class:`DetectionEvaluator`.
    """

    family = "target-system"

    def __init__(self, fn: TargetSystem):
        self._coverage = fn._coverage
        self._targets_of = fn._targets_of_sensor
        self._num_targets = len(fn._coverage)
        self._children: List[IncrementalEvaluator] = [
            make_evaluator(child)
            for child in fn._utilities
        ]
        super().__init__(fn)

    @property
    def children(self) -> Sequence[IncrementalEvaluator]:
        """The per-target evaluators, indexed by target id."""
        return self._children

    def _rebuild(self) -> None:
        active = self.active
        coverage = self._coverage
        children = self._children
        for tid in range(self._num_targets):
            children[tid].reset(active & coverage[tid])

    def _gain(self, sensor: int) -> float:
        if sensor in self._built:
            return 0.0
        gain = 0.0
        children = self._children
        for tid in self._targets_of.get(sensor, ()):
            gain += children[tid]._gain(sensor)
        return gain

    def _loss(self, sensor: int) -> float:
        if sensor not in self._built:
            return 0.0
        return self._current_value() - self._fn.value(self._built - {sensor})

    def _compute_value(self) -> float:
        children = self._children
        return sum(
            children[i]._current_value() for i in range(self._num_targets)
        )

    def _state(self) -> Any:
        return tuple(child.snapshot() for child in self._children)

    def _load_state(self, state: Any) -> None:
        for child, token in zip(self._children, state):
            child.restore(token)

    def drain_ops(self) -> Iterator[Tuple[str, Dict[str, int]]]:
        yield from super().drain_ops()
        for child in self._children:
            yield from child.drain_ops()


def evaluator_class(fn: UtilityFunction) -> type:
    """The specialized evaluator class for ``fn``.

    The one dispatch over utility types; the batched kernels read their
    family tag from it too.  Order matters:
    :class:`CoverageCountUtility` *is* a :class:`WeightedCoverageUtility`
    and shares its evaluator.  Utilities without a specialization
    (operations combinators, user-supplied functions) get the base
    :class:`IncrementalEvaluator` -- correct for any
    :class:`UtilityFunction`.
    """
    if isinstance(fn, HomogeneousDetectionUtility):
        return HomogeneousDetectionEvaluator
    if isinstance(fn, DetectionUtility):
        return DetectionEvaluator
    if isinstance(fn, LogSumUtility):
        return LogSumEvaluator
    if isinstance(fn, WeightedCoverageUtility):  # includes CoverageCountUtility
        return CoverageEvaluator
    if isinstance(fn, AreaCoverageUtility):
        return AreaEvaluator
    if isinstance(fn, TargetSystem):
        return TargetSystemEvaluator
    return IncrementalEvaluator


def make_evaluator(fn: UtilityFunction) -> IncrementalEvaluator:
    """Build the best evaluator for ``fn`` (see :func:`evaluator_class`)."""
    return evaluator_class(fn)(fn)


def make_slot_evaluators(
    functions: Sequence[UtilityFunction],
) -> List[IncrementalEvaluator]:
    """One evaluator per slot function (the shape the schedulers use)."""
    return [make_evaluator(fn) for fn in functions]


def flush_ops(
    evaluators: Iterable[IncrementalEvaluator],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Drain evaluator op counts into ``repro_utility_incremental_ops_total``.

    Aggregates locally first so a whole solve costs one registry
    increment per (family, op) pair instead of one per operation.
    """
    totals: Dict[Tuple[str, str], int] = {}
    for evaluator in evaluators:
        for family, ops in evaluator.drain_ops():
            for op, count in ops.items():
                key = (family, op)
                totals[key] = totals.get(key, 0) + count
    if not totals:
        return
    registry = registry if registry is not None else get_registry()
    for (family, op), count in sorted(totals.items()):
        registry.counter(
            "repro_utility_incremental_ops_total",
            _OPS_HELP,
            family=family,
            op=op,
        ).inc(count)


class SlotValueMemo:
    """Content-keyed, bounded memo of per-slot values.

    Periodic operation evaluates the *same* active sets over and over
    (an unrolled schedule repeats its period ``alpha`` times; a
    simulated network settles into its schedule's cycle).  The memo
    keys on the active frozenset and returns the stored evaluation for
    equal sets.  The simulation engine also uses it for the other
    per-distinct-set products of its slot loop (command masks, interned
    active sets, sorted id lists).

    At most ``max_entries`` keys are kept; storing one more evicts the
    oldest insertion.  A lookup does not reorder, so a hit costs one
    dict probe.

    Bit-exactness caveat: two equal sets can in principle iterate in
    different orders if they were built by different insertion
    sequences.  The memo is therefore only installed where every key
    comes from a single canonical construction site -- the simulation
    engine builds every active set by filtering the node list in node
    order, so equal sets there are always identically laid out and the
    memo is exact.  (The engine disables it under a ``sensing_filter``,
    whose derived sets do not share one construction order.)
    """

    def __init__(self, max_entries: int = 4096):
        self._entries: Dict[Hashable, Any] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Any:
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key`` and return it."""
        entries = self._entries
        if len(entries) >= self._max_entries:
            del entries[next(iter(entries))]
        entries[key] = value
        return value
