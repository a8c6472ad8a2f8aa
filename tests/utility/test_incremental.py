"""Unit tests for the incremental marginal-gain evaluators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.obs.registry import MetricsRegistry
from repro.utility.area import AreaCoverageUtility, Subregion
from repro.utility.coverage_count import (
    CoverageCountUtility,
    WeightedCoverageUtility,
)
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.incremental import (
    AreaEvaluator,
    CoverageEvaluator,
    DetectionEvaluator,
    HomogeneousDetectionEvaluator,
    IncrementalEvaluator,
    LogSumEvaluator,
    SlotValueMemo,
    TargetSystemEvaluator,
    flush_ops,
    make_evaluator,
    make_slot_evaluators,
)
from repro.utility.logsum import LogSumUtility
from repro.utility.operations import ScaledUtility
from repro.utility.target_system import TargetSystem

from tests.conftest import random_target_system


def detection_fn():
    return DetectionUtility({v: 0.1 + 0.05 * v for v in range(8)})


class TestDispatch:
    def test_families(self):
        rng = np.random.default_rng(3)
        cases = [
            (HomogeneousDetectionUtility(range(6), p=0.4),
             HomogeneousDetectionEvaluator),
            (detection_fn(), DetectionEvaluator),
            (LogSumUtility({v: 1.0 + v for v in range(6)}), LogSumEvaluator),
            (WeightedCoverageUtility({0: {1, 2}, 1: {2, 3}}),
             CoverageEvaluator),
            (CoverageCountUtility({0: {1, 2}, 1: {2, 3}}),
             CoverageEvaluator),
            (AreaCoverageUtility(
                [Subregion(frozenset({0, 1}), area=2.0)]), AreaEvaluator),
            (random_target_system(6, 3, rng), TargetSystemEvaluator),
        ]
        for fn, expected in cases:
            assert type(make_evaluator(fn)) is expected

    def test_unknown_family_gets_base(self):
        fn = ScaledUtility(detection_fn(), 2.0)
        assert type(make_evaluator(fn)) is IncrementalEvaluator

    def test_forced_base(self):
        # The reference twin wraps a specialized family too, and answers
        # from scratch.
        fn = detection_fn()
        evaluator = IncrementalEvaluator(fn)
        assert evaluator.family == "recompute"
        evaluator.add(3)
        assert evaluator.gain(5) == fn.marginal(5, frozenset({3}))

    def test_slot_evaluators(self):
        fns = [detection_fn(), detection_fn()]
        evaluators = make_slot_evaluators(fns)
        assert [type(e) for e in evaluators] == [DetectionEvaluator] * 2
        assert evaluators[0] is not evaluators[1]


class TestEvaluatorSemantics:
    def test_gain_matches_marginal_as_set_grows(self):
        fn = detection_fn()
        evaluator = make_evaluator(fn)
        active = frozenset()
        for v in (3, 0, 5, 7):
            for candidate in range(8):
                assert evaluator.gain(candidate) == fn.marginal(
                    candidate, active
                )
            evaluator.add(v)
            active = active | {v}
        assert evaluator.value() == fn.value(active)

    def test_loss_matches_decrement(self):
        fn = detection_fn()
        evaluator = make_evaluator(fn)
        active = frozenset(range(8))
        evaluator.reset(active)
        for v in range(8):
            assert evaluator.loss(v) == fn.decrement(v, active)
        evaluator.remove(2)
        active = active - {2}
        for v in range(8):
            assert evaluator.loss(v) == fn.decrement(v, active)

    def test_gain_of_member_and_stranger_is_zero(self):
        fn = detection_fn()
        evaluator = make_evaluator(fn)
        evaluator.add(4)
        assert evaluator.gain(4) == 0.0
        assert evaluator.gain(999) == 0.0
        assert evaluator.loss(999) == 0.0

    def test_target_gain_sums_child_slot_factors(self):
        """The target-system kernel's expression: ``p * slot_factor()``
        of each covering target's child, summed in ``targets_of`` order,
        is the scalar gain bit for bit."""
        rng = np.random.default_rng(17)
        system = random_target_system(12, 5, rng)
        evaluator = make_evaluator(system)
        for v in (1, 6, 9):
            evaluator.add(v)
        children = evaluator.children
        for v in range(12):
            expected = 0.0
            if v not in evaluator.active:
                for tid in system.targets_of(v):
                    p = system.target_utility(tid).probabilities[v]
                    expected += p * children[tid].slot_factor()
            assert evaluator.gain(v) == expected
            assert evaluator.gain(v) == system.marginal(v, evaluator.active)

    def test_snapshot_restore_is_bit_exact(self):
        rng = np.random.default_rng(23)
        system = random_target_system(10, 4, rng)
        evaluator = make_evaluator(system)
        evaluator.add(2)
        evaluator.add(7)
        token = evaluator.snapshot()
        saved_active = evaluator.active
        saved = [evaluator.gain(v) for v in range(10)]
        saved_value = evaluator.value()
        evaluator.add(4)
        evaluator.remove(2)
        evaluator.restore(token)
        assert evaluator.active is saved_active
        assert [evaluator.gain(v) for v in range(10)] == saved
        assert evaluator.value() == saved_value

    def test_reset_keeps_the_exact_object(self):
        fn = detection_fn()
        evaluator = make_evaluator(fn)
        active = frozenset({1, 5})
        evaluator.reset(active)
        assert evaluator.active is active
        assert evaluator.value() == fn.value(active)


class TestOpsAccounting:
    def test_flush_aggregates_and_resets(self):
        registry = MetricsRegistry()
        evaluator = make_evaluator(detection_fn())
        evaluator.add(1)
        evaluator.gain(2)
        evaluator.gain(3)
        flush_ops([evaluator], registry=registry)
        assert registry.sample_value(
            "repro_utility_incremental_ops_total", family="detection", op="gain"
        ) == 2
        assert registry.sample_value(
            "repro_utility_incremental_ops_total", family="detection", op="add"
        ) == 1
        # Drained: a second flush adds nothing.
        flush_ops([evaluator], registry=registry)
        assert registry.sample_value(
            "repro_utility_incremental_ops_total", family="detection", op="gain"
        ) == 2

    def test_target_system_children_report_their_families(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(5)
        evaluator = make_evaluator(random_target_system(8, 3, rng))
        evaluator.add(0)
        flush_ops([evaluator], registry=registry)
        assert registry.sample_value(
            "repro_utility_incremental_ops_total",
            family="target-system",
            op="add",
        ) == 1
        # The per-mutation child refresh shows up as detection resets.
        assert registry.sample_value(
            "repro_utility_incremental_ops_total",
            family="detection",
            op="reset",
        ) >= 3


class TestSlotValueMemo:
    def test_hits_and_misses(self):
        memo = SlotValueMemo()
        key = frozenset({1, 2})
        assert memo.lookup(key) is None
        memo.store(key, (3.5, None))
        assert memo.lookup(key) == (3.5, None)
        assert memo.misses == 1
        assert memo.hits == 1
        assert len(memo) == 1

    def test_bounded(self):
        memo = SlotValueMemo(max_entries=2)
        for i in range(5):
            memo.store(frozenset({i}), (float(i), None))
        assert len(memo) == 2

    def test_evicts_oldest_first(self):
        memo = SlotValueMemo(max_entries=2)
        a, b, c = frozenset({1}), frozenset({2}), frozenset({3})
        memo.store(a, (1.0, None))
        memo.store(b, (2.0, None))
        assert memo.lookup(a) == (1.0, None)  # a hit does not refresh a
        assert memo.store(c, (3.0, None)) == (3.0, None)
        assert len(memo) == 2
        assert memo.lookup(a) is None
        assert memo.lookup(b) == (2.0, None)
        assert memo.lookup(c) == (3.0, None)


# ---------------------------------------------------------------------------
# Model-based test of the deferred active-set chain
# ---------------------------------------------------------------------------

#: Sensor ids 8 apart collide in a frozenset's hash table, so a set's
#: iteration order depends on how it was built, not only on its members.
IDS = tuple(8 * i for i in range(10))
#: Ids no utility knows: one between ground ids, one past them.
STRANGERS = (3, 8 * len(IDS))
PROBES = IDS + STRANGERS

#: Families whose evaluators answer ``gain`` from counters plus a
#: membership probe, so an add/remove must not build the frozenset.
COUNTER_FAMILIES = ("homogeneous-detection", "weighted-coverage", "area")

MACHINE_FAMILIES = (
    "homogeneous-detection",
    "detection",
    "logsum",
    "weighted-coverage",
    "area",
    "target-system",
)


def _sparse_utility(family, rng):
    """A random utility of ``family`` over the colliding ids ``IDS``."""
    if family == "homogeneous-detection":
        return HomogeneousDetectionUtility(IDS, p=float(rng.uniform(0.2, 0.7)))
    if family == "detection":
        return DetectionUtility({v: float(rng.uniform(0.2, 0.7)) for v in IDS})
    if family == "logsum":
        return LogSumUtility({v: float(rng.integers(1, 20)) for v in IDS})
    if family == "weighted-coverage":
        return WeightedCoverageUtility(
            {v: {e for e in range(12) if rng.random() < 0.4} for v in IDS},
            {e: float(rng.uniform(0.5, 2.0)) for e in range(12)},
        )
    if family == "area":
        return AreaCoverageUtility([
            Subregion(
                covered_by=frozenset(
                    int(v) for v in rng.choice(IDS, size=int(rng.integers(1, 4)),
                                               replace=False)
                ),
                area=float(rng.uniform(0.5, 2.0)),
                weight=float(rng.uniform(0.5, 1.5)),
            )
            for _ in range(3 * len(IDS))
        ])
    if family == "target-system":
        covers, utilities = [], []
        for _ in range(3):
            cover = frozenset(v for v in IDS if rng.random() < 0.5)
            cover = cover or frozenset(IDS[:1])
            covers.append(cover)
            utilities.append(
                DetectionUtility({v: float(rng.uniform(0.2, 0.6)) for v in cover})
            )
        return TargetSystem(covers, utilities)
    raise ValueError(family)


def _same(a, b):
    """Bit equality of two floats (``==`` would let 0.0 equal -0.0)."""
    return float(a).hex() == float(b).hex()


class DeferredChainMachine(RuleBasedStateMachine):
    """An evaluator against an eager ``S | {v}`` / ``S - {v}`` model.

    Mutations and gain probes pile up between reads; every read must
    see a set that iterates exactly like the model and answers every
    query with the model's bits.
    """

    def __init__(self, family, incremental):
        super().__init__()
        self.family = family
        self.fn = _sparse_utility(family, np.random.default_rng(len(family)))
        self.ev = (
            make_evaluator(self.fn) if incremental
            else IncrementalEvaluator(self.fn)
        )
        self.incremental = incremental
        self.deferred = incremental and family in COUNTER_FAMILIES
        self.model = frozenset()
        self.built = self.ev._built
        self.prebuilt = []
        self.tokens = []

    @initialize(orders=st.lists(
        st.lists(st.sampled_from(PROBES), max_size=8), min_size=1, max_size=3
    ))
    def prebuild(self, orders):
        # Each set's layout follows its insertion order.
        self.prebuilt = [frozenset(order) for order in orders]

    def _members(self, data):
        return data.draw(st.sampled_from(sorted(self.model)))

    @rule(sensor=st.sampled_from(PROBES))
    def add(self, sensor):
        self.ev.add(sensor)
        self.model = self.model | {sensor}

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def add_member(self, data):
        self.add(self._members(data))

    @rule(sensor=st.sampled_from(PROBES))
    def remove(self, sensor):
        self.ev.remove(sensor)
        self.model = self.model - {sensor}

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_member(self, data):
        self.remove(self._members(data))

    @rule(sensor=st.sampled_from(PROBES))
    def probe_gain(self, sensor):
        assert _same(self.ev.gain(sensor), self.fn.marginal(sensor, self.model))

    @rule(data=st.data())
    def reset(self, data):
        target = data.draw(st.sampled_from(self.prebuilt))
        self.ev.reset(target)
        self.model = target
        assert self.ev.active is target
        self.built = self.ev._built

    @rule()
    def snapshot(self):
        self.tokens.append((self.ev.snapshot(), self.model))
        self.built = self.ev._built

    @precondition(lambda self: self.tokens)
    @rule(data=st.data())
    def restore(self, data):
        token, model = data.draw(st.sampled_from(self.tokens))
        self.ev.restore(token)
        self.model = model
        assert self.ev.active is token[0]
        self.built = self.ev._built

    @rule(sensors=st.lists(st.sampled_from(PROBES), min_size=1, max_size=4))
    def probe_loss(self, sensors):
        # Losses are remembered until the next mutation: asked twice
        # between mutations, each answer must still be a fresh
        # evaluator's over the same set, and every query counts.
        fresh = (
            make_evaluator(self.fn) if self.incremental
            else IncrementalEvaluator(self.fn)
        )
        fresh.reset(self.model)
        counted = self.ev._ops.get("loss", 0)
        for v in sensors + sensors:
            assert _same(self.ev.loss(v), fresh.loss(v))
        assert self.ev._ops["loss"] == counted + 2 * len(sensors)
        # The base and area evaluators build the set to answer a loss.
        self.built = self.ev._built

    @rule(first=st.sampled_from(("active", "value", "loss", "gain")))
    def read(self, first):
        ev, fn, model = self.ev, self.fn, self.model
        if first == "value":
            assert _same(ev.value(), fn.value(model))
        elif first == "loss":
            for v in PROBES:
                assert _same(ev.loss(v), fn.decrement(v, model))
        elif first == "gain":
            for v in PROBES:
                assert _same(ev.gain(v), fn.marginal(v, model))
        active = ev.active
        assert list(active) == list(model)
        assert _same(ev.value(), fn.value(model))
        for v in PROBES:
            marginal = fn.marginal(v, model)
            assert _same(ev.gain(v), marginal)
            assert _same(ev.loss(v), fn.decrement(v, model))
        self.built = ev._built

    @invariant()
    def mutations_build_no_set(self):
        # Only the reads above may build the set on the counter
        # families; add, remove and gain work from the op log.
        if self.deferred:
            assert self.ev._built is self.built


@pytest.mark.parametrize("incremental", (True, False),
                         ids=("specialized", "base"))
@pytest.mark.parametrize("family", MACHINE_FAMILIES)
def test_deferred_chain_matches_eager_model(family, incremental):
    run_state_machine_as_test(
        lambda: DeferredChainMachine(family, incremental),
        settings=settings(
            max_examples=30, stateful_step_count=40, deadline=None
        ),
    )

