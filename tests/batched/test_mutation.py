"""Mutation tests: corrupt one layer, the right suite must notice.

A differential harness that never fails proves nothing.  Each test
here installs one targeted corruption of a layer the batched path owns
-- the driver's candidacy mask, its padding sentinel, the detection
kernel's miss gather, the coverage kernel's cover-counter update -- and
asserts the exact byte comparison of
``tests/batched/test_differential_batched.py`` now *fails* on
instances it passes unmutated.  If a future refactor makes one of
these corruptions undetectable, the differential suite has silently
lost its teeth and this file says so.

The running state of the detection, homogeneous-detection, log-sum and
target-system kernels is the serial evaluators' own, so a bug there
corrupts both sides of that comparison alike;
``test_stale_evaluator_rebuild_is_caught_by_the_evaluator_oracle``
shows that the incremental-vs-base random walks of
``tests/core/test_differential.py`` are the check that catches it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched import greedy as greedy_module
from repro.batched import kernels as kernels_module
from repro.batched.greedy import solve_batch
from repro.core.solver import solve
from repro.utility import incremental as incremental_module

import tests.core.test_differential as core_differential
from tests.batched.test_differential_batched import result_bytes
from tests.conftest import random_batch_problems


def coverage_problems():
    """Overlapping covers: stale cover counters must change gains."""
    return random_batch_problems(
        seed=41, family="weighted-coverage", sizes=(5, 3, 6), rho=2.0
    )


def detection_problems():
    return random_batch_problems(
        seed=42, family="detection", sizes=(6, 4, 5), rho=3.0
    )


def batched_matches_serial(problems) -> bool:
    """The differential harness's core check, reduced to a verdict.

    A corrupted batched path may also crash (infeasible schedules,
    double placements); any failure mode counts as "caught".
    """
    try:
        batched = solve_batch(list(problems))
    except Exception:
        return False
    serial = [solve(p, method="greedy") for p in problems]
    return all(
        result_bytes(b) == result_bytes(s)
        for b, s in zip(batched, serial)
    )


def test_sanity_unmutated_paths_agree():
    assert batched_matches_serial(coverage_problems())
    assert batched_matches_serial(detection_problems())


def test_ignoring_the_candidacy_mask_is_caught(monkeypatch):
    """Mutation: the driver selects over raw gains, placed sensors and
    padding included.  The greedy re-picks its favorite pair forever
    instead of spreading, so schedules diverge (or never complete)."""
    monkeypatch.setattr(
        greedy_module, "_mask_gains", lambda raw, alive: raw.copy()
    )
    assert not batched_matches_serial(detection_problems())


def test_weakening_the_mask_sentinel_is_caught(monkeypatch):
    """Mutation: masked entries get 0.0 instead of -inf.  Once real
    marginal gains hit exact zero (exhausted covers), argmax ties
    resolve onto already-placed sensors."""
    monkeypatch.setattr(
        greedy_module,
        "_mask_gains",
        lambda raw, alive: np.where(alive[:, :, None], raw, 0.0),
    )
    caught = not batched_matches_serial(coverage_problems())
    # Dense overlap forces zero-gain rounds; if this seed ever stops
    # producing them, fail loudly rather than vacuously pass.
    assert caught, (
        "0.0-sentinel corruption went unnoticed: the coverage instances "
        "no longer reach zero-gain rounds, pick denser ones"
    )


def test_stale_cover_counters_are_caught(monkeypatch):
    """Mutation: the coverage kernel drops its cover-counter update, so
    every gain keeps counting already-covered elements."""
    monkeypatch.setattr(
        kernels_module._MaskedSumKernel,
        "apply",
        lambda self, index, sensor, slot: None,
    )
    assert not batched_matches_serial(coverage_problems())


def test_stale_miss_products_are_caught(monkeypatch):
    """Mutation: the detection kernel's miss gather reads 1.0 instead of
    the slot evaluators' miss products, so slots never saturate and the
    greedy piles everything onto one."""
    monkeypatch.setattr(
        kernels_module.DetectionKernel,
        "_columns",
        lambda self, pairs: self._p[[i for i, _ in pairs]],
    )
    assert not batched_matches_serial(detection_problems())


def test_stale_evaluator_rebuild_is_caught_by_the_evaluator_oracle(
    monkeypatch,
):
    """Mutation: ``DetectionEvaluator._rebuild`` stops refreshing the
    miss product.  Batched and serial share that evaluator, so they
    still agree; the incremental-vs-base walk must fail."""

    def stale_rebuild(self):
        self._miss = 1.0

    monkeypatch.setattr(
        incremental_module.DetectionEvaluator, "_rebuild", stale_rebuild
    )
    assert batched_matches_serial(detection_problems())
    with pytest.raises(AssertionError):
        core_differential.test_incremental_equals_recompute_on_random_walks(
            "detection", 0
        )


def test_mutations_do_not_leak(monkeypatch):
    """monkeypatch-scoped corruption must not survive the test."""
    assert batched_matches_serial(detection_problems())
