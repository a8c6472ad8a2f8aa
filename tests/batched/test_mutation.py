"""Mutation tests: corrupt one layer, the right suite must notice.

A differential harness that never fails proves nothing.  Each test
here installs one targeted corruption of a layer the batched path owns
-- the driver's candidacy mask, its padding sentinel, the product
kernel's slot factor (detection and homogeneous detection) -- and
asserts the exact byte comparison of
``tests/batched/test_differential_batched.py`` now *fails* on
instances it passes unmutated.  If a future refactor makes one of
these corruptions undetectable, the differential suite has silently
lost its teeth and this file says so.

The running state of every kernel is the serial evaluators' own, so a
bug there corrupts both sides of that comparison alike;
``test_stale_evaluator_rebuild_is_caught_by_the_evaluator_oracle``
shows that the incremental-vs-base random walks of
``tests/core/test_differential.py`` are the check that catches it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched import greedy as greedy_module
from repro.batched import kernels as kernels_module
from repro.batched.batch import BatchError
from repro.batched.greedy import solve_batch
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.utility import incremental as incremental_module
from repro.utility.logsum import LogSumUtility

import tests.core.test_differential as core_differential
from tests.batched.test_differential_batched import result_bytes
from tests.conftest import random_batch_problems


def zero_gain_problems():
    """Log-sum instances whose zero-weight sensors have exact-zero gains.

    The positive-weight sensors are placed first; the rounds after that
    compare only ``+0.0`` gains, and every zero-weight sensor has a
    placed sensor with a lower id, so a ``0.0`` mask sentinel ties with
    the first real candidate and ``argmax`` resolves onto the placed
    sensor.
    """
    weights = (
        (1.5, 0.0, 0.7, 0.0, 2.0, 0.0),
        (0.9, 0.4, 0.0, 0.0),
        (0.3, 0.0, 1.1, 0.0, 0.6),
    )
    return [
        SchedulingProblem(
            num_sensors=len(row),
            period=ChargingPeriod.from_ratio(2.0),
            utility=LogSumUtility(dict(enumerate(row))),
        )
        for row in weights
    ]


def detection_problems():
    return random_batch_problems(
        seed=42, family="detection", sizes=(6, 4, 5), rho=3.0
    )


def batched_matches_serial(problems) -> bool:
    """The differential harness's core check, reduced to a verdict.

    A corrupted batched path may also crash (infeasible schedules,
    double placements), which counts as "caught".  A
    :class:`~repro.batched.batch.BatchError` does not: it means the
    inputs never reached a kernel, and it propagates.
    """
    try:
        batched = solve_batch(list(problems))
    except BatchError:
        raise
    except Exception:
        return False
    serial = [solve(p, method="greedy") for p in problems]
    return all(
        result_bytes(b) == result_bytes(s)
        for b, s in zip(batched, serial)
    )


def test_sanity_unmutated_paths_agree():
    assert batched_matches_serial(zero_gain_problems())
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
    marginal gains hit exact zero (zero-weight sensors), argmax ties
    resolve onto already-placed sensors."""
    monkeypatch.setattr(
        greedy_module,
        "_mask_gains",
        lambda raw, alive: np.where(alive[:, :, None], raw, 0.0),
    )
    caught = not batched_matches_serial(zero_gain_problems())
    # Zero-weight sensors force zero-gain rounds; if these instances
    # ever stop producing them, fail loudly rather than vacuously pass.
    assert caught, (
        "0.0-sentinel corruption went unnoticed: the log-sum instances "
        "no longer reach zero-gain rounds"
    )


def _ignore_slot_factor(monkeypatch):
    """Mutation: the product kernel drops each slot evaluator's
    ``slot_factor()`` and answers the bare sensor weights, as if every
    factor read 1.0."""
    monkeypatch.setattr(
        kernels_module.ProductKernel,
        "_columns",
        lambda self, pairs: self._w[[i for i, _ in pairs]],
    )


def test_stale_miss_products_are_caught(monkeypatch):
    """Detection on the product kernel: with the miss product ignored,
    slots never saturate and the greedy piles everything onto one."""
    _ignore_slot_factor(monkeypatch)
    assert not batched_matches_serial(detection_problems())


def test_ignored_count_gain_is_caught(monkeypatch):
    """Homogeneous detection on the product kernel: with the count gain
    ignored, every ground sensor gains 1.0 in every slot, so the
    schedules (or their utilities) leave the serial ones."""
    problems = random_batch_problems(
        seed=42, family="homogeneous-detection", sizes=(6, 4, 5), rho=3.0
    )
    assert batched_matches_serial(problems)
    _ignore_slot_factor(monkeypatch)
    assert not batched_matches_serial(problems)


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
