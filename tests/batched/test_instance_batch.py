"""Property tests for :class:`repro.batched.batch.InstanceBatch`.

The batch structure makes two promises the kernels build on: the
padding geometry is exact (mask rows count the real sensors and nothing
else), and ineligible or mixed-shape inputs are rejected: a dense
regime with the reason label the executor's fallback counter carries, a
family without a kernel as no fallback at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched.batch import (
    BatchError,
    InstanceBatch,
    batchable,
    family_of,
)
from repro.batched.kernels import _KERNELS
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.utility.detection import HomogeneousDetectionUtility
from repro.utility.target_system import TargetSystem

from tests.conftest import (
    KERNEL_FAMILIES,
    SERIAL_FAMILIES,
    random_batch_problems,
    random_problem,
)


def build(family, sizes, seed=3, rho=2.0):
    return InstanceBatch(
        random_batch_problems(seed=seed, family=family, sizes=sizes, rho=rho)
    )


class TestPaddingInvariants:
    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_mask_counts_exactly_the_real_sensors(self, family):
        sizes = (3, 1, 6, 2)
        batch = build(family, sizes)
        assert batch.n_max == max(sizes)
        assert batch.n_real.tolist() == list(sizes)
        assert batch.sensor_mask.shape == (len(sizes), max(sizes))
        assert batch.sensor_mask.sum(axis=1).tolist() == list(sizes)

    def test_mask_is_a_prefix_per_row(self):
        batch = build("detection", (2, 5, 0))
        for i, n in enumerate((2, 5, 0)):
            row = batch.sensor_mask[i]
            assert row[:n].all()
            assert not row[n:].any()

    def test_uniform_batch_has_no_padding(self):
        batch = build("logsum", (4, 4, 4))
        assert bool(batch.sensor_mask.all())

    def test_all_empty_batch_has_zero_width(self):
        batch = build("logsum", (0, 0))
        assert batch.n_max == 0
        assert batch.sensor_mask.shape == (2, 0)

    def test_size_and_len_agree(self):
        batch = build("logsum", (1, 2, 3))
        assert len(batch) == batch.size == 3

    def test_mask_dtype_is_bool(self):
        batch = build("detection", (1, 3))
        assert batch.sensor_mask.dtype == np.bool_


class TestEligibility:
    def test_dense_regime_rejected_with_rho_reason(self):
        problem = random_problem(seed=5, rho=0.5, family="detection")
        ok, reason = batchable(problem)
        assert (ok, reason) == (False, "rho")

    def test_eligible_problem_reports_ok(self):
        problem = random_problem(seed=5, rho=2.0, family="detection")
        assert batchable(problem) == (True, "ok")

    def test_unsupported_family_rejected(self):
        # A target system with homogeneous children defeats the fast
        # per-target probability gather, mirroring the serial
        # evaluator's own fast-kernel gate.  Its shape is batchable;
        # having no kernel is routing, not a fallback reason.
        system = TargetSystem(
            [frozenset({0, 1})],
            [HomogeneousDetectionUtility(range(2), p=0.4)],
        )
        problem = SchedulingProblem(
            num_sensors=2,
            period=ChargingPeriod.from_ratio(2.0),
            utility=system,
        )
        assert family_of(problem) is None
        assert batchable(problem) == (True, "ok")
        with pytest.raises(BatchError, match="problem 0 has no batch kernel"):
            InstanceBatch([problem, problem])

    @pytest.mark.parametrize("family", SERIAL_FAMILIES)
    def test_families_without_kernel(self, family):
        problems = random_batch_problems(
            seed=6, family=family, sizes=(3, 4), rho=2.0
        )
        assert [family_of(p) for p in problems] == [None, None]
        assert batchable(problems[0]) == (True, "ok")
        with pytest.raises(BatchError, match="problem 0 has no batch kernel"):
            InstanceBatch(problems)

    def test_kernel_families_are_the_kernels(self):
        assert {
            family_of(random_problem(seed=6, rho=2.0, family=family))
            for family in KERNEL_FAMILIES
        } == set(_KERNELS) == {
            "detection", "homogeneous-detection", "logsum", "target-system"
        }

    def test_plain_target_system_is_supported(self):
        problem = random_problem(seed=6, rho=2.0, family="target-system")
        assert family_of(problem) == "target-system"
        assert batchable(problem) == (True, "ok")


class TestBuildRejections:
    def test_zero_problems(self):
        with pytest.raises(BatchError, match="zero problems"):
            InstanceBatch([])

    def test_mixed_families(self):
        mixed = random_batch_problems(
            seed=7, family="detection", sizes=(3,), rho=2.0
        ) + random_batch_problems(
            seed=7, family="logsum", sizes=(3,), rho=2.0
        )
        with pytest.raises(BatchError, match="mixed utility families"):
            InstanceBatch(mixed)

    def test_mixed_slot_counts(self):
        mixed = random_batch_problems(
            seed=8, family="detection", sizes=(3,), rho=3.0
        ) + random_batch_problems(
            seed=8, family="detection", sizes=(3,), rho=2.0
        )
        assert mixed[0].slots_per_period != mixed[1].slots_per_period
        with pytest.raises(BatchError, match="mixed slots_per_period"):
            InstanceBatch(mixed)

    def test_ineligible_member_named_by_position(self):
        good = random_batch_problems(
            seed=9, family="detection", sizes=(3,), rho=2.0
        )
        bad = random_problem(seed=9, rho=0.5, family="detection")
        with pytest.raises(BatchError, match=r"problem 1 .*rho"):
            InstanceBatch(good + [bad])
