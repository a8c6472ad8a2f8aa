"""Struct-of-arrays view over a group of scheduling problems.

An :class:`InstanceBatch` holds N instances that share a slot count
``T`` and a utility family, padded to a common sensor count ``n_max``.
The batched kernels (:mod:`repro.batched.kernels`) hang their per-family
payload arrays off this structure; the batch itself owns only the
generic shape data (masks, real sensor counts).

Eligibility is decided per instance by :func:`family_of` (the family
has a batch kernel) and :func:`batchable` (rho >= 1), and per group by
the :class:`InstanceBatch` constructor (same ``T``, same family).
Anything else takes the serial path -- batching is an optimization,
never an eligibility test.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.batched.kernels import _KERNELS
from repro.core.problem import SchedulingProblem
from repro.utility.incremental import DetectionEvaluator, evaluator_class
from repro.utility.target_system import TargetSystem


class BatchError(ValueError):
    """A problem list cannot form one batch (mixed shape or ineligible)."""


def family_of(problem: SchedulingProblem) -> Optional[str]:
    """The batch-kernel family of the problem's utility, or ``None``.

    The family is the tag of the serial evaluator
    :func:`~repro.utility.incremental.evaluator_class` dispatches to.
    Families without a kernel (``recompute``, ``coverage``, ``area``)
    and target systems outside :func:`detection_targets` answer
    ``None``: they solve serially by design, which is no fallback.
    """
    fn = problem.utility
    family = evaluator_class(fn).family
    if family not in _KERNELS:
        return None
    if family == "target-system" and not detection_targets(fn):
        return None
    return family


def detection_targets(fn: TargetSystem) -> bool:
    """Whether every target of ``fn`` is a plain detection utility whose
    probability table covers the target's sensors: the only target
    system the target-system kernel accepts."""
    return all(
        evaluator_class(child) is DetectionEvaluator
        and all(v in child._probabilities for v in cover)
        for child, cover in zip(fn._utilities, fn._coverage)
    )


def batchable(problem: SchedulingProblem) -> Tuple[bool, str]:
    """Can this instance's shape ride a batch?  Returns ``(ok, reason)``.

    ``reason`` names the disqualifier (``"rho"``) and is the label the
    executor's ``repro_batched_fallback_total`` counter carries; it is
    ``"ok"`` for eligible instances.  Whether the family has a kernel is
    :func:`family_of`'s answer, not a fallback reason.
    """
    if not problem.is_sparse_regime:
        return False, "rho"
    return True, "ok"


class InstanceBatch:
    """N same-family, same-``T`` instances padded to a common ``n_max``.

    Attributes
    ----------
    problems:
        The member instances, in submission order.
    family:
        Shared utility family (a serial evaluator's ``family`` tag).
    slots_per_period:
        Shared ``T``.
    n_max:
        Largest member sensor count (padding width).  0 for a batch of
        all-empty instances.
    n_real:
        ``(N,)`` int array of the sensors each member places: its
        sensor count, or the size of its live subset.
    sensor_mask:
        ``(N, n_max)`` bool; True where the sensor id is real for that
        instance (and in its live subset, if it has one), False over
        padding.

    ``live`` optionally gives one subset of sensor ids per member
    (``None`` for all of them).  The greedy then runs Algorithm 1
    restricted to that subset -- the ground set a session re-plans --
    while the kernels still see every sensor id as a column.
    """

    def __init__(
        self,
        problems: Sequence[SchedulingProblem],
        live: Optional[Sequence[Optional[Iterable[int]]]] = None,
    ):
        problems = tuple(problems)
        if not problems:
            raise BatchError("cannot batch zero problems")
        families = []
        for index, problem in enumerate(problems):
            family = family_of(problem)
            if family is None:
                raise BatchError(
                    f"problem {index} has no batch kernel for its utility"
                )
            ok, reason = batchable(problem)
            if not ok:
                raise BatchError(
                    f"problem {index} is not batchable (reason: {reason})"
                )
            families.append(family)
        if len(set(families)) != 1:
            raise BatchError(
                f"mixed utility families in one batch: {sorted(set(families))}"
            )
        slot_counts = {p.slots_per_period for p in problems}
        if len(slot_counts) != 1:
            raise BatchError(
                f"mixed slots_per_period in one batch: {sorted(slot_counts)}"
            )
        self.problems: Tuple[SchedulingProblem, ...] = problems
        self.family: str = families[0]
        self.slots_per_period: int = problems[0].slots_per_period
        self.n_max: int = max(p.num_sensors for p in problems)
        self.sensor_mask = (
            np.arange(self.n_max, dtype=np.intp)[None, :]
            < np.array([p.num_sensors for p in problems])[:, None]
        )
        for i, subset in enumerate(live or ()):
            if subset is None:
                continue
            ids = sorted(set(subset))
            if ids and not 0 <= ids[0] <= ids[-1] < problems[i].num_sensors:
                raise BatchError(
                    f"problem {i}: live sensors outside its ground set"
                )
            self.sensor_mask[i] = False
            self.sensor_mask[i, ids] = True
        self.n_real = self.sensor_mask.sum(axis=1).astype(np.intp)

    def __len__(self) -> int:
        return len(self.problems)

    @property
    def size(self) -> int:
        return len(self.problems)
