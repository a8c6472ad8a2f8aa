"""Lockstep batched greedy: one argmax per instance per round.

:func:`batched_greedy` advances every instance of an
:class:`~repro.batched.batch.InstanceBatch` by one placement per round.
Selection replicates the serial tie-break exactly: the serial naive
scan maximizes ``(gain, -sensor, -slot)``, which equals the *first*
occurrence of the maximum over the row-major ``(sensor, slot)``
flattening -- precisely what ``np.argmax`` returns.  The driver keeps
the kernel's raw gain values untouched and applies the candidacy mask
(padding + already-placed sensors) as ``-inf`` at selection time, so
every gain an argmax compares is the exact float the serial evaluator
would have produced.

Per round the driver issues **one** vectorized ``columns`` pass for all
still-running instances (only the mutated slot's column changes --
slots do not interact, the same fact the serial lazy greedy exploits),
so kernel invocations grow with ``n_max``, not with ``N * n_max`` --
the invariant ``tests/core/test_kernels_regression.py`` pins.

:func:`solve_batch` wraps the driver in the exact result construction
of :func:`repro.core.solver.solve`: assignment dicts are built in
placement order (downstream ``active_sets()`` iterates insertion order,
which fixes the frozenset layouts and hence the bits of the recomputed
``total_utility``), schedules are unrolled, validated and re-evaluated
by the same calls.  Selection equality therefore implies bit-for-bit
result equality -- the property the differential suite in
``tests/batched/`` asserts.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from repro.batched.batch import InstanceBatch
from repro.batched.kernels import BatchKernel, make_kernel
from repro.core.greedy import _EVALS_HELP
from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.core.solver import SolveResult
from repro.obs import events as obs_events
from repro.obs import tracing
from repro.obs.registry import get_registry

_BATCHES_HELP = "Batched-greedy batches executed by family"
_INSTANCES_HELP = "Instances solved through the batched kernels by family"
_INVOCATIONS_HELP = "Vectorized kernel passes issued by family"
_BATCH_SIZE_HELP = "Instances per executed batch"


def _mask_gains(raw: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Candidacy masking: padding and placed sensors drop to ``-inf``.

    Kept as a named seam so the mutation tests in
    ``tests/batched/test_mutation.py`` can corrupt exactly this layer
    and prove the differential suite fails loudly when it is wrong.
    Returns a fresh array; ``raw`` keeps the kernel's exact gain bits.
    """
    return np.where(alive[:, :, None], raw, -np.inf)


def _drive(batch: InstanceBatch, kernel: BatchKernel) -> List[dict]:
    """Run the lockstep rounds; returns per-instance assignments."""
    N, T = batch.size, batch.slots_per_period
    n_real = batch.n_real
    raw = kernel.initial_columns()  # (N, n_max, T) raw gain values
    alive = batch.sensor_mask.copy()  # real & unplaced candidacy mask
    placed = np.zeros(N, dtype=np.intp)
    finished = placed >= n_real  # n == 0 members finish immediately
    assignments: List[dict] = [{} for _ in range(N)]

    while not bool(finished.all()):
        running = np.flatnonzero(~finished)
        masked = _mask_gains(raw[running], alive[running])
        choice = masked.reshape(len(running), -1).argmax(axis=1)
        sensors = choice // T
        slots = choice - sensors * T
        pairs: List[Tuple[int, int]] = []
        for b, i in enumerate(running.tolist()):
            sensor = int(sensors[b])
            slot = int(slots[b])
            kernel.apply(i, sensor, slot)
            alive[i, sensor] = False
            assignments[i][sensor] = slot
            placed[i] += 1
            if placed[i] >= n_real[i]:
                finished[i] = True
            else:
                pairs.append((i, slot))
        if pairs:
            cols = kernel.columns(pairs)
            for b, (i, slot) in enumerate(pairs):
                raw[i, :, slot] = cols[b]
    return assignments


def batched_greedy(batch: InstanceBatch) -> List[PeriodicSchedule]:
    """Run Algorithm 1 over every batch member in lockstep.

    Returns one :class:`PeriodicSchedule` per member, identical
    (selection for selection, bit for bit) to serial
    :func:`~repro.core.greedy.greedy_schedule` calls.
    """
    kernel = make_kernel(batch)
    with tracing.span(
        "batched_greedy", family=batch.family, instances=batch.size
    ):
        assignments = _drive(batch, kernel)
    _record_metrics(batch, kernel)
    return [
        PeriodicSchedule(
            slots_per_period=batch.slots_per_period,
            assignment=assignment,
            mode=ScheduleMode.ACTIVE_SLOT,
        )
        for assignment in assignments
    ]


def _record_metrics(batch: InstanceBatch, kernel: BatchKernel) -> None:
    registry = get_registry()
    registry.counter(
        "repro_batched_batches_total", _BATCHES_HELP, family=batch.family
    ).inc()
    registry.counter(
        "repro_batched_instances_total", _INSTANCES_HELP, family=batch.family
    ).inc(batch.size)
    registry.counter(
        "repro_batched_kernel_invocations_total",
        _INVOCATIONS_HELP,
        family=batch.family,
    ).inc(kernel.invocations)
    registry.histogram(
        "repro_batched_batch_size", _BATCH_SIZE_HELP
    ).observe(batch.size)
    registry.counter(
        "repro_greedy_marginal_evals_total", _EVALS_HELP, variant="batched"
    ).inc(kernel.entries)


def solve_batch(problems: Sequence[SchedulingProblem]) -> List[SolveResult]:
    """Solve many instances through one batched greedy run.

    The per-instance results are bit-for-bit identical to
    ``[solve(p, method="greedy") for p in problems]``: the schedules
    come from identical placement sequences, and every derived quantity
    (``total_utility``, ``average_slot_utility``) is recomputed by the
    same calls over identically-constructed schedule objects.  Only
    ``solve_seconds`` differs (each member is billed its share of the
    batch wall time).

    Raises :class:`~repro.batched.batch.BatchError` for ineligible or
    mixed-shape inputs -- the executor checks eligibility first and
    routes everything else to the serial path.
    """
    batch = InstanceBatch(problems)
    start = time.perf_counter()
    schedules = batched_greedy(batch)
    elapsed = time.perf_counter() - start
    share = elapsed / batch.size
    registry = get_registry()
    results: List[SolveResult] = []
    for i, problem in enumerate(batch.problems):
        periodic = schedules[i]
        schedule = periodic.unroll(problem.num_periods)
        registry.counter(
            "repro_solve_total", "Completed solves by method", method="greedy"
        ).inc()
        registry.histogram(
            "repro_solve_seconds", "Solve wall time by method", method="greedy"
        ).observe(share)
        obs_events.emit(
            "solve",
            method="greedy",
            sensors=problem.num_sensors,
            seconds=share,
        )
        schedule.validate_feasible()
        total = schedule.total_utility(problem.utility)
        average = total / schedule.total_slots if schedule.total_slots else 0.0
        results.append(
            SolveResult(
                method="greedy",
                problem=problem,
                schedule=schedule,
                periodic=periodic,
                total_utility=total,
                average_slot_utility=average,
                solve_seconds=share,
                extras={},
            )
        )
    return results
