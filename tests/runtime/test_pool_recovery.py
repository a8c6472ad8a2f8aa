"""Worker-death recovery: a real SIGKILL mid-batch must not lose work.

The pool's contract is that a batch submitted to ``solve_many``
completes with correct results even if a worker process is hard-killed
(SIGKILL -- no atexit, no cleanup, the way the OOM killer or a node
failure would) while the batch is in flight.  Recovery is the serial fallback inside
:func:`repro.runtime.pool.run_tasks` plus, for spawned-too-late
failures, the executor's retry policy.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.faults import injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runtime.executor import solve_many
from repro.runtime.retry import RetryPolicy
from repro.utility.base import UtilityFunction
from repro.utility.detection import HomogeneousDetectionUtility


class SigkillOnce(UtilityFunction):
    """A detection utility whose first evaluation in a pool worker
    SIGKILLs that worker.

    The marker file is created with ``O_EXCL``, so exactly one worker
    process dies across the whole run, and only a worker: the parent
    (where the pool's serial probe and the serial fallback run) never
    kills itself.  No serializer knows this family, so its problems
    bypass the cache and the batch kernels and go to the pool.
    """

    def __init__(self, sensors: int, marker: str):
        self._inner = HomogeneousDetectionUtility(range(sensors), p=0.4)
        self._marker = marker
        self._parent = os.getpid()

    @property
    def ground_set(self):
        return self._inner.ground_set

    def value(self, sensors) -> float:
        if os.getpid() != self._parent:
            try:
                fd = os.open(self._marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return self._inner.value(sensors)


def problem(sensors: int, utility=None) -> SchedulingProblem:
    return SchedulingProblem(
        num_sensors=sensors,
        period=ChargingPeriod.from_ratio(3.0),
        utility=utility or HomogeneousDetectionUtility(range(sensors), p=0.4),
    )


def tasks(n: int = 6, method: str = "greedy-naive"):
    # Distinct sizes: no fingerprint dedup, every task really solves.
    # "greedy-naive" has no batch kernel, so each task goes to the pool.
    return [(problem(3 + i), method, None) for i in range(n)]


@pytest.mark.slow
def test_sigkill_mid_batch_recovers_with_correct_results(tmp_path, pool_engaged):
    marker = tmp_path / "killed"
    batch = [
        (problem(3 + i, SigkillOnce(3 + i, str(marker))), "greedy", None)
        for i in range(6)
    ]
    expected = [solve(p, method="greedy").total_utility for p, _, _ in batch]

    results, telemetry = solve_many(
        batch, jobs=2, retry=RetryPolicy(max_attempts=3, base_delay=0.01)
    )

    assert marker.exists(), "no pool worker ever ran a task"
    assert int(marker.read_text()) != os.getpid()
    assert [r.total_utility for r in results] == expected
    assert len(telemetry) == len(expected)
    assert all(record is not None for record in telemetry)
    # The tasks the killed worker took down were finished serially.
    assert any(not record.parallel for record in telemetry[1:])


@pytest.mark.slow
def test_injected_worker_crash_recovers(pool_engaged):
    """The chaos-plan variant: ``pool.task:crash`` hard-exits a worker
    (``os._exit`` -- same abruptness as SIGKILL, seeded and portable)."""
    clean, _ = solve_many(tasks())
    expected = [r.total_utility for r in clean]

    injector.install(
        FaultPlan(
            specs=(FaultSpec(site="pool.task", action="crash", times=1),)
        )
    )
    try:
        results, telemetry = solve_many(
            tasks(),
            jobs=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
    finally:
        injector.uninstall()
    assert [r.total_utility for r in results] == expected
    assert any(not record.parallel for record in telemetry[1:])
