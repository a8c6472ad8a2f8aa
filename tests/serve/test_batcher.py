"""Unit tests for the request batcher: coalescing, backpressure, close."""

import threading
import time

import pytest

from repro.core.solver import solve
from repro.faults import injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.registry import get_registry
from repro.runtime.cache import ScheduleCache
from repro.runtime.fingerprint import solve_fingerprint
from repro.serve import schemas
from repro.serve.batcher import (
    BatcherClosedError,
    OverloadedError,
    SolveBatcher,
)

from .conftest import stall_batches, wait_until_solving


def small_problem(sensors=6, rho=3.0, p=0.4):
    return schemas.problem_from_wire(
        {"num_sensors": sensors, "rho": rho, "utility": {"p": p}}
    )


@pytest.fixture
def closing():
    """Close every batcher the test created, even on failure."""
    batchers = []
    yield batchers.append
    for batcher in batchers:
        batcher.close()


class TestSubmit:
    def test_result_matches_direct_solve(self, closing):
        batcher = SolveBatcher(cache=None)
        closing(batcher)
        problem = small_problem()
        result, meta = batcher.submit(problem, "greedy")
        direct = solve(problem, method="greedy")
        assert schemas.result_to_wire(result) == schemas.result_to_wire(
            direct
        )
        assert meta["cache"] == "miss"  # solved fresh, nothing cached
        assert meta["coalesced"] is False

    def test_cache_miss_then_admission_fast_path(self, tmp_path, closing):
        get_registry().reset()
        cache = ScheduleCache(directory=tmp_path)
        batcher = SolveBatcher(cache=cache)
        closing(batcher)
        problem = small_problem()
        _, first = batcher.submit(problem, "greedy")
        _, second = batcher.submit(problem, "greedy")
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert (
            get_registry().sample_value("repro_server_cache_fastpath_total")
            == 1
        )

    def test_solver_errors_propagate(self, closing):
        batcher = SolveBatcher(cache=None)
        closing(batcher)
        with pytest.raises(ValueError, match="[Uu]nknown"):
            batcher.submit(small_problem(), "no-such-method")
        # The batcher survives a failed batch.
        result, _ = batcher.submit(small_problem(), "greedy")
        assert result.schedule


def hold_worker(batcher: SolveBatcher, delay: float) -> threading.Thread:
    """Occupy the worker with a stalled batch of one other instance.

    Returns the blocker's client thread once its batch is running;
    requests submitted during the ``delay`` queue up behind it and form
    the next batch together.
    """
    stall_batches(delay)
    blocker = threading.Thread(
        target=batcher.submit,
        args=(small_problem(sensors=9), "greedy"),
        kwargs={"timeout": 30},
    )
    blocker.start()
    wait_until_solving(batcher)
    return blocker


class TestCoalescing:
    def test_concurrent_duplicates_solved_once(self, closing):
        get_registry().reset()
        batcher = SolveBatcher(cache=None)
        closing(batcher)
        problem = small_problem()
        blocker = hold_worker(batcher, delay=1.0)
        clients = 6
        barrier = threading.Barrier(clients)
        metas, errors = [], []

        def client():
            barrier.wait()
            try:
                result, meta = batcher.submit(problem, "greedy", timeout=30)
            except BaseException as error:  # pragma: no cover - diagnostics
                errors.append(error)
            else:
                metas.append((schemas.result_to_wire(result), meta))

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads + [blocker]:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads + [blocker])
        assert not errors
        assert len(metas) == clients
        wires = {schemas.canonical_json(wire) for wire, _ in metas}
        assert len(wires) == 1  # everyone got the same answer
        coalesced = sum(1 for _, meta in metas if meta["coalesced"])
        assert coalesced == clients - 1
        assert (
            get_registry().sample_value("repro_server_coalesced_total")
            == clients - 1
        )


class TestBackpressure:
    def test_queue_full_raises_overloaded(self, closing):
        batcher = SolveBatcher(cache=None, max_queue=1)
        closing(batcher)
        stall_batches(0.5)  # the occupant stays in flight
        admitted = threading.Event()
        finished = []

        def occupant():
            admitted.set()
            result, _ = batcher.submit(small_problem(), "greedy", timeout=30)
            finished.append(result)

        thread = threading.Thread(target=occupant)
        thread.start()
        admitted.wait(timeout=5)
        # Wait until the occupant is actually counted in flight.
        deadline = 50
        while batcher.queue_depth() < 1 and deadline:
            threading.Event().wait(0.01)
            deadline -= 1
        with pytest.raises(OverloadedError):
            batcher.submit(small_problem(sensors=7), "greedy")
        thread.join(timeout=30)
        assert finished  # the occupant still got its answer

    def test_submit_timeout(self, closing):
        batcher = SolveBatcher(cache=None)
        closing(batcher)
        stall_batches(1.0)
        with pytest.raises(TimeoutError):
            batcher.submit(small_problem(), "greedy", timeout=0.05)


class TestCancellation:
    def test_timed_out_request_is_cancelled_not_solved(
        self, tmp_path, closing
    ):
        """A submit that times out must never be solved on the client's
        behalf: it is pulled from the queue (or skipped by ``_execute``)
        and nothing lands in the cache for it."""
        get_registry().reset()
        cache = ScheduleCache(directory=tmp_path)
        batcher = SolveBatcher(cache=cache)
        closing(batcher)
        problem = small_problem()
        blocker = hold_worker(batcher, delay=0.4)
        with pytest.raises(TimeoutError):
            # Times out while still queued behind the stalled batch.
            batcher.submit(problem, "greedy", timeout=0.05)
        blocker.join(timeout=30)
        assert not blocker.is_alive()
        assert (
            get_registry().sample_value("repro_server_cancelled_total") == 1
        )
        # Give the worker time to run the (now empty) batch, then
        # prove the cancelled request was never solved: no cache entry.
        deadline = time.monotonic() + 5.0
        while batcher.queue_depth() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        key = solve_fingerprint(problem, "greedy", None)
        assert cache.peek_result(key, problem) is None

    def test_cancelled_member_does_not_fail_the_batch(self, closing):
        """Live members of a batch still get answers when another
        member's submitter timed out and left."""
        batcher = SolveBatcher(cache=None)
        closing(batcher)
        blocker = hold_worker(batcher, delay=0.3)
        survivor = []

        def patient_client():
            result, _ = batcher.submit(
                small_problem(sensors=7), "greedy", timeout=30
            )
            survivor.append(result)

        thread = threading.Thread(target=patient_client)
        thread.start()
        with pytest.raises(TimeoutError):
            batcher.submit(small_problem(sensors=5), "greedy", timeout=0.05)
        thread.join(timeout=30)
        blocker.join(timeout=30)
        assert not blocker.is_alive()
        assert survivor and survivor[0].schedule


class TestDrain:
    def test_close_resolves_stranded_requests(self, closing):
        """Satellite: a stalled worker must not strand handler threads.

        With the batch worker wedged (injected ``batcher.batch`` sleep),
        ``close`` with a short drain window resolves the in-flight
        request with :class:`BatcherClosedError`, reports the leak in
        its return value and in
        ``repro_server_drain_incomplete_total``.
        """
        get_registry().reset()
        batcher = SolveBatcher(cache=None)
        closing(batcher)
        injector.install(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="batcher.batch",
                        action="sleep",
                        delay=2.0,
                        times=1,
                    ),
                )
            )
        )
        outcome = []

        def stranded_client():
            try:
                batcher.submit(small_problem(), "greedy", timeout=30)
            except BaseException as error:
                outcome.append(error)
            else:  # pragma: no cover - would mean the drain leaked
                outcome.append(None)

        try:
            thread = threading.Thread(target=stranded_client)
            thread.start()
            # Wait until the batch is actually being executed (the
            # worker is inside the injected stall).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with batcher._lock:
                    if batcher._current_batch:
                        break
                time.sleep(0.01)
            leaked = batcher.close(timeout=0.2)
        finally:
            injector.uninstall()
        assert leaked >= 1
        thread.join(timeout=30)
        assert outcome and isinstance(outcome[0], BatcherClosedError)
        assert (
            get_registry().sample_value(
                "repro_server_drain_incomplete_total", component="batcher"
            )
            >= 1
        )
        with pytest.raises(BatcherClosedError):
            batcher.submit(small_problem(), "greedy")

    def test_clean_close_reports_zero_leaked(self):
        batcher = SolveBatcher(cache=None)
        result, _ = batcher.submit(small_problem(), "greedy")
        assert result.schedule
        assert batcher.close() == 0
        assert batcher.close() == 0  # idempotent


class TestLifecycle:
    def test_closed_batcher_rejects_new_work(self):
        batcher = SolveBatcher(cache=None)
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(small_problem(), "greedy")
        batcher.close()  # idempotent

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_queue": 0}, {"max_batch": 0}],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SolveBatcher(cache=None, **kwargs)
