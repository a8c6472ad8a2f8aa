"""The request queue: admission control, micro-batching, coalescing.

Every solve a handler thread needs goes through one
:class:`SolveBatcher`.  The flow:

1. **Admission** (caller's thread): if the cache already holds the
   instance (:meth:`~repro.runtime.cache.ScheduleCache.peek_result`),
   answer immediately -- warm traffic never pays batching latency.
   The HTTP layer remembers the encoded reply of such a hit under the
   sha256 of its request body (:meth:`SolveBatcher.hit_reply`), and
   answers the same bytes again while the cache still holds the very
   payload object the reply was encoded from.
   Otherwise the request joins the queue, unless the number in flight
   has reached ``max_queue`` -- then :class:`OverloadedError` is raised
   *immediately* (the HTTP layer maps it to 429).  Load must be shed at
   the door; a bounded wait here would just move the pile-up into the
   socket backlog.
2. **Batching** (worker thread): the worker takes everything queued
   when it wakes (up to ``max_batch``) and hands the batch to
   :func:`repro.runtime.executor.solve_many`, which fingerprints,
   coalesces duplicate instances onto one solve, consults the schedule
   cache, and sends unique misses to the batch kernels (a lone miss
   included) or the worker pool.  It does not linger: requests that
   arrive while a batch solves queue up and form the next batch, so
   N clients posting the same instance together cost **one** solver
   invocation.  There is no linger window: it would only delay the
   lone miss.
3. **Fan-out**: each request's future is resolved with its own
   rehydrated result (no shared mutable state across responses).

The batcher never reorders errors into results: a failed batch fails
exactly the requests in it, with the original exception.

Failure discipline (the robustness contract):

- a request that *times out* in :meth:`SolveBatcher.submit` is
  **cancelled**: pulled from the queue if still there, skipped by
  ``_execute`` if already collected -- its solve is never performed on
  behalf of a client that stopped listening;
- each request's remaining deadline rides down into
  :func:`~repro.runtime.executor.solve_many` (a batch is bounded by
  its *tightest* member), so pool waits and retry backoffs can never
  outlive the client;
- :meth:`close` resolves any request still unanswered after the drain
  window with :class:`BatcherClosedError` -- a leaked ``_Pending``
  would otherwise block its handler thread forever -- and reports the
  leak (``repro_server_drain_incomplete_total`` +
  ``serve.drain_incomplete``) instead of pretending the drain was
  clean.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.problem import SchedulingProblem
from repro.core.solver import SolveResult
from repro.faults.injector import maybe_hit
from repro.obs import events as obs_events
from repro.obs.registry import get_registry
from repro.runtime.cache import ScheduleCache
from repro.runtime.executor import SolveTask, solve_many
from repro.runtime.fingerprint import UncacheableError, solve_fingerprint
from repro.runtime.retry import RetryPolicy

_QUEUE_HELP = "Solve requests queued or being batched right now"
_BATCH_HELP = "Requests per executed batch"
_COALESCED_HELP = "Requests answered by another in-flight request's solve"
_FASTPATH_HELP = "Requests answered from the cache at admission time"
_CANCELLED_HELP = "Requests cancelled after their submit timeout expired"
_DRAIN_HELP = "Requests resolved with BatcherClosedError at close, by component"
_BATCHED_HELP = "Service solves answered through the batched kernel path"

#: A remembered hit reply: (cache key, the payload object the reply was
#: encoded from, the encoded reply bytes).
HitReply = Tuple[str, Dict[str, Any], bytes]


class OverloadedError(RuntimeError):
    """The request queue is full; the caller should shed this request."""


class BatcherClosedError(RuntimeError):
    """The batcher is draining/closed and accepts no new requests."""


@dataclass
class _Pending:
    """One queued request and the slot its answer lands in."""

    task: SolveTask
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[SolveResult] = None
    cache_status: str = "miss"
    coalesced: bool = False
    error: Optional[BaseException] = None
    #: Absolute ``time.monotonic()`` budget end (None = unbounded).
    deadline: Optional[float] = None
    #: The submitter timed out and left; do not solve on its behalf.
    cancelled: bool = False


class SolveBatcher:
    """Bounded, coalescing micro-batcher over ``solve_many``.

    Parameters
    ----------
    cache:
        Shared :class:`ScheduleCache` (``None`` disables caching and
        the admission fast path).
    jobs:
        Worker processes for each batch's unique misses.
    max_queue:
        Maximum requests in flight (queued + being solved); admissions
        beyond this raise :class:`OverloadedError`.
    max_batch:
        Hard cap on requests per batch.
    retry:
        :class:`~repro.runtime.retry.RetryPolicy` applied per batch
        inside ``solve_many`` (``None`` disables retries).
    """

    def __init__(
        self,
        cache: Optional[ScheduleCache] = None,
        jobs: Optional[int] = None,
        max_queue: int = 256,
        max_batch: int = 64,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.cache = cache
        self.jobs = jobs
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.retry = retry

        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._queue: List[_Pending] = []
        self._current_batch: List[_Pending] = []  # being solved right now
        self._in_flight = 0  # queued + currently being solved
        self._closed = False
        # sha256(request body) -> HitReply, least recently used first.
        self._replies: "OrderedDict[bytes, HitReply]" = OrderedDict()
        self._replies_lock = threading.Lock()

        registry = get_registry()
        self._m_queue_depth = registry.gauge(
            "repro_server_queue_depth", _QUEUE_HELP
        )
        self._m_batch_size = registry.histogram(
            "repro_server_batch_size", _BATCH_HELP, buckets=_batch_buckets()
        )
        self._m_coalesced = registry.counter(
            "repro_server_coalesced_total", _COALESCED_HELP
        )
        self._m_fastpath = registry.counter(
            "repro_server_cache_fastpath_total", _FASTPATH_HELP
        )
        self._m_cancelled = registry.counter(
            "repro_server_cancelled_total", _CANCELLED_HELP
        )
        self._m_batched = registry.counter(
            "repro_server_batched_total", _BATCHED_HELP
        )

        self._worker = threading.Thread(
            target=self._run, name="solve-batcher", daemon=True
        )
        self._worker.start()

    # -- caller side ---------------------------------------------------

    def submit(
        self,
        problem: SchedulingProblem,
        method: str = "greedy",
        seed: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[SolveResult, Dict[str, Any]]:
        """Solve (through the batch pipeline) and block for the answer.

        Returns ``(result, meta)`` where ``meta`` carries the cache
        status and whether the request was coalesced onto another
        in-flight solve; an admission fast-path hit also carries
        ``meta["found"]``, the ``(cache key, payload)`` it answered
        from.  Raises :class:`OverloadedError` when the
        queue is full, :class:`BatcherClosedError` after :meth:`close`,
        ``TimeoutError`` if no answer arrives within ``timeout``
        seconds, and re-raises whatever the solver raised otherwise.
        """
        fast = self._admission_fast_path(problem, method, seed)
        if fast is not None:
            return fast
        pending = _Pending(
            task=(problem, method, seed),
            deadline=(
                time.monotonic() + timeout if timeout is not None else None
            ),
        )
        with self._lock:
            if self._closed:
                raise BatcherClosedError("batcher is closed")
            if self._in_flight >= self.max_queue:
                raise OverloadedError(
                    f"queue full ({self._in_flight}/{self.max_queue} in flight)"
                )
            self._in_flight += 1
            self._queue.append(pending)
            self._m_queue_depth.set(self._in_flight)
            self._arrived.notify()
        try:
            if not pending.done.wait(timeout):
                # Cancel, don't leak: a timed-out request must not be
                # solved on behalf of a client that stopped listening.
                # Pull it from the queue if uncollected; flag it so
                # ``_execute`` skips it if a batch already holds it.
                with self._lock:
                    pending.cancelled = True
                    try:
                        self._queue.remove(pending)
                    except ValueError:
                        pass  # already collected into a batch
                self._m_cancelled.inc()
                obs_events.emit(
                    "serve.request_cancelled",
                    timeout=timeout,
                    queue_depth=self.queue_depth(),
                )
                raise TimeoutError(
                    f"no answer within {timeout}s (queue depth "
                    f"{self.queue_depth()})"
                )
        finally:
            with self._lock:
                self._in_flight -= 1
                self._m_queue_depth.set(self._in_flight)
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result, {
            "cache": pending.cache_status,
            "coalesced": pending.coalesced,
        }

    def _admission_fast_path(
        self, problem: SchedulingProblem, method: str, seed: Optional[int]
    ) -> Optional[Tuple[SolveResult, Dict[str, Any]]]:
        if self.cache is None:
            return None
        try:
            key = solve_fingerprint(problem, method, seed)
        except UncacheableError:
            return None
        result = self.cache.peek_result(key, problem)
        if result is None:
            return None
        self._m_fastpath.inc()
        meta: Dict[str, Any] = {"cache": "hit", "coalesced": False}
        # The payload object peek_result just rehydrated: the identity a
        # remembered reply is validated against.  A concurrent eviction
        # leaves nothing to remember.
        payload = self.cache._memory.get(key)
        if payload is not None:
            meta["found"] = (key, payload)
        return result, meta

    # -- byte-keyed hit replies ------------------------------------------

    def hit_reply(self, body_digest: bytes) -> Optional[HitReply]:
        """The reply remembered for a request body's digest, unvalidated."""
        with self._replies_lock:
            return self._replies.get(body_digest)

    def answer_hit_reply(
        self, body_digest: bytes, entry: HitReply
    ) -> Optional[bytes]:
        """``entry``'s reply bytes, if they still answer the request.

        They do while the cache holds the very payload object they were
        encoded from.  :meth:`~repro.runtime.cache.ScheduleCache.peek`
        is the check, and it counts the hit and touches the LRU as the
        fast path's own lookup does.  A replaced, cleared or
        disk-reloaded entry fails it: the reply is forgotten and
        ``None`` sends the caller down the full path.
        """
        key, payload, reply = entry
        valid = self.cache.peek(key) is payload
        with self._replies_lock:
            if self._replies.get(body_digest) is entry:
                if valid:
                    self._replies.move_to_end(body_digest)
                else:
                    del self._replies[body_digest]
        if not valid:
            return None
        self._m_fastpath.inc()
        return reply

    def remember_hit_reply(
        self,
        body_digest: bytes,
        found: Tuple[str, Dict[str, Any]],
        reply: bytes,
    ) -> None:
        """Remember a fast-path hit's encoded reply under its body digest.

        At most the cache's own capacity of replies is kept, least
        recently answered dropped first.
        """
        key, payload = found
        with self._replies_lock:
            self._replies[body_digest] = (key, payload, reply)
            self._replies.move_to_end(body_digest)
            while len(self._replies) > self.cache.capacity:
                self._replies.popitem(last=False)

    def queue_depth(self) -> int:
        with self._lock:
            return self._in_flight

    def close(self, timeout: float = 5.0) -> int:
        """Stop accepting work, drain what is queued, join the worker.

        Returns the number of requests that could *not* be drained
        within ``timeout`` seconds.  Those are not abandoned silently:
        each is resolved with :class:`BatcherClosedError` (so its
        handler thread wakes up and answers 503 instead of hanging on
        a leaked event), counted in
        ``repro_server_drain_incomplete_total`` and reported via a
        ``serve.drain_incomplete`` event.
        """
        with self._lock:
            if self._closed and not self._worker.is_alive():
                return 0
            self._closed = True
            self._arrived.notify_all()
        self._worker.join(timeout)
        leaked = 0
        with self._lock:
            stranded = self._queue + self._current_batch
            self._queue = []
        for pending in stranded:
            if pending.done.is_set():
                continue
            pending.error = BatcherClosedError(
                "batcher closed before this request was answered"
            )
            pending.done.set()
            leaked += 1
        if leaked or self._worker.is_alive():
            get_registry().counter(
                "repro_server_drain_incomplete_total",
                _DRAIN_HELP,
                component="batcher",
            ).inc(max(leaked, 1))
            obs_events.emit(
                "serve.drain_incomplete",
                component="batcher",
                leaked=leaked,
                worker_alive=self._worker.is_alive(),
            )
        return leaked

    # -- worker side ---------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._execute(batch)

    def _collect_batch(self) -> Optional[List[_Pending]]:
        """Block for the first request, then take what is queued."""
        with self._lock:
            while not self._queue and not self._closed:
                self._arrived.wait()
            if not self._queue:
                return None  # closed and drained
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
        return batch

    def _execute(self, batch: List[_Pending]) -> None:
        # Skip members whose submitter already timed out and left --
        # solving them would burn pool time nobody is waiting on.
        with self._lock:
            batch = [p for p in batch if not p.cancelled]
            self._current_batch = batch
        if not batch:
            return
        try:
            self._execute_live(batch)
        finally:
            with self._lock:
                self._current_batch = []

    def _execute_live(self, batch: List[_Pending]) -> None:
        self._m_batch_size.observe(len(batch))
        # The batch is bounded by its *tightest* member's deadline:
        # retries and pool waits below must never outlive the first
        # client that would stop listening.
        member_deadlines = [p.deadline for p in batch if p.deadline is not None]
        deadline = min(member_deadlines) if member_deadlines else None
        coalesced_indices: set = set()

        def on_group(key, indices, disposition):
            # Members beyond the representative rode along for free.
            for index in indices[1:]:
                coalesced_indices.add(index)
                self._m_coalesced.inc()

        try:
            # Chaos hook: "batcher.batch" faults (stalls via sleep,
            # injected errors) land inside the try so an injected
            # error fails this batch's requests, never the worker
            # thread itself.
            maybe_hit("batcher.batch", size=len(batch))
            results, telemetry = solve_many(
                [p.task for p in batch],
                jobs=self.jobs,
                cache=self.cache,
                on_group=on_group,
                retry=self.retry,
                deadline=deadline,
            )
        except BaseException as error:
            for pending in batch:
                pending.error = error
                pending.done.set()
            return
        for pending, result, record in zip(batch, results, telemetry):
            pending.result = result
            pending.cache_status = record.cache
            pending.coalesced = record.index in coalesced_indices
            if record.batched:
                self._m_batched.inc()
            pending.done.set()


def _batch_buckets() -> Tuple[float, ...]:
    """Batch-size shaped buckets: 1, 2, 4, ... 256 requests."""
    return tuple(float(2**i) for i in range(9))
