"""serve-mixed: ``/v1/solve`` traffic, 80% repeats, 20% fresh.

Why it exists: hits exercise HTTP, fingerprinting and cache reads;
misses exercise the batcher window, the executor, the solver and cache
writes.  Splitting latency by the reply's ``cache`` field puts a cache
change in ``hit_*`` and a solve-path change in ``miss_*``.  The first
phase is open loop at a fixed rate, about half of what two persistent
connections sustain on a 2-core host (measured: ~40 rps), so queueing
stays moderate; the second keeps both connections busy -- a closed
loop on each, the next request sent as soon as the reply is in -- and
counts completions.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Tuple

from perfbench import client
from perfbench.client import Reply, monotonic
from perfbench.inputs import ServeInputs, solve_body
from perfbench.layers import diff, fallbacks, parse_prometheus
from perfbench.outcome import Context, Outcome
from perfbench.spans import read_spans
from perfbench.stats import median_rate, quantile

#: Offered rate of the fixed phase, requests/s.  Fixed for good: a
#: later change must be measured at the same rate.
FIXED_RATE = 20.0
#: Share of the run's seconds given to the fixed phase.
FIXED_SHARE = 0.4
#: Fallbacks this traffic produces: a lone miss in a batch window.
EXPECTED_FALLBACKS = ("singleton",)


def _reference(doc: Dict) -> Dict:
    from repro.core.solver import solve
    from repro.serve import schemas

    problem = schemas.problem_from_wire(doc)
    wire = schemas.result_to_wire(solve(problem, method="greedy"))
    return json.loads(json.dumps(wire))


def _setup(ctx: Context, inputs, index: int, traced: bool):
    """Start a fresh server and warm the pool; returns (server, conns, replies)."""
    workdir = ctx.workdir / f"serve-{index}"
    server = client.Server(
        ctx.root, workdir, spans_out=workdir / "spans.json" if traced else None
    )
    server.start()
    try:
        connections = [server.connect() for _ in range(client.CONNECTIONS)]
        warm = client.post_all(
            connections, "/v1/solve", [solve_body(doc) for doc in inputs.pool]
        )
    except BaseException:
        server.stop()
        raise
    return server, connections, warm


def run(ctx: Context, seed: int, seconds: float, traced: bool, setups: int) -> Outcome:
    out = Outcome()
    fixed_seconds = seconds * FIXED_SHARE
    inputs = ServeInputs(seed)
    schedule = inputs.schedule(FIXED_RATE, fixed_seconds)

    server = None
    connections: List[client.Connection] = []
    warm: List[Reply] = []
    for index in range(setups):
        if server is not None:
            for connection in connections:
                connection.close()
            server.stop()
        start = monotonic()
        server, connections, warm = _setup(ctx, inputs, index, traced)
        out.setup_s.append(monotonic() - start)

    # The saturated phase: each connection sends its next request as
    # soon as the reply is in, drawing on from the seeded stream.
    lock = threading.Lock()
    keys: List[List[Tuple[str, int]]] = [[] for _ in connections]

    def next_body(k: int) -> bytes:
        with lock:
            key, body = inputs.next()
        keys[k].append(key)
        return body

    loops = [
        client.ClosedLoop(connection, "/v1/solve", lambda k=k: next_body(k))
        for k, connection in enumerate(connections)
    ]
    try:
        before = parse_prometheus(server.scrape())
        start = monotonic() + 0.05
        fixed = client.open_loop(
            connections,
            "/v1/solve",
            [(r.offset, r.body) for r in schedule],
            start,
            start + fixed_seconds,
        )
        saturated_end = monotonic() + seconds - fixed_seconds
        client.closed_loops(loops, saturated_end)
        window = (start, monotonic())
        after = parse_prometheus(server.scrape())
    finally:
        for connection in connections:
            connection.close()
        server.stop()

    # -- correctness gate (outside the timed phases) --------------------
    references: Dict[Tuple[str, int], Dict] = {}
    keyed = (
        [(("pool", i), r) for i, r in enumerate(warm)]
        + [(schedule[r.index].key, r) for r in fixed]
        + [pair for k, loop in enumerate(loops) for pair in zip(keys[k], loop.replies)]
    )
    for key, reply in keyed:
        out.attempted += 1
        document = reply.document
        if reply.status != 200 or document is None:
            out.fail(f"{key}: HTTP {reply.status}")
            continue
        if document.get("degraded"):
            out.fail(f"{key}: degraded reply ({document.get('degraded_source')})")
            continue
        if key not in references:
            references[key] = _reference(inputs.problem(key))
        if document.get("result") != references[key]:
            out.fail(f"{key}: result differs from a serial solve")
    out.check_fallbacks(fallbacks(after), EXPECTED_FALLBACKS)

    # -- metrics --------------------------------------------------------
    saturated = [r for loop in loops for r in loop.replies]
    completed = [r for r in saturated if r.done <= saturated_end]
    out.latencies_ms = [1000.0 * r.service for r in completed]
    out.throughput = median_rate([r.done for r in completed])
    by_cache: Dict[str, List[float]] = {"hit": [], "miss": []}
    for reply in fixed:
        status = (reply.document or {}).get("cache")
        if status in by_cache:
            by_cache[status].append(1000.0 * reply.latency)
    for status, samples in by_cache.items():
        for q in (0.5, 0.95):
            if samples:
                out.report.append(
                    (f"serve.{status}_p{int(q * 100)}_ms", quantile(samples, q), "ms", len(samples))
                )
    out.report.append(("serve.saturated_rps", out.throughput, "1/s", len(completed)))
    late = [1000.0 * r.late for r in fixed]
    queued = [r for r in fixed if r.free > r.due]
    if late:
        out.notes.append(
            f"generator: fixed phase offered {FIXED_RATE:g} rps, sent "
            f"{len(fixed)}; wake-up lateness p50 {quantile(late, 0.5):.3f} ms, "
            f"max {max(late):.3f} ms; {len(queued)} waited for a free connection"
        )

    if traced:
        out.spans = read_spans(str(ctx.workdir / f"serve-{setups - 1}" / "spans.json"))
        out.window = window
        out.counters = diff(after, before)
        out.client_latencies = [r.service for r in fixed + saturated]
    return out
